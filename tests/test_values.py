"""Value types: the tuple classes, and pickling of fields and the values
over them once a field has done polynomial arithmetic."""

import copy
import pickle

import pytest

from matcanon import (
    GF,
    QQ,
    AffineRepresentative,
    BadPartition,
    InvariantTriple,
    JumpData,
    MatcanonError,
    Matrix,
    Partition,
    Polynomial,
    QForm,
    RationalNormalForm,
    invariant_factors,
    jump_data,
    to_affine,
)

from bruteforce import all_matrices


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def values():
    """One value of each tuple class, with its repr (and str) as pinned."""
    p = Partition((5, 3, 2, 2))
    f = GF(5)
    return [
        (p, "Partition(5, 3, 2, 2)"),
        (Partition((3,)), "Partition(3,)"),
        (RationalNormalForm([P(QQ, -1, 1), P(QQ, -1, 1)]), "RationalNormalForm(X - 1, X - 1)"),
        (jump_data(p), "JumpData(jumps=(1, 2), qs=(2, 1, 2), r=4)"),
        (AffineRepresentative(p, (P(f, 1, 2, 1), P(f, 3, 1), P(f, 0, 4, 1))),
         "AffineRepresentative(Partition(5, 3, 2, 2), (X^2 + 2*X + 1, X + 3, X^2 + 4*X))"),
        (AffineRepresentative(Partition((1,)), (P(f, 3, 1),)), "AffineRepresentative(Partition(1,), (X + 3))"),
        (InvariantTriple(QQ(6), QQ(-1) / 2, QQ(3)), "InvariantTriple(6, -1/2, 3)"),
    ]


class TestTupleValues:
    @pytest.mark.parametrize("value, text", values(), ids=lambda v: type(v).__name__)
    def test_repr_and_str_are_pinned(self, value, text):
        assert repr(value) == text
        assert str(value) == text

    @pytest.mark.parametrize("value, text", values(), ids=lambda v: type(v).__name__)
    def test_hash_pickle_and_deepcopy_round_trip(self, value, text):
        for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(other) is type(value)
            assert other == value and hash(other) == hash(value)
            assert repr(other) == text
        assert {value, copy.deepcopy(value)} == {value}

    def test_values_equal_plain_tuples_of_their_entries(self):
        p = Partition((2, 1))
        chain = RationalNormalForm([P(GF(3), 0, 0, 1), P(GF(3), 0, 1)])
        rep = to_affine(chain)
        y = InvariantTriple(GF(7)(1), GF(7)(2), GF(7)(3))
        assert p == (2, 1) and p.parts == (2, 1) and type(p.parts) is tuple
        assert chain == tuple(chain.factors) and chain[1:] == (P(GF(3), 0, 1),)
        assert rep == (p, P(GF(3), 0, 1), P(GF(3), 0, 1)) and rep.partition == p
        assert rep.qs == (P(GF(3), 0, 1), P(GF(3), 0, 1))
        assert jump_data(p) == ((1,), (1, 1), 2) == JumpData(jumps=(1,), qs=(1, 1), r=2)
        assert y == (GF(7)(1), GF(7)(2), GF(7)(3)) and (y.x1, y.x2, y.x3) == tuple(y)

    def test_a_qform_is_not_its_triple(self):
        q = QForm(GF(7)(1), GF(7)(2), GF(7)(4))
        assert q != q.invariants() and q.invariants() == InvariantTriple(*q.invariants())

    @pytest.mark.parametrize("q", [2, 3])
    def test_one_family_point_per_class_of_2x2(self, q):
        """The points (p, Q_1, ..., Q_s) of the 2 x 2 matrices over GF(q)
        form a set with one element per similarity class: q^2 + q of them,
        q^2 with one invariant factor and q scalar classes."""
        points = {to_affine(invariant_factors(a)) for a in all_matrices(GF(q), 2)}
        assert len(points) == q * q + q
        assert sum(len(point.partition) == 2 for point in points) == q

    def test_bad_partition_is_a_named_error(self):
        for parts in ((), (2, 0), (2, 3)):
            with pytest.raises(BadPartition) as info:
                Partition(parts)
            assert isinstance(info.value, MatcanonError) and isinstance(info.value, ValueError)


class TestPickling:
    """A field pickles by name, so a value over a field that has done
    polynomial arithmetic (and cached its kernel) still pickles."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(10007)], ids=str)
    def test_values_pickle_after_polynomial_arithmetic(self, field):
        a = Matrix(field, [[2, 0], [0, 2]])
        chain = invariant_factors(a)
        x = Polynomial.x(field)
        square = x * x % (x * x + x + 1)
        assert field.poly_ops() is field.poly_ops()
        for value in (field, a, chain, to_affine(chain), square, field(3), x):
            for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert other == value and hash(other) == hash(value)
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(a)).field is field
