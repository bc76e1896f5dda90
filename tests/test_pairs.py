"""Trace-zero 2x2 pairs: invariants, fibres, reduction, Hom, splitting."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import matcanon
import matcanon.fields
import matcanon.matrix
import matcanon.pairs
from matcanon import (
    GF,
    QQ,
    BasisFailure,
    DegenerateComposite,
    DegenerateDiagonal,
    DimensionMismatch,
    FieldMismatch,
    InvariantTriple,
    MatcanonError,
    Matrix,
    NotInW,
    NotInY,
    PairPoint,
    QForm,
    RootsMissingInField,
    Sl2Pair,
    TraceNonzero,
    common_eigenvector,
    companion,
    g_value,
    hom_dimension,
    intertwiners,
    invariants,
    q_points,
    reduce_to_q,
    simple_pair,
    split_off_simple,
)
from bruteforce import invertible_matrices, simultaneously_similar

from matcanon.fields import PrimeField
from matcanon.matrix import _over_one_denominator, _prime
from matcanon.matrix import _Span, _chain, _unit
from matcanon.pairs import _intertwines, _spin

from helpers import (
    gauss_jordan,
    intertwiner_system,
    rand_invertible,
    rand_matrix,
    rand_monic,
    reference_hadamard_square,
    reference_intertwiners,
    reference_inverse,
    submatrix,
)


def triple(field, x1, x2, x3):
    return InvariantTriple(field(x1), field(x2), field(x3))


def sl2(field, a_rows, b_rows):
    return Sl2Pair(Matrix(field, a_rows), Matrix(field, b_rows))


class TestInvariants:
    def test_zero_pair(self):
        pair = sl2(QQ, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert invariants(pair) == triple(QQ, 0, 0, 0)

    def test_qform_oracle_gf7(self):
        # Oracle by hand: A = [[1,1],[0,6]], B = [[2,0],[4,5]] over GF(7);
        # det A = 6, A*B = [[6,5],[3,2]] so tr = 1, det B = 3.
        field = GF(7)
        q = QForm(field(1), field(2), field(4))
        pair = q.realize()
        assert pair.a == Matrix(field, [[1, 1], [0, 6]])
        assert pair.b == Matrix(field, [[2, 0], [4, 5]])
        assert pair.a * pair.b == Matrix(field, [[6, 5], [3, 2]])
        assert invariants(pair) == triple(field, 6, 1, 3)

    def test_conjugation_invariance(self):
        rng = random.Random(71)
        for field in (GF(7), QQ):
            for _ in range(15):
                if field.characteristic:
                    entries = lambda: rng.randrange(field.characteristic)
                else:
                    entries = lambda: rng.randint(-4, 4)
                a, b, c = entries(), entries(), entries()
                d, e, f = entries(), entries(), entries()
                pair = sl2(field, [[a, b], [c, -a]], [[d, e], [f, -d]])
                g = rand_invertible(field, 2, rng)
                assert invariants(pair.conjugated_by(g)) == invariants(pair)

    def test_trace_enforced(self):
        with pytest.raises(TraceNonzero):
            sl2(QQ, [[1, 0], [0, 0]], [[0, 0], [0, 0]])


class TestSl2Pair:
    def test_is_a_pair_point(self):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        point = PairPoint(pair.a, pair.b)
        assert isinstance(pair, PairPoint)
        assert (pair.m1, pair.m2) == (pair.a, pair.b)
        assert pair == point and hash(pair) == hash(point)

    def test_conjugate_stays_sl2(self):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        g = Matrix(field, [[2, 5], [3, 1]])
        conjugate = pair.conjugated_by(g)
        assert type(conjugate) is Sl2Pair
        assert conjugate.a == g.inverse() * pair.a * g

    def test_members_read_only(self):
        pair = sl2(QQ, [[1, 0], [0, -1]], [[0, 1], [0, 0]])
        with pytest.raises(AttributeError):
            pair.a = pair.b

    @pytest.mark.parametrize("a, b", [
        (Matrix(QQ, [[0]]), Matrix(QQ, [[0]])),
        (Matrix.zeros(QQ, 3, 3), Matrix.zeros(QQ, 3, 3)),
        (Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 2, 3)),
    ])
    def test_size_enforced(self, a, b):
        with pytest.raises(DimensionMismatch):
            Sl2Pair(a, b)

    def test_one_field(self):
        with pytest.raises(FieldMismatch):
            Sl2Pair(Matrix.zeros(QQ, 2, 2), Matrix.zeros(GF(7), 2, 2))


class TestGValue:
    def test_zero_first_coordinate(self):
        assert g_value(triple(QQ, 0, 5, 7)).is_zero()

    def test_zero_discriminant(self):
        assert g_value(triple(QQ, 1, 2, 1)).is_zero()

    def test_gf7_value(self):
        assert g_value(triple(GF(7), 6, 1, 3)) == GF(7)(3)


class TestQPoints:
    def test_gf7_fiber_frozen(self):
        """Oracle: root pairs of -6 = 1 are {1, 6}, of -3 = 4 are {2, 5};
        b21 = 1 - 2*b11*a11 gives 4, 5, 5, 4."""
        field = GF(7)
        points = q_points(triple(field, 6, 1, 3))
        expected = [
            QForm(field(1), field(2), field(4)),
            QForm(field(1), field(5), field(5)),
            QForm(field(6), field(2), field(5)),
            QForm(field(6), field(5), field(4)),
        ]
        assert points == expected
        assert len(set(points)) == 4
        y = triple(field, 6, 1, 3)
        for q in points:
            assert invariants(q.realize()) == y

    def test_gf2_single_point(self):
        field = GF(2)
        points = q_points(triple(field, 1, 1, 1))
        assert points == [QForm(field(1), field(1), field(1))]
        assert invariants(points[0].realize()) == triple(field, 1, 1, 1)

    def test_missing_roots(self):
        # -x1 = 6 - 7 = ... pick x1 with -x1 a non-residue mod 7: residues
        # are {1, 2, 4}, so x1 = 4 gives -x1 = 3, a non-residue.
        with pytest.raises(RootsMissingInField):
            q_points(triple(GF(7), 4, 1, 3))

    def test_not_in_y(self):
        with pytest.raises(NotInY):
            q_points(triple(QQ, 0, 1, 1))
        with pytest.raises(NotInY):
            q_points(triple(QQ, 1, 2, 1))

    def test_rational_fiber(self):
        field = QQ
        points = q_points(triple(field, -4, 3, -9))
        assert len(points) == 4
        assert all(invariants(q.realize()) == triple(field, -4, 3, -9) for q in points)
        # lexicographic order of (a11, b11): the root pairs are (+-2, +-3)
        # and b21 = 3 - 2*b11*a11
        assert points[0] == QForm(field(-2), field(-3), field(-9))
        assert points[-1] == QForm(field(2), field(3), field(-9))

    def test_q_inequality_automatic(self):
        """Every root choice over Y satisfies the Q inequality."""
        field = GF(7)
        count = 0
        for x1 in range(1, 7):
            for x2 in range(7):
                for x3 in range(1, 7):
                    y = triple(field, x1, x2, x3)
                    if g_value(y).is_zero():
                        continue
                    try:
                        points = q_points(y)
                    except RootsMissingInField:
                        continue
                    count += len(points)
                    # QForm construction validates the inequality; reaching
                    # here without ValueError is the assertion.
        assert count > 0

    def test_every_qform_lies_off_the_vanishing_locus(self):
        """The invariants of any valid normalized pair have g != 0."""
        for p in (5, 7, 11):
            field = GF(p)
            for a in range(1, p):
                for b in range(1, p):
                    for c in range(1, p):
                        if (4 * a * b + c) % p == 0:
                            continue
                        q = QForm(field(a), field(b), field(c))
                        assert not g_value(invariants(q.realize())).is_zero()

    @pytest.mark.parametrize("p", [3, 5])
    def test_fiber_census_small_primes(self, p):
        """Exhaustive census over GF(3) and GF(5): four distinct points per
        admissible triple, mutually conjugate via the canonical reduction
        (each reduces to the same canonical sheet)."""
        field = GF(p)
        admissible = 0
        for x1 in range(p):
            for x2 in range(p):
                for x3 in range(p):
                    y = triple(field, x1, x2, x3)
                    if g_value(y).is_zero():
                        continue
                    try:
                        points = q_points(y)
                    except RootsMissingInField:
                        continue
                    admissible += 1
                    assert len(points) == 4 and len(set(points)) == 4
                    assert all(invariants(q.realize()) == y for q in points)
                    canon = [reduce_to_q(q.realize())[1] for q in points]
                    assert all(c == canon[0] for c in canon)
        assert admissible > 0


class TestCommonEigenvector:
    def test_simultaneous_diagonal(self):
        pair = sl2(QQ, [[1, 0], [0, -1]], [[2, 0], [0, -2]])
        v = common_eigenvector(pair)
        assert v == Matrix(QQ, [[1], [0]])

    def test_nilpotent_pair(self):
        pair = sl2(GF(5), [[0, 1], [0, 0]], [[0, 3], [0, 0]])
        assert common_eigenvector(pair) == Matrix(GF(5), [[1], [0]])

    def test_absent_over_y(self):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        assert not g_value(invariants(pair)).is_zero()
        assert common_eigenvector(pair) is None

    def test_eigenvalues_missing(self):
        # A = [[0,-1],[1,0]] has det 1, and -1 is a non-residue mod 7.
        pair = sl2(GF(7), [[0, 6], [1, 0]], [[0, 0], [0, 0]])
        with pytest.raises(RootsMissingInField):
            common_eigenvector(pair)

    def test_exhaustive_gf3_against_direction_oracle(self):
        """For every pair over GF(3) (both members with eigenvalues in the
        field), compare against brute-force scanning of the 4 projective
        directions; also check the g-vanishing link both ways."""
        field = GF(3)
        directions = [Matrix(field, [[1], [0]])]
        directions += [Matrix(field, [[a], [1]]) for a in range(3)]

        def is_eigen(m, v):
            w = m * v
            # w parallel to v: 2x2 determinant of (v | w) vanishes
            d = v[0, 0] * w[1, 0] - v[1, 0] * w[0, 0]
            return d.is_zero()

        sl2_members = [
            Matrix(field, [[a, b], [c, -a]])
            for a in range(3) for b in range(3) for c in range(3)
        ]
        checked = 0
        for a in sl2_members:
            for b in sl2_members:
                pair = Sl2Pair(a, b)
                oracle = [v for v in directions if is_eigen(a, v) and is_eigen(b, v)]
                try:
                    got = common_eigenvector(pair)
                except RootsMissingInField:
                    # no k-rational eigenvalues for some member: the oracle
                    # must agree that that member has no eigendirection
                    assert not all(
                        any(is_eigen(m, v) for v in directions) for m in (a, b)
                    )
                    continue
                checked += 1
                assert (got is not None) == bool(oracle)
                if not g_value(invariants(pair)).is_zero():
                    assert got is None
                if got is not None:
                    assert any(got == v or got == v.scale(2) for v in oracle)
                    # With Av = a*v and Bv = b*v the triple is
                    # (-a^2, 2ab, -b^2), a point where g vanishes.
                    i0 = 0 if not got[0, 0].is_zero() else 1
                    ea = (a * got)[i0, 0] / got[i0, 0]
                    eb = (b * got)[i0, 0] / got[i0, 0]
                    expected = triple(field, (-(ea * ea)).value, (ea * eb * 2).value, (-(eb * eb)).value)
                    assert invariants(pair) == expected
                    assert g_value(expected).is_zero()
        assert checked > 100


class TestReduceToQ:
    def test_canonical_sheet_is_fixed_point(self):
        field = GF(7)
        q = QForm(field(1), field(2), field(4))
        g, got = reduce_to_q(q.realize())
        assert got == q
        assert g.is_invertible()

    def test_conjugates_land_in_fiber(self):
        field = GF(7)
        rng = random.Random(73)
        q = QForm(field(1), field(2), field(4))
        y = invariants(q.realize())
        fiber = q_points(y)
        for _ in range(10):
            g0 = rand_invertible(field, 2, rng)
            pair = q.realize().conjugated_by(g0)
            g, got = reduce_to_q(pair)
            assert got in fiber
            assert invariants(pair.conjugated_by(g)) == y
            reduced = pair.conjugated_by(g)
            assert reduced == got.realize()

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
    def test_form_triple_is_pair_triple(self, field):
        """q.invariants(), which `pairs reduce` reports, is the triple of
        the pair it was reduced from."""
        rng = random.Random(79)
        q = QForm(field(1), field(1), field(1))
        assert q.invariants() == invariants(q.realize())
        for _ in range(5):
            pair = q.realize().conjugated_by(rand_invertible(field, 2, rng))
            _, got = reduce_to_q(pair)
            assert got.invariants() == invariants(pair)

    def test_char_two(self):
        field = GF(2)
        q = QForm(field(1), field(1), field(1))
        for g0 in invertible_matrices(field, 2):
            pair = q.realize().conjugated_by(g0)
            _, got = reduce_to_q(pair)
            assert got == q

    def test_not_in_y(self):
        pair = sl2(QQ, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(NotInY):
            reduce_to_q(pair)

    def test_missing_roots_one_error(self):
        # (4, 2, 6) lies in Y over GF(7), but -x1 = 3 is a non-residue.
        pair = sl2(GF(7), [[0, 1], [3, 0]], [[1, 0], [2, 6]])
        y = invariants(pair)
        assert y == triple(GF(7), 4, 2, 6)
        messages = set()
        for compute, arg in ((q_points, y), (reduce_to_q, pair), (common_eigenvector, pair)):
            with pytest.raises(RootsMissingInField) as info:
                compute(arg)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_every_gf3_pair_agrees_with_q_points(self):
        """For each of the 27 x 27 trace-zero pairs over GF(3), reduce_to_q
        lands in the fibre q_points lists, or both raise the same class."""
        field = GF(3)
        members = [
            Matrix(field, [[a, b], [c, -a]])
            for a in range(3) for b in range(3) for c in range(3)
        ]
        refused = set()
        for a in members:
            for b in members:
                pair = Sl2Pair(a, b)
                try:
                    points = q_points(invariants(pair))
                except MatcanonError as exc:
                    with pytest.raises(MatcanonError) as info:
                        reduce_to_q(pair)
                    assert type(info.value) is type(exc)
                    refused.add(type(exc))
                    continue
                assert reduce_to_q(pair)[1] in points
        assert refused == {NotInY, RootsMissingInField}

    def test_missing_intertwiner_is_a_basis_failure(self, monkeypatch):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        monkeypatch.setattr(matcanon.pairs, "intertwiners", lambda m, m2: [])
        with pytest.raises(BasisFailure, match="dimension 0"):
            reduce_to_q(pair)

    # The columns of g are eigenvectors of A (v1, scaled) and of B (w1),
    # both coordinate axes for this pair, so swapping the entries of one
    # gives the other axis, which is not an eigenvector; doubling v1 breaks
    # the superdiagonal 1 of q.
    @pytest.mark.parametrize("column, spoil", [
        (0, lambda x, y: (y, x)),
        (1, lambda x, y: (y, x)),
        (0, lambda x, y: (x * 2, y * 2)),
    ], ids=["swap-v1", "swap-w1", "double-v1"])
    def test_spoiled_eigenvector_fails_the_certificate(self, monkeypatch, column, spoil):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        intertwiners = matcanon.pairs.intertwiners

        def corrupt(m, m2):
            f = intertwiners(m, m2)[0]
            rows = [[f[i, j] for j in range(2)] for i in range(2)]
            rows[0][column], rows[1][column] = spoil(rows[0][column], rows[1][column])
            return [Matrix(field, rows)]

        monkeypatch.setattr(matcanon.pairs, "intertwiners", corrupt)
        with pytest.raises(BasisFailure, match="certificate"):
            reduce_to_q(pair)


# g of reduce_to_q and the vector of common_eigenvector as an independent
# construction gives them: g = [x*v1 | w1] from the eigenvector kernels of
# A for a11 and of B for -b11, each scaled to leading entry 1.
# (field, A, B, g): in the rows marked w1 = (0, 1) the second column of g
# starts with a zero, so its normalization skips past it.
PINNED_REDUCTIONS = [
    (GF(2), [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]]),
    (GF(2), [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 1], [1, 0]]),
    (GF(2), [[0, 1], [1, 0]], [[1, 0], [1, 1]], [[1, 0], [1, 1]]),  # w1 = (0, 1)
    (GF(7), [[6, 4], [0, 1]], [[1, 4], [6, 6]], [[4, 1], [2, 1]]),
    (GF(7), [[6, 4], [0, 1]], [[2, 0], [3, 5]], [[4, 0], [2, 1]]),  # w1 = (0, 1)
    (GF(7), [[1, 1], [0, 6]], [[2, 0], [4, 5]], [[1, 0], [0, 1]]),  # w1 = (0, 1)
    (QQ, [["16/11", "3/11"], ["-45/11", "-16/11"]], [["8/11", "-15/11"], ["-28/11", "-8/11"]],
     [[3, 1], [-5, 2]]),
    (QQ, [["-7/6", "5/18"], [-4, "7/6"]], [[3, "-11/4"], [0, -3]], [["-2/33", 1], ["-4/11", "24/11"]]),
    (QQ, [["1/2", "1/2"], ["3/2", "-1/2"]], [[2, 0], [10, -2]], [["1/2", 0], ["1/2", 1]]),  # w1 = (0, 1)
]

# (field, A, B, common eigenvector or None)
PINNED_EIGENVECTORS = [
    (GF(2), [[1, 1], [0, 1]], [[0, 1], [0, 0]], [1, 0]),
    (GF(7), [[3, 1], [0, 4]], [[2, 5], [0, 5]], [1, 0]),
    (GF(7), [[0, 0], [1, 0]], [[3, 0], [2, 4]], [0, 1]),
    (GF(7), [[3, 0], [1, 4]], [[4, 2], [1, 3]], [1, 6]),
    (QQ, [[2, 0], [1, -2]], [[-3, 0], [4, 3]], [0, 1]),
    (QQ, [[34, 77], [-15, -34]], [[89, 203], [-39, -89]], [1, "-3/7"]),
    (QQ, [[5, -12], [2, -5]], [[1, -3], [0, -1]], None),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize("field, a, b, g", PINNED_REDUCTIONS)
    def test_reduce_to_q(self, field, a, b, g):
        got, _ = reduce_to_q(sl2(field, a, b))
        assert got == Matrix(field, g)

    @pytest.mark.parametrize("field, a, b, v", PINNED_EIGENVECTORS)
    def test_common_eigenvector(self, field, a, b, v):
        got = common_eigenvector(sl2(field, a, b))
        assert got == (None if v is None else Matrix(field, [[x] for x in v]))


class TestHomDimension:
    def test_simple_endomorphisms(self):
        s = simple_pair(4, QQ)
        assert hom_dimension(s, s) == 1

    def test_zero_actions_size_one(self):
        z = PairPoint(Matrix(QQ, [[0]]), Matrix(QQ, [[0]]))
        assert hom_dimension(z, z) == 1

    def test_simple_versus_qform(self):
        field = QQ
        s = simple_pair(4, field)
        t = QForm(field(1), field(1), field(1)).realize()
        assert hom_dimension(s, t) == 0
        assert hom_dimension(t, s) == 0

    def test_diagonal_swap_oracle(self):
        """Hand oracle for End(S), S = (diag(1,2), swap): commuting with
        the diagonal forces diagonal f; commuting with the swap forces
        equal entries, so the space is the scalars."""
        field = QQ
        s = simple_pair(4, field)
        basis = intertwiners(s, s)
        assert len(basis) == 1
        f = basis[0]
        assert f[0, 1].is_zero() and f[1, 0].is_zero()
        assert f[0, 0] == f[1, 1]

    def test_additivity_over_direct_sums(self):
        field = GF(5)
        rng = random.Random(79)
        for _ in range(8):
            def rand_point(n):
                return PairPoint(
                    Matrix(field, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]),
                    Matrix(field, [[rng.randrange(5) for _ in range(n)] for _ in range(n)]),
                )
            m = rand_point(rng.randint(1, 3))
            m2 = rand_point(rng.randint(1, 3))
            m3 = rand_point(rng.randint(1, 3))
            assert hom_dimension(m, m2.direct_sum(m3)) == hom_dimension(m, m2) + hom_dimension(m, m3)
            assert hom_dimension(m2.direct_sum(m3), m) == hom_dimension(m2, m) + hom_dimension(m3, m)

    def test_intertwiners_satisfy_equations(self):
        field = GF(7)
        rng = random.Random(83)
        for _ in range(10):
            n, n2 = rng.randint(1, 3), rng.randint(1, 3)
            m = PairPoint(
                Matrix(field, [[rng.randrange(7) for _ in range(n)] for _ in range(n)]),
                Matrix(field, [[rng.randrange(7) for _ in range(n)] for _ in range(n)]),
            )
            m2 = PairPoint(
                Matrix(field, [[rng.randrange(7) for _ in range(n2)] for _ in range(n2)]),
                Matrix(field, [[rng.randrange(7) for _ in range(n2)] for _ in range(n2)]),
            )
            for f in intertwiners(m, m2):
                assert f * m.m1 == m2.m1 * f
                assert f * m.m2 == m2.m2 * f

    @pytest.mark.parametrize("p, n", [(2, 5), (7, 3), (10007, 12)])
    def test_spoiled_gfp_hom_map_is_a_basis_failure(self, monkeypatch, p, n):
        """Over GF(p) every map intertwiners returns is checked against both
        equations, one stacked product a side and member (packed at n = 12),
        by a raise, so under python -O too: a map of _hom_basis with one
        spoiled entry is a BasisFailure, in End(M), Hom(M (+) R, M) and
        Hom(M, M (+) R)."""
        field, rng = GF(p), random.Random(n)

        def point(size):
            return PairPoint(*(Matrix(field, [[rng.randrange(p) for _ in range(size)] for _ in range(size)])
                               for _ in "ab"))

        m, r = point(n), point(2)
        hom_basis = matcanon.pairs._hom_basis
        spoiled_maps = []

        def spoiled(field, *members):
            basis = hom_basis(field, *members)
            basis[-1][0] = field.add(basis[-1][0], field.one)
            spoiled_maps.append(basis[-1])
            return basis

        for source, target in ((m, m), (m.direct_sum(r), m), (m, m.direct_sum(r))):
            assert intertwiners(source, target)
            monkeypatch.setattr(matcanon.pairs, "_hom_basis", spoiled)
            with pytest.raises(BasisFailure, match="f\\*m_i = m2_i\\*f"):
                intertwiners(source, target)
            monkeypatch.undo()
            v, k = spoiled_maps[-1], source.size
            f = Matrix(field, [v[a * k:(a + 1) * k] for a in range(target.size)])
            assert (f * source.m1, f * source.m2) != (target.m1 * f, target.m2 * f)


def reference_cases(field):
    """(name, M, M2) with M and M2 of different sizes; each first member of
    M is of one kind, and M2 is random."""
    rng = random.Random(f"reference/{field}")
    p = field.characteristic

    def point(first, n):
        return PairPoint(first, rand_matrix(field, n, rng))

    def diagonal(n):
        return Matrix(field, [[rng.randrange(p or 5) if i == j else 0 for j in range(n)] for i in range(n)])

    jordan = Matrix(field, [[int(j == i + 1 and i != 1) for j in range(4)] for i in range(4)])
    split_n = 4 if p == 2 else 5
    conj = rand_invertible(field, split_n, rng)
    split = simple_pair(split_n, field).direct_sum(QForm(field(1), field(1), field(1)).realize())
    return [
        ("1x1", point(rand_matrix(field, 1, rng), 1), point(rand_matrix(field, 1, rng), 1)),
        ("1x1-2x2", point(rand_matrix(field, 1, rng), 1), point(rand_matrix(field, 2, rng), 2)),
        ("random", point(rand_matrix(field, 3, rng), 3), point(rand_matrix(field, 2, rng), 2)),
        ("zero", PairPoint(Matrix.zeros(field, 3, 3), Matrix.zeros(field, 3, 3)),
         point(rand_matrix(field, 2, rng), 2)),
        ("scalar", point(Matrix.identity(field, 3).scale(2), 3), point(rand_matrix(field, 4, rng), 4)),
        ("nilpotent", point(jordan, 4), point(rand_matrix(field, 3, rng), 3)),
        ("diagonal", point(diagonal(4), 4), point(rand_matrix(field, 3, rng), 3)),
        ("companion", point(companion(rand_monic(field, 4, rng)), 4), point(rand_matrix(field, 3, rng), 3)),
        ("split", split.conjugated_by(conj), simple_pair(split_n, field)),
        ("split-self", split.conjugated_by(conj), split),
    ]


REFERENCE_FIELDS = [GF(2), GF(3), GF(7), GF(10007), QQ]


def chain_count(field, a):
    """The number of chains of the unit-vector Krylov basis of a (raw rows)."""
    span = _Span(field)
    op = field.operator(a)
    return sum(1 for k in range(len(a)) if _chain(span, op, _unit(field, a, k)) is not None)


def generators(field, m):
    """The number of generators of the spin of the pair m."""
    return _spin(field, m.m1._rows, m.m2._rows)[1].count(None)


def diagonal_pair(field, entries, rng):
    """(diag(entries), a random matrix)."""
    n = len(entries)
    return PairPoint(Matrix(field, [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)]),
                     rand_matrix(field, n, rng))


class TestKrylovPath:
    """intertwiners solves for the images of the generators of a spin of
    one pair, a Krylov basis under both members; the full intertwiner
    system of tests/helpers.py is its reference."""

    @pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
    def test_equals_the_reference(self, field):
        for name, m, m2 in reference_cases(field):
            for source, target in ((m, m2), (m2, m), (m, m), (m2, m2)):
                assert intertwiners(source, target) == reference_intertwiners(source, target), name

    @pytest.mark.parametrize("field", REFERENCE_FIELDS[:4], ids=str)
    def test_orientation_rule(self, field, monkeypatch):
        """The pair with fewer generators is spun, the smaller one on equal
        counts and M on a tie: the transposed problem, the spin of M2^T
        with g' generators, is solved exactly when (g', n2) < (g, n).  Each
        orientation occurs, between pairs of equal and of unequal sizes."""
        spun = []
        spin_maps = matcanon.pairs._spin_maps

        def recording(field, spin, t1, t2):
            spun.append((len(spin[0]), len(t1)))
            return spin_maps(field, spin, t1, t2)

        monkeypatch.setattr(matcanon.pairs, "_spin_maps", recording)
        taken = set()
        for name, m, m2 in reference_cases(field):
            for source, target in ((m, m2), (m2, m), (m, m)):
                n, n2 = source.size, target.size
                g = generators(field, source)
                g2 = generators(field, PairPoint(target.m1.transpose(), target.m2.transpose()))
                transposed = (g2, n2) < (g, n)
                spun.clear()
                assert intertwiners(source, target) == reference_intertwiners(source, target), name
                assert spun == [(n2, n) if transposed else (n, n2)], name
                taken.add((transposed, n < n2, n > n2))
        # (transposed, n < n2, n > n2): the smaller pair spun either way,
        # and on equal sizes the one with fewer generators, M2^T or M.
        assert {(False, True, False), (True, False, True), (True, False, False), (False, False, False)} <= taken

    def test_spin_by_hand(self):
        """Oracle by hand over GF(7), s1 = [[0,1,0],[1,1,0],[0,0,3]].  e0 ->
        e1 -> e0 + e1 closes the first chain under s1.  With s2 the cyclic
        shift e0 -> e1 -> e2 -> e0, s2*e0 = e1 lies in the span, s2*e1 = e2
        does not and starts a chain, s1*e2 = 3*e2 ends it, and s2*e2 = e0:
        one generator.  With s2 the swap of e0 and e1, the span of e0 and
        e1 is closed under both members, so e2 is a second generator."""
        field = GF(7)
        s1 = [[0, 1, 0], [1, 1, 0], [0, 0, 3]]
        shift = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert _spin(field, s1, shift) == (units, [None, (0, 0), (1, 1)], [
            (0, 1, [1, 1, 0]),  # s1*b1 = b0 + b1
            (1, 0, [0, 1, 0]),  # s2*b0 = b1
            (0, 2, [0, 0, 3]),  # s1*b2 = 3*b2
            (1, 2, [1, 0, 0]),  # s2*b2 = b0
        ])
        assert _spin(field, s1, swap) == (units, [None, (0, 0), None], [
            (0, 1, [1, 1, 0]), (1, 0, [0, 1, 0]), (1, 1, [1, 0, 0]), (0, 2, [0, 0, 3]), (1, 2, [0, 0, 1]),
        ])
        for s2 in (shift, swap):
            m = PairPoint(Matrix(field, s1), Matrix(field, s2))
            assert intertwiners(m, m) == reference_intertwiners(m, m)

    @pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
    def test_generators_against_chains(self, field):
        """The simple pair spins from e1 alone, and no spin has more
        generators than its first member has unit-vector chains."""
        for size in (3, 4, 5):
            if not field.characteristic or size - 2 <= field.characteristic:
                assert generators(field, simple_pair(size, field)) == 1
        for name, m, m2 in reference_cases(field):
            for point in (m, m2):
                assert generators(field, point) <= chain_count(field, point.m1._rows), name

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_diagonal_first_members(self, n):
        """(diag(1..n), random) over GF(10007): every unit vector is an
        eigenvector of the first member, so it has n chains, and the spin
        has one generator."""
        field = GF(10007)
        rng = random.Random(f"diagonal/{n}")
        m = diagonal_pair(field, range(1, n + 1), rng)
        other = diagonal_pair(field, range(1, n + 1), rng)
        assert chain_count(field, m.m1._rows) == n and generators(field, m) == 1
        for source, target in ((m, m), (m, other), (other, m)):
            assert intertwiners(source, target) == reference_intertwiners(source, target)

    def test_repeated_diagonal_entries(self):
        """Diagonal first members over GF(3) repeat their entries."""
        field = GF(3)
        rng = random.Random("repeated")
        for n in (6, 8, 10):
            m = diagonal_pair(field, [rng.randrange(3) for _ in range(n)], rng)
            other = diagonal_pair(field, [k % 3 for k in range(n - 1)], rng)
            for source, target in ((m, m), (m, other), (other, m)):
                assert intertwiners(source, target) == reference_intertwiners(source, target)

    @pytest.mark.parametrize("field", [GF(7), GF(10007), QQ], ids=str)
    def test_direct_sums_of_several_generators(self, field):
        """S(4) (+) S(5) and S(3) (+) S(4) (+) S(5) of the simple pairs: no
        unit vector of one block reaches the others, so the spin has one
        generator per block."""
        rng = random.Random(f"sums/{field}")
        two = simple_pair(4, field).direct_sum(simple_pair(5, field))
        three = simple_pair(3, field).direct_sum(two)
        assert (generators(field, two), generators(field, three)) == (2, 3)
        other = PairPoint(rand_matrix(field, 5, rng), rand_matrix(field, 5, rng))
        for m in (two, three):
            for source, target in ((m, m), (m, two), (two, m), (m, other), (other, m)):
                assert intertwiners(source, target) == reference_intertwiners(source, target)

    @pytest.mark.parametrize("field", [GF(2), GF(10007), QQ], ids=str)
    def test_one_member_zero(self, field):
        rng = random.Random(f"zero/{field}")
        for n, n2 in ((4, 4), (5, 3), (3, 6)):
            zero = Matrix.zeros(field, n, n)
            points = [PairPoint(zero, rand_matrix(field, n, rng)), PairPoint(rand_matrix(field, n, rng), zero)]
            target = PairPoint(rand_matrix(field, n2, rng), Matrix.zeros(field, n2, n2))
            for m in points:
                for source, t in ((m, m), (m, target), (target, m)):
                    assert intertwiners(source, t) == reference_intertwiners(source, t)

    @pytest.mark.parametrize("field", [GF(3), GF(10007), QQ], ids=str)
    def test_sizes_apart(self, field):
        """n != n2: the simple pair S(5) against S(5) (+) X, X random of
        size 2 or 4, conjugated; Hom(S(5), M) is not zero."""
        rng = random.Random(f"sizes/{field}")
        s = simple_pair(5, field)
        for k in (2, 4):
            m = s.direct_sum(PairPoint(rand_matrix(field, k, rng), rand_matrix(field, k, rng)))
            m = m.conjugated_by(rand_invertible(field, m.size, rng))
            assert intertwiners(s, m)
            for source, target in ((s, m), (m, s)):
                assert intertwiners(source, target) == reference_intertwiners(source, target)

    def test_chains_of_unit_vectors(self):
        """Oracle by hand: e0 -> e1 -> e0 + e1 closes the first chain under
        a; e2 is outside its span and a*e2 = 3*e2."""
        field = GF(7)
        a = [[0, 1, 0], [1, 1, 0], [0, 0, 3]]
        span, basis, lengths, ends = _Span(field), [], [], []
        for k in range(3):
            iterates, m = _unit(field, a, k), len(span)
            if _chain(span, field.operator(a), iterates) is not None:
                length = len(span) - m
                basis += iterates[:length]
                lengths.append(length)
                ends.append(iterates[length])
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert lengths == [2, 1] and chain_count(field, a) == 2
        assert ends == [[1, 1, 0], [0, 0, 3]]

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            intertwiners(simple_pair(4, QQ), simple_pair(4, GF(7)))

    def test_spoiled_coordinates_end_in_basis_failure(self):
        """Under ``python -O``, maps read through wrong coordinates of the
        unit vectors end in BasisFailure: over GF(p) the Hom maps behind
        both pair changes of basis fail the check of intertwiners, and over
        Q no lift passes the exact check before the prime bound."""
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from matcanon import (GF, QQ, BasisFailure, Matrix, PairPoint, QForm, intertwiners,
                                  reduce_to_q, simple_pair, split_off_simple)
            if __debug__:
                sys.exit("not running under -O")

            def expect_failure(label, call, *args):
                try:
                    call(*args)
                except BasisFailure as exc:
                    print(label, "BasisFailure:", exc)
                else:
                    sys.exit(f"{label}: no BasisFailure")

            # B^-1, B the matrix of the spin basis, with every entry off by
            # one where the maps are read from it: its columns are the
            # coordinates of the unit vectors, and each map f is read as
            # F * B^-1 from the images F of the basis vectors.  The relations
            # keep their coordinates, so the spaces keep their dimensions
            # and only the maps are wrong.
            import matcanon.pairs as pairs
            spin_maps = pairs._spin_maps

            def spoiled(field, spin, t1, t2):
                images, b_inv = spin_maps(field, spin, t1, t2)
                return images, [[field.add(x, field.one) for x in row] for row in b_inv]

            pairs._spin_maps = spoiled
            field = GF(7)
            expect_failure("reduce", reduce_to_q, QForm(field(1), field(2), field(4)).realize())
            field = GF(11)
            tail = QForm(field(1), field(2), field(4)).realize()
            expect_failure("split", split_off_simple, simple_pair(4, field).direct_sum(tail))
            m = PairPoint(Matrix(QQ, [[1, 2], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [3, 1]]))
            expect_failure("hom over Q", intertwiners, m, m)
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons = dict(line.split(" BasisFailure: ") for line in proc.stdout.splitlines())
        assert list(reasons) == ["reduce", "split", "hom over Q"], proc.stdout
        assert reasons["reduce"] == reasons["split"] == "a Hom map fails f*m_i = m2_i*f"
        assert "prime bound" in reasons["hom over Q"]


def solved_relations(monkeypatch, m, m2):
    """intertwiners(m, m2), and for each call of _spin_maps (one per prime
    over Q) its spin, the widths of the residuals it eliminated (one per
    relation with a nonzero residual once the kernel has at most n2
    columns) and the rows it added to the echelon form (n2 per relation
    read while the kernel is wider)."""
    calls = []
    spin_maps, echelon, span = matcanon.pairs._spin_maps, matcanon.pairs._echelon, matcanon.pairs._Span

    def recording(field, spin, t1, t2):
        widths, added = [], []
        calls.append((spin, widths, added))

        class CountingSpan(span):
            def add(self, v):
                added.append(len(v))
                return super().add(v)

        monkeypatch.setattr(matcanon.pairs, "_echelon", lambda f, rows: widths.append(len(rows[0])) or echelon(f, rows))
        monkeypatch.setattr(matcanon.pairs, "_Span", CountingSpan)
        try:
            return spin_maps(field, spin, t1, t2)
        finally:
            monkeypatch.setattr(matcanon.pairs, "_echelon", echelon)
            monkeypatch.setattr(matcanon.pairs, "_Span", span)

    monkeypatch.setattr(matcanon.pairs, "_spin_maps", recording)
    return intertwiners(m, m2), calls


STRESS_FIELDS = [GF(2), GF(3), GF(10007), QQ]


class TestRelationByRelation:
    """_spin_maps solves one relation at a time: in an echelon form while
    the kernel is wider than n2 columns, then on the images of the basis.
    Cases beyond the range of reference_cases, each against
    reference_intertwiners; over Q at n <= 6."""

    @pytest.mark.parametrize("field", STRESS_FIELDS, ids=str)
    def test_zero_and_scalar_pairs(self, field):
        """Every n2 x n map is an intertwiner: dimension n^2, with n
        generators for the zero pair and no relation that cuts the kernel."""
        for n in (8, 12) if field.characteristic else (4, 6):
            zero = Matrix.zeros(field, n, n)
            one = Matrix.identity(field, n)
            for m in (PairPoint(zero, zero), PairPoint(one.scale(2), one.scale(3))):
                maps = intertwiners(m, m)
                assert len(maps) == n * n and maps == reference_intertwiners(m, m)

    @pytest.mark.parametrize("field", STRESS_FIELDS, ids=str)
    def test_three_copies(self, field, monkeypatch):
        """P (+) P (+) P for a random pair P of size 4 (2 over Q): g = 3 and
        dimension 9.  Over GF(p), with n2 = 12, the kernel crosses from
        36 columns to at most 12 partway through the relations; over Q,
        Hom(P (+) P, P (+) S) with S random of size 3 does."""
        rng = random.Random(f"three/{field}")
        k = 4 if field.characteristic else 2
        p = PairPoint(rand_matrix(field, k, rng), rand_matrix(field, k, rng))
        three = p.direct_sum(p).direct_sum(p)
        assert generators(field, three) == 3
        maps = intertwiners(three, three)
        assert len(maps) == 9 and maps == reference_intertwiners(three, three)
        source, target = (three, three) if field.characteristic else (
            p.direct_sum(p), p.direct_sum(PairPoint(rand_matrix(field, 3, rng), rand_matrix(field, 3, rng))))
        maps, calls = solved_relations(monkeypatch, source, target)
        assert maps and maps == reference_intertwiners(source, target)
        n2 = target.size
        for spin, widths, added in calls:
            assert spin[1].count(None) > 1 and 0 < len(added) // n2 < len(spin[2]) and len(widths) < len(spin[2])

    def test_words_are_packed_once(self, monkeypatch):
        """Three copies of a random 4 x 4 pair over GF(10007) (g = 3,
        n2 = 12): while the kernel is wider than n2 columns, each relation
        sums c_k*P_k, c masked to each generator's block, on one operator
        over the words it reads, packed again only when it reads more, so
        no product takes one row against the 144 entries of the words, and
        each of the 12 words is packed as a line once."""
        field = GF(10007)
        rng = random.Random(f"three/{field}")
        p = PairPoint(rand_matrix(field, 4, rng), rand_matrix(field, 4, rng))
        three = p.direct_sum(p).direct_sum(p)
        expected = reference_intertwiners(three, three)
        shapes, lines = [], []
        product, line = PrimeField.product, matcanon.fields._line
        monkeypatch.setattr(PrimeField, "product",
                            lambda self, rows, cols: shapes.append((len(rows), len(cols))) or product(self, rows, cols))
        monkeypatch.setattr(matcanon.fields, "_line",
                            lambda values, layout: lines.append(len(values)) or line(values, layout))
        maps = intertwiners(three, three)
        assert len(maps) == 9 and maps == expected
        assert (1, 144) not in shapes and lines.count(144) == 12

    def test_words_after_the_first_relation_have_one_column(self, monkeypatch):
        """Hom(S, M) over GF(10007), S = S(10) and M a conjugate of
        S (+) T (n2 = 12): the spin of S starts with (s1 - 1)*b_0 = 0, which
        cuts K to one column, so the lhs t_1*Q_0 of that relation is the
        only product by a member of M with n2 columns; each later lhs and
        each word Q_k = t_i*Q_j is one matrix-vector product, and no
        product of n2 x n2 words is formed."""
        field = GF(10007)
        s = simple_pair(12, field)
        # T's first member has the eigenvalues 20 and -20, none of s1's.
        m = s.direct_sum(QForm(field(20), field(2), field(4)).realize()).conjugated_by(
            rand_invertible(field, 12, random.Random("one column")))
        expected = reference_intertwiners(s, m)
        applied, shapes = [], []
        operator, product = PrimeField.operator, PrimeField.product

        def counting(self, rows):
            op, shape = operator(self, rows), (len(rows), len(rows[0]))
            return lambda v: applied.append(shape) or op(v)

        monkeypatch.setattr(PrimeField, "operator", counting)
        monkeypatch.setattr(PrimeField, "product",
                            lambda self, rows, cols: shapes.append((len(rows), len(cols))) or product(self, rows, cols))
        assert intertwiners(s, m) == expected and len(expected) == 1
        basis, _, relations = _spin(field, s.m1._rows, s.m2._rows)
        assert relations[0][:2] == (0, 0)
        assert applied.count((12, 12)) == 12 + (len(relations) - 1) + (len(basis) - 1)
        assert (12, 12) not in shapes

    @pytest.mark.parametrize("n", [16, 24])
    def test_orientations_agree(self, n, monkeypatch):
        """Over GF(10007), beyond the reference's range: intertwiners(M, M2)
        and the transposes of intertwiners(M2^T, M^T) span one space (equal
        reduced echelon forms of the maps read row by row), for two
        conjugates of S(n-2) (+) T and for End of (diag(1..n), random).  The
        two calls spin different pairs, M and M2^T."""
        field = GF(10007)
        rng = random.Random(f"orientations/{n}")
        split = simple_pair(n, field).direct_sum(QForm(field(1), field(2), field(4)).realize())
        diagonal = diagonal_pair(field, range(1, n + 1), rng)
        # (M, M2, dim Hom): S(n-2) and T are simple and not isomorphic.
        cases = [(*(split.conjugated_by(rand_invertible(field, n, rng)) for _ in range(2)), 2), (diagonal, diagonal, 1)]
        spun = []
        spin_maps = matcanon.pairs._spin_maps
        monkeypatch.setattr(matcanon.pairs, "_spin_maps",
                            lambda field, spin, t1, t2: spun.append(spin[0]) or spin_maps(field, spin, t1, t2))

        def transposed(m):
            return PairPoint(m.m1.transpose(), m.m2.transpose())

        def canonical(maps):
            rows = [[x for row in f._rows for x in row] for f in maps]
            gauss_jordan(field, rows)
            return rows

        for m, m2, dim in cases:
            spun.clear()
            maps = intertwiners(m, m2)
            back = [f.transpose() for f in intertwiners(transposed(m2), transposed(m))]
            assert len(maps) == dim and canonical(maps) == canonical(back)
            assert len(spun) == 2 and spun[0] != spun[1]

    @pytest.mark.parametrize("n", [24, 48])
    def test_split_beyond_brute_force(self, n):
        """split_off_simple over GF(10007) on a conjugate of S(n-2) (+) T:
        Hom dimensions (1, 1), and a basis h, invertible by Gauss-Jordan,
        with m_i*h = h*(s_i (+) t_i) for a tail t with the triple of T."""
        field = GF(10007)
        t = QForm(field(3), field(5), field(7)).realize()
        s = simple_pair(n, field)
        m = s.direct_sum(t).conjugated_by(rand_invertible(field, n, random.Random(f"split/{n}")))
        assert (hom_dimension(s, m), hom_dimension(m, s)) == (1, 1)
        tail, h = split_off_simple(m)
        target = s.direct_sum(tail)
        assert reference_inverse(h) is not None
        assert m.m1 * h == h * target.m1 and m.m2 * h == h * target.m2
        assert invariants(Sl2Pair(tail.m1, tail.m2)) == invariants(t)

    @pytest.mark.parametrize("field, n", [(field, n) for field in STRESS_FIELDS[:3] for n in (12, 16)] + [(QQ, 6)],
                             ids=str)
    def test_diagonal_first_members(self, field, n):
        """(diag(1..n), random): n chains of the first member, one
        generator; over GF(2) and GF(3) the diagonal repeats its entries."""
        m = diagonal_pair(field, range(1, n + 1), random.Random(f"diagonal/{field}/{n}"))
        assert intertwiners(m, m) == reference_intertwiners(m, m)

    @pytest.mark.parametrize("field", STRESS_FIELDS, ids=str)
    def test_kernel_empties_partway(self, field, monkeypatch):
        """Two random pairs of one size: Hom is zero, and the kernel is
        empty before the last relation."""
        rng = random.Random(f"apart/{field}")
        n = 8 if field.characteristic else 5
        m, m2 = (PairPoint(rand_matrix(field, n, rng), rand_matrix(field, n, rng)) for _ in range(2))
        maps, calls = solved_relations(monkeypatch, m, m2)
        assert maps == [] == reference_intertwiners(m, m2)
        assert all(len(widths) < len(spin[2]) for spin, widths, _ in calls)

    @pytest.mark.parametrize("field", STRESS_FIELDS, ids=str)
    def test_unequal_sizes(self, field):
        """M = P (+) R conjugated and P, sizes 5 + 3 and 5 (4 + 2 and 4 over
        Q): Hom is not zero in either direction."""
        rng = random.Random(f"unequal/{field}")
        k, r = (5, 3) if field.characteristic else (4, 2)
        p = PairPoint(rand_matrix(field, k, rng), rand_matrix(field, k, rng))
        m = p.direct_sum(PairPoint(rand_matrix(field, r, rng), rand_matrix(field, r, rng)))
        m = m.conjugated_by(rand_invertible(field, k + r, rng))
        for source, target in ((m, p), (p, m)):
            maps = intertwiners(source, target)
            assert maps and maps == reference_intertwiners(source, target)

    def test_spoiled_inverse_is_a_basis_failure(self):
        """Under ``python -O``, a spoiled Matrix.inverse fails the check
        B*B^-1 = I of the spin basis before any coordinate is read: a
        BasisFailure over GF(p) and over Q, where every prime refuses, and
        from split_off_simple, not a Hom too small or NotInW."""
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction
            from matcanon import GF, QQ, BasisFailure, Matrix, PairPoint, QForm, intertwiners
            from matcanon import simple_pair, split_off_simple
            if __debug__:
                sys.exit("not running under -O")

            def expect_failure(label, call, *args):
                try:
                    call(*args)
                except BasisFailure as exc:
                    print(label, "BasisFailure:", exc)
                else:
                    sys.exit(f"{label}: no BasisFailure")

            inverse = Matrix.inverse

            def spoiled(self):  # every entry off by one
                field = self.field
                return Matrix._raw(field, [[field.add(x, field.one) for x in row] for row in inverse(self)._rows])

            Matrix.inverse = spoiled
            m = PairPoint(Matrix(GF(7), [[1, 2], [0, 1]]), Matrix(GF(7), [[4, 0], [3, 1]]))
            expect_failure("hom over GF(7)", intertwiners, m, m)
            m = PairPoint(Matrix(QQ, [[1, 2], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [3, 1]]))
            expect_failure("hom over Q", intertwiners, m, m)
            field = GF(11)
            tail = QForm(field(1), field(2), field(4)).realize()
            expect_failure("split", split_off_simple, simple_pair(4, field).direct_sum(tail))
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons = dict(line.split(" BasisFailure: ") for line in proc.stdout.splitlines())
        assert list(reasons) == ["hom over GF(7)", "hom over Q", "split"], proc.stdout
        assert all("inverse" in reason for reason in reasons.values()), proc.stdout


    def test_spoiled_packed_span_is_a_basis_failure(self):
        """Under ``python -O``, a packed _Span whose stored lines are not its
        rows ends in BasisFailure over GF(10007) (32-bit slots), not in
        SingularMatrix or a wrong answer: from intertwiners, End of
        S(n-4) (+) T for n = 8 and 10, and from split_off_simple on
        conjugates of S(n-4) (+) T for n = 10 and 12, whose Homs spin the
        simple pair S(n-4) on unit vectors, packed from size 5 on.  A line
        one off in the slot after its pivot spins a dependent basis.  A line
        packed before its row was scaled to 1 at the pivot leaves the pivot
        slot nonzero, which the span refuses once it holds the whole space:
        the Krylov span of End, and in split, where the unit vectors of the
        spin need no scaling, the kernel of a residual, whose rows the
        conjugation makes dense.  Over GF(2) (byte slots, reduced by
        bytes.translate), the End of a random pair, n = 8 and 10, with a
        line one off leaves a vector outside the whole space."""
        script = textwrap.dedent("""
            import random, resource, sys
            import matcanon.matrix as matrix
            from matcanon import GF, BasisFailure, Matrix, PairPoint, QForm, intertwiners, simple_pair, split_off_simple
            if __debug__:
                sys.exit("not running under -O")
            resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

            def expect_failure(label, call, *args):
                try:
                    call(*args)
                except BasisFailure as exc:
                    print(label, "BasisFailure:", exc)
                else:
                    sys.exit(f"{label}: no BasisFailure")

            add = matrix._Span.add

            def off_slot(span, v):
                steps = add(span, v)
                if steps is None and span.lines and span.pivots[-1] + 1 < len(v):
                    span.lines[-1] += 1 << span.layout[0] * (span.pivots[-1] + 1)
                return steps

            def unscaled(span, v):
                steps = add(span, v)
                if steps is None and span.lines:
                    field = span.field
                    s = field.inv(span.made[-1][0])
                    span.lines[-1] = matrix._line([field.mul(x, s) for x in span.rows[-1]], span.layout)
                return steps

            field = GF(10007)
            tail = QForm(field(1), field(2), field(4)).realize()
            rng = random.Random(1)
            homs = {n: simple_pair(n - 2, field).direct_sum(tail) for n in (8, 10)}
            splits = {n: simple_pair(n - 2, field).direct_sum(tail).conjugated_by(Matrix(
                field, [[rng.randrange(field.p) for _ in range(n - 2)] for _ in range(n - 2)])) for n in (10, 12)}
            for spoil in (off_slot, unscaled):
                matrix._Span.add = spoil
                for n, m in homs.items():
                    expect_failure(f"hom {spoil.__name__} {n}", intertwiners, m, m)
                for n, m in splits.items():
                    expect_failure(f"split {spoil.__name__} {n}", split_off_simple, m)
            rng = random.Random(1)
            matrix._Span.add = off_slot
            for n in (8, 10):
                m = PairPoint(*(Matrix(GF(2), [[rng.randrange(2) for _ in range(n)] for _ in range(n)]) for _ in "ab"))
                expect_failure(f"hom off_slot GF(2) {n}", intertwiners, m, m)
            matrix._Span.add = add
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons = dict(line.split(" BasisFailure: ") for line in proc.stdout.splitlines())
        assert len(reasons) == 10, proc.stdout
        assert all("singular" in reason for label, reason in reasons.items()
                   if "off_slot" in label and "GF(2)" not in label), proc.stdout
        assert all("outside a span" in reasons[f"hom off_slot GF(2) {n}"] for n in (8, 10)), proc.stdout
        assert all("outside a span" in reason for label, reason in reasons.items() if "unscaled" in label), proc.stdout


def hom_primes_used(monkeypatch, m, m2):
    """intertwiners(m, m2) over Q, the indices of the primes tried and the
    primes that _hom_basis ran modulo: those of the sequence for the width
    of its maps, ``_prime(i, m.size * m2.size)``."""
    used, ran = [], []
    hom_basis = matcanon.pairs._hom_basis

    def recording_prime(i, width=None):
        assert width == m.size * m2.size
        used.append(i)
        return _prime(i, width)

    def recording_basis(field, *members):
        ran.append(field.characteristic)
        return hom_basis(field, *members)

    monkeypatch.setattr(matcanon.matrix, "_prime", recording_prime)
    monkeypatch.setattr(matcanon.pairs, "_hom_basis", recording_basis)
    return intertwiners(m, m2), used, ran


class TestRationalLift:
    """Over Q the Hom basis is lifted from runs modulo primes; bad primes
    must not change it.  A Hom of maps with w entries runs modulo
    _prime(i, w), so each bad prime is one of the sequence of its width."""

    def test_prime_dividing_a_denominator_is_skipped(self, monkeypatch):
        def pair(p):
            return PairPoint(Matrix(QQ, [[Fraction(1, p), 1], [0, 2]]), Matrix(QQ, [[0, 1], [1, 0]]))

        m2 = PairPoint(Matrix(QQ, [[1]]), Matrix(QQ, [[1]]))
        # Maps of 2 x 2 entries between two copies, of 2 x 1 and 1 x 2 with m2.
        for p, (source, target) in ((_prime(0, 4), (pair(_prime(0, 4)),) * 2),
                                    (_prime(0, 2), (pair(_prime(0, 2)), m2)),
                                    (_prime(0, 2), (m2, pair(_prime(0, 2))))):
            got, used, ran = hom_primes_used(monkeypatch, source, target)
            assert got == reference_intertwiners(source, target)
            assert used[0] == 0 and p not in ran and len(ran) == len(used) - 1

    def test_shifted_pivots_do_not_change_the_basis(self, monkeypatch):
        # Hom((0, 0), (t1, 0)) is the kernel of t1, spanned by (1, p0) over
        # Q, so its map is 1/p0 over 1; modulo p0 it is (1, 0), 1 at another
        # entry.  Its maps have 2 x 1 entries.
        p0 = _prime(0, 2)
        m = PairPoint(Matrix(QQ, [[0]]), Matrix(QQ, [[0]]))
        m2 = PairPoint(Matrix(QQ, [[p0, -1], [0, 0]]), Matrix.zeros(QQ, 2, 2))
        got, used, ran = hom_primes_used(monkeypatch, m, m2)
        assert got == reference_intertwiners(m, m2) == [Matrix(QQ, [[Fraction(1, p0)], [1]])]
        assert ran[0] == p0 and len(ran) > 2

    def test_larger_space_modulo_a_prime_does_not_change_the_basis(self, monkeypatch):
        # t1 = diag(p0, 1) has no kernel over Q, but one modulo p0.
        p0 = _prime(0, 2)
        m = PairPoint(Matrix(QQ, [[0]]), Matrix(QQ, [[0]]))
        m2 = PairPoint(Matrix(QQ, [[p0, 0], [0, 1]]), Matrix.zeros(QQ, 2, 2))
        got, used, ran = hom_primes_used(monkeypatch, m, m2)
        assert got == reference_intertwiners(m, m2) == []
        assert ran == [p0, _prime(1, 2)]

    @pytest.mark.parametrize("n", [12, 16])
    def test_split_instances_beyond_brute_force(self, n):
        """M = S(n-2) (+) T, T a Q-form pair, conjugated by a random g over
        Q.  Hom(M, T) and Hom(T, M) match the Gauss-Jordan kernel of their
        systems.  That of End(M) is too large for it here, so End(M) is
        matched against the span of g^-1*E*g for the projections E onto
        S(n-2) and T: both are simple, with endomorphisms Q, and not
        isomorphic, so these span End(M), and its basis, 1 at the last
        nonzero entry of each map read row by row and 0 at those of the
        others, is the reduced echelon form of the reversed maps."""
        rng = random.Random(f"beyond/{n}")
        t = QForm(QQ(rng.randint(1, 5)), QQ(rng.randint(1, 5)), QQ(rng.randint(1, 5))).realize()
        g = rand_invertible(QQ, n, rng)
        m = simple_pair(n, QQ).direct_sum(t).conjugated_by(g)
        for source, target in ((m, t), (t, m)):
            assert intertwiners(source, target) == reference_intertwiners(source, target) != []
        gi = g.inverse()
        reversed_maps = []
        for start, stop in ((0, n - 2), (n - 2, n)):
            e = Matrix(QQ, [[int(i == j and start <= i < stop) for j in range(n)] for i in range(n)])
            reversed_maps.append([x for row in (gi * e * g)._rows for x in row][::-1])
        assert len(gauss_jordan(QQ, reversed_maps)) == 2  # reduces them in place
        expected = [Matrix._raw(QQ, [v[::-1][a * n:(a + 1) * n] for a in range(n)])
                    for v in reversed(reversed_maps)]
        assert intertwiners(m, m) == expected

    def test_hadamard_square_matches_the_reference(self):
        """The limit of the lift is unchanged by the per-line sums: the
        same integer as the equations scaled one by one, on random pairs of
        sizes 1 to 5 with zeros, integers, shared and large denominators."""
        rng = random.Random(1501)
        denominators = [1, 1, 2, 3, 6, 7, 2 ** 40 + 15, 10 ** 12 + 39]

        def member(n):
            return Matrix(QQ, [[Fraction(rng.randint(-50, 50) * rng.randint(0, 1),
                                         rng.choice(denominators)) for _ in range(n)]
                               for _ in range(n)])

        for _ in range(100):
            n, n2 = rng.randint(1, 5), rng.randint(1, 5)
            m = PairPoint(member(n), member(n))
            m2 = PairPoint(member(n2), member(n2))
            for source, target in ((m, m2), (m2, m), (m, m)):
                assert prod(matcanon.pairs._hadamard_factors(source, target)) == (
                    reference_hadamard_square(source, target))

    def test_refused_lift_is_a_basis_failure_at_the_limit(self, monkeypatch):
        """With every lift refused, the primes stop at the first product past
        2^bits, the guard, which is past 4*H^6, H^2 the product of
        max(1, |row|^2) over the rows of the intertwiner system scaled to
        integers, by at most 3 bits a row."""
        m = PairPoint(Matrix(QQ, [[1, 2], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [3, 1]]))
        system = intertwiner_system(m, m)._rows
        h2 = 1
        for row in system:
            scale = lcm(*(x.denominator for x in row))
            h2 *= max(1, sum((x * scale) ** 2 for x in row))
        limits, tried = [], []
        lift = matcanon.matrix._modular_lift

        def refusing(image, accept, limit, width=None):
            def guard():
                limits.append(limit())
                return limits[-1]

            def counted(p):
                tried.append(p)
                return image(p)

            return lift(counted, lambda key, values, bound: None, guard, width)

        monkeypatch.setattr(matcanon.matrix, "_modular_lift", refusing)
        with pytest.raises(BasisFailure):
            intertwiners(m, m)
        assert len(limits) == 1 and 4 * h2 ** 3 < 1 << limits[0] <= 4 * h2 ** 3 * 8 ** len(system)
        product = 1
        for p in tried[:-1]:
            product *= p
        assert product < 1 << limits[0] <= product * tried[-1]

    def test_lift_at_the_first_prime_never_computes_the_guard(self, monkeypatch):
        """The guard on the primes, a bit count past 4*H^6, is computed only
        once a second prime is needed: these Homs lift at the first."""
        def unread(m, m2):
            raise AssertionError("_hadamard_factors was called")

        m = PairPoint(Matrix(QQ, [[Fraction(1, 2), 1], [0, -3]]), Matrix(QQ, [[Fraction(-2, 3), 0], [5, 1]]))
        r = PairPoint(Matrix(QQ, [[Fraction(7, 4)]]), Matrix(QQ, [[-1]]))
        q = QForm(QQ(Fraction(1, 2)), QQ(3), QQ(-1)).realize()
        for source, target in ((m, m), (m, m.direct_sum(r)), (m.direct_sum(r), m), (q, q), (r, m)):
            expected = reference_intertwiners(source, target)
            monkeypatch.setattr(matcanon.pairs, "_hadamard_factors", unread)
            got, used, _ = hom_primes_used(monkeypatch, source, target)
            monkeypatch.undo()
            assert got == expected and used == [0]

    def test_spoiled_q_intertwiner_is_a_basis_failure(self, monkeypatch):
        """A lifted map with one spoiled entry fails the integer check of
        every lift, so the primes end at the guard in BasisFailure; under
        python -O too."""
        unit_basis = matcanon.matrix._unit_basis

        def spoiled(ncols, pivots, entries):
            basis = unit_basis(ncols, pivots, entries)
            basis[0][pivots[0]] += Fraction(1, 3)
            return basis

        m = PairPoint(Matrix(QQ, [[1, 2], [0, 1]]), Matrix(QQ, [[Fraction(1, 2), 0], [3, 1]]))
        r = PairPoint(Matrix(QQ, [[2]]), Matrix(QQ, [[Fraction(-1, 3)]]))
        monkeypatch.setattr(matcanon.matrix, "_unit_basis", spoiled)
        for source, target in ((m, m), (m, m.direct_sum(r)), (m.direct_sum(r), m)):
            with pytest.raises(BasisFailure, match="prime bound"):
                intertwiners(source, target)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_check_matches_fraction_products(self, data):
        """_intertwines on the members over one denominator each says what
        f*m_i == m2_i*f says in Fractions: random pairs with mixed and
        negative denominators, n != n2, zero maps, maps from a conjugation
        into a direct sum and those maps spoiled."""
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        entry = st.builds(Fraction, st.integers(-20, 20),
                          st.sampled_from([1, 1, 2, -3, 6, -7, 2 ** 40 + 15]))

        def matrix(rows, cols):
            return Matrix(QQ, data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                                 min_size=rows, max_size=rows)))

        m = PairPoint(matrix(n, n), matrix(n, n))
        kind = data.draw(st.sampled_from(["random", "zero", "conjugate", "spoiled"]))
        if kind in ("random", "zero"):
            m2 = PairPoint(matrix(n + k, n + k), matrix(n + k, n + k))
            f = matrix(n + k, n) if kind == "random" else Matrix.zeros(QQ, n + k, n)
        else:
            g = matrix(n, n)
            assume(g.is_invertible())
            m2 = m.conjugated_by(g)
            f = g.inverse()
            if k:
                m2 = m2.direct_sum(PairPoint(matrix(k, k), matrix(k, k)))
                f = Matrix(QQ, [list(row) for row in f._rows] + [[0] * n for _ in range(k)])
            f = f.scale(data.draw(entry.filter(bool)))
            if kind == "spoiled":
                i, j = data.draw(st.integers(0, n + k - 1)), data.draw(st.integers(0, n - 1))
                rows = [list(row) for row in f._rows]
                rows[i][j] += data.draw(entry.filter(bool))
                f = Matrix(QQ, rows)
        expected = f * m.m1 == m2.m1 * f and f * m.m2 == m2.m2 * f
        assert expected or kind in ("random", "spoiled")
        _, ints = _over_one_denominator(f._rows)
        scaled = [_over_one_denominator(a._rows) for a in (m.m1, m.m2, m2.m1, m2.m2)]
        assert _intertwines(ints, scaled[:2], scaled[2:]) == expected


class TestSimplePair:
    def test_construction(self):
        s = simple_pair(4, QQ)
        assert s.m1 == Matrix(QQ, [[1, 0], [0, 2]])
        assert s.m2 == Matrix(QQ, [[0, 1], [1, 0]])

    def test_small_field_boundary(self):
        s = simple_pair(4, GF(2))  # diagonal 1, 2 = 1, 0: still distinct
        assert s.m1 == Matrix(GF(2), [[1, 0], [0, 0]])
        assert hom_dimension(s, s) == 1

    def test_degenerate_diagonal(self):
        with pytest.raises(DegenerateDiagonal):
            simple_pair(5, GF(2))

    def test_too_small(self):
        with pytest.raises(DimensionMismatch):
            simple_pair(2, QQ)

    @pytest.mark.parametrize("n,field", [(3, QQ), (4, QQ), (5, QQ), (6, GF(11)), (5, GF(5))])
    def test_simplicity_witness(self, n, field):
        s = simple_pair(n, field)
        assert hom_dimension(s, s) == 1


class TestSplitOff:
    def qform_point(self, field, a, b, c):
        return QForm(field(a), field(b), field(c)).realize()

    def test_block_diagonal_fixed_point(self):
        field = GF(11)
        s = simple_pair(4, field)
        t = self.qform_point(field, 1, 2, 4)
        m = s.direct_sum(t)
        tail, h = split_off_simple(m)
        assert invariants(Sl2Pair(tail.m1, tail.m2)) == invariants(Sl2Pair(t.m1, t.m2))
        hi = h.inverse()
        for mi, si, ti in ((m.m1, s.m1, tail.m1), (m.m2, s.m2, tail.m2)):
            c = hi * mi * h
            assert submatrix(c, 0, 2, 0, 2) == si
            assert submatrix(c, 2, 4, 2, 4) == ti
            assert submatrix(c, 0, 2, 2, 4).is_zero()
            assert submatrix(c, 2, 4, 0, 2).is_zero()

    def test_conjugated_instances(self):
        field = GF(11)
        rng = random.Random(89)
        s = simple_pair(4, field)
        for _ in range(10):
            t = self.qform_point(field, rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 10)) \
                if False else None
            # rejection-sample a valid QForm triple
            while True:
                a, b, c = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 10)
                if (4 * a * b + c) % 11 != 0:
                    break
            t = self.qform_point(field, a, b, c)
            g0 = rand_invertible(field, 4, rng)
            m = s.direct_sum(t).conjugated_by(g0)
            tail, h = split_off_simple(m)
            assert invariants(Sl2Pair(tail.m1, tail.m2)) == invariants(Sl2Pair(t.m1, t.m2))
            # the tail is genuinely conjugate to t (exhaustive 2x2 witness)
            assert simultaneously_similar(tail, t) is not None
            # the split-off tail commutes with nothing from s: Hom vanishes
            assert hom_dimension(s, tail) == 0
            assert hom_dimension(tail, s) == 0

    def test_corrupt_basis_fails_the_certificate(self, monkeypatch):
        field = GF(11)
        m = simple_pair(4, field).direct_sum(self.qform_point(field, 1, 2, 4))
        leading_one = matcanon.pairs._leading_one

        def corrupt(x):
            x = leading_one(x)
            if x.nrows > x.ncols:  # f, whose columns open the basis: spoil one entry
                x = x + Matrix.from_columns(field, [[0, 0, 0, 1], [0, 0, 0, 0]])
            return x

        monkeypatch.setattr(matcanon.pairs, "_leading_one", corrupt)
        with pytest.raises(BasisFailure, match="certificate"):
            split_off_simple(m)

    def test_certificates_take_one_rank(self, monkeypatch):
        """split_off_simple and reduce_to_q certify both members against
        their basis with one rank of it."""
        field = GF(11)
        m = simple_pair(4, field).direct_sum(self.qform_point(field, 1, 2, 4))
        m = m.conjugated_by(rand_invertible(field, 4, random.Random(5)))
        pair = self.qform_point(field, 1, 2, 4)
        ranks = []
        rank = Matrix.rank
        monkeypatch.setattr(Matrix, "rank", lambda self: ranks.append(self) or rank(self))
        _, h = split_off_simple(m)
        g, _ = reduce_to_q(pair)
        assert ranks == [h, g]

    def test_extra_copy_rejected(self):
        field = GF(11)
        s = simple_pair(4, field)
        m = s.direct_sum(s)
        with pytest.raises(NotInW):
            split_off_simple(m)

    def test_degenerate_composite(self):
        """A non-split self-extension of the simple pair has Hom gates 1, 1
        but zero composite."""
        field = GF(11)
        m1 = Matrix(field, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        m2 = Matrix(field, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        m = PairPoint(m1, m2)
        s = simple_pair(4, field)
        assert hom_dimension(s, m) == 1 and hom_dimension(m, s) == 1
        with pytest.raises(DegenerateComposite):
            split_off_simple(m)
