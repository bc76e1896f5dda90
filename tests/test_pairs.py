"""Trace-zero 2x2 pairs: invariants, fibres, reduction, Hom, splitting."""

import random

import pytest

import matcanon.pairs
from matcanon import (
    GF,
    QQ,
    BasisFailure,
    DegenerateComposite,
    DegenerateDiagonal,
    DimensionMismatch,
    EigenvaluesMissingInField,
    InvariantTriple,
    Matrix,
    NotInW,
    NotInY,
    PairPoint,
    QForm,
    RootsMissingInField,
    Sl2Pair,
    TraceNonzero,
    common_eigenvector,
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

from helpers import rand_invertible


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
        with pytest.raises(EigenvaluesMissingInField):
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
                except EigenvaluesMissingInField:
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

    def test_missing_eigenvector_is_a_basis_failure(self, monkeypatch):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        monkeypatch.setattr(matcanon.pairs, "_eigenvector_raw", lambda m, lam: None)
        with pytest.raises(BasisFailure):
            reduce_to_q(pair)

    # Both eigenvectors of this pair are coordinate axes, so swapping the
    # entries of one gives the other axis, which is not an eigenvector;
    # doubling v1 breaks the leading 1 that the rescale by x relies on.
    @pytest.mark.parametrize("member, spoil", [
        ("a", lambda v: Matrix(v.field, [[v[1, 0]], [v[0, 0]]])),
        ("b", lambda v: Matrix(v.field, [[v[1, 0]], [v[0, 0]]])),
        ("a", lambda v: v.scale(2)),
    ], ids=["swap-v1", "swap-w1", "double-v1"])
    def test_spoiled_eigenvector_fails_the_certificate(self, monkeypatch, member, spoil):
        field = GF(7)
        pair = QForm(field(1), field(2), field(4)).realize()
        eigenvector = matcanon.pairs._eigenvector_raw

        def corrupt(m, lam):
            v = eigenvector(m, lam)
            return spoil(v) if m is getattr(pair, member) else v

        monkeypatch.setattr(matcanon.pairs, "_eigenvector_raw", corrupt)
        with pytest.raises(BasisFailure, match="certificate"):
            reduce_to_q(pair)


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
        t = QForm(field(1), field(1), field(1)).realize().to_point()
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
        return QForm(field(a), field(b), field(c)).realize().to_point()

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
            assert c.submatrix(0, 2, 0, 2) == si
            assert c.submatrix(2, 4, 2, 4) == ti
            assert c.submatrix(0, 2, 2, 4).is_zero()
            assert c.submatrix(2, 4, 0, 2).is_zero()

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
