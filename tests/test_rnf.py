"""Rational normal form: companions, invariant factors, transforms."""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import matcanon
import matcanon.rnf as rnf
from matcanon import (
    GF,
    QQ,
    BasisFailure,
    ChainViolation,
    DegreeZero,
    Matrix,
    NonSquare,
    NotMonic,
    Partition,
    Polynomial,
    RationalNormalForm,
    assemble_rnf_matrix,
    block_diagonal,
    companion,
    invariant_factors,
    partition_of,
    rnf_transform,
    similarity_defect,
)
from matcanon.cli import main
from matcanon.fileio import format_matrix
from matcanon.matrix import _mod_rows, _over_one_denominator, _prime
from bruteforce import conjugation_orbit

from helpers import (
    charpoly_oracle,
    first_cyclic_unit,
    minimal_polynomial_oracle,
    poly_eval_matrix,
    rand_block_triangular,
    rand_invertible,
    rand_matrix,
    rand_monic,
    rule_transform,
    unit_krylov,
)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


class TestCompanion:
    def test_degree_one(self):
        assert companion(P(QQ, -3, 1)) == Matrix(QQ, [[3]])  # X - 3

    def test_degree_two_convention(self):
        # B(X^2 - d*X - e) = [[0, e], [1, d]] with (d, e) = (4, 5).
        assert companion(P(QQ, -5, -4, 1)) == Matrix(QQ, [[0, 5], [1, 4]])

    def test_nilpotent(self):
        b = companion(Polynomial.x_power(QQ, 3))
        assert b == Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert (b ** 3).is_zero()

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            companion(P(QQ, 1, 2))

    def test_degree_zero(self):
        with pytest.raises(DegreeZero):
            companion(P(QQ, 1))

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
    def test_characteristic_polynomial(self, field):
        # Independent oracle: cofactor expansion of det(X*I - B(P)) gives P.
        rng = random.Random(23)
        for degree in range(1, 7):
            p = rand_monic(field, degree, rng)
            assert charpoly_oracle(companion(p)) == p


class TestChainValidation:
    def test_divisibility_enforced(self):
        with pytest.raises(ChainViolation):
            RationalNormalForm([P(QQ, -1, 1), P(QQ, 1, 1)])  # X+1 does not divide X-1

    def test_monicity_enforced(self):
        with pytest.raises(NotMonic):
            RationalNormalForm([P(QQ, 0, 2)])

    def test_degree_enforced(self):
        with pytest.raises(DegreeZero):
            RationalNormalForm([P(QQ, 1)])

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition((3, 1)).n == 4


class TestAssemble:
    def test_two_scalars(self):
        chain = RationalNormalForm([P(QQ, -1, 1), P(QQ, -1, 1)])
        assert assemble_rnf_matrix(chain) == Matrix.identity(QQ, 2)

    def test_single_factor(self):
        p = P(GF(5), 2, 3, 1)
        chain = RationalNormalForm([p])
        assert assemble_rnf_matrix(chain) == companion(p)

    def test_nilpotent_chain_gf2(self):
        chain = RationalNormalForm([Polynomial.x_power(GF(2), 2), Polynomial.x(GF(2))])
        m = assemble_rnf_matrix(chain)
        nonzero = {(i, j) for i in range(3) for j in range(3) if not m[i, j].is_zero()}
        assert nonzero == {(1, 0)}
        assert (m ** 3).is_zero()


class TestInvariantFactors:
    def test_identity(self):
        chain = invariant_factors(Matrix.identity(QQ, 2))
        assert chain == RationalNormalForm([P(QQ, -1, 1), P(QQ, -1, 1)])
        assert partition_of(chain) == (1, 1)

    def test_companion_is_fixed_point(self):
        p = P(GF(2), 1, 1, 1)
        assert invariant_factors(companion(p)) == RationalNormalForm([p])

    def test_jordan_block(self):
        a = Matrix(QQ, [[1, 1], [0, 1]])
        # Oracle: the minimal polynomial by linear dependence of I, A, A^2.
        assert minimal_polynomial_oracle(a) == P(QQ, 1, -2, 1)
        chain = invariant_factors(a)
        assert chain == RationalNormalForm([P(QQ, 1, -2, 1)])
        assert len(chain) == 1

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquare):
            invariant_factors(Matrix(QQ, [[1, 2]]))

    @pytest.mark.parametrize("field", [GF(5), GF(3), QQ])
    def test_minimal_polynomial_is_first_factor(self, field):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(1, 5)
            a = rand_matrix(field, n, rng)
            chain = invariant_factors(a)
            assert chain.minimal_polynomial == minimal_polynomial_oracle(a)
            assert poly_eval_matrix(chain.minimal_polynomial, a).is_zero()

    def test_chain_law_and_degree_sum(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = rand_matrix(GF(5), n, rng)
            chain = invariant_factors(a)
            assert sum(f.degree for f in chain) == n
            for big, small in zip(chain.factors, chain.factors[1:]):
                assert (big % small).is_zero()

    def test_conjugation_invariance(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = rand_matrix(GF(5), n, rng)
            g = rand_invertible(GF(5), n, rng)
            assert invariant_factors(g.inverse() * a * g) == invariant_factors(a)


class TestTransform:
    def test_already_normal_form(self):
        chain = RationalNormalForm([P(QQ, -2, 1, 1)])
        a = assemble_rnf_matrix(chain)
        r, t, _ = rnf_transform(a)
        assert r == a
        assert t.inverse() * a * t == r

    def test_known_diagonal(self):
        a = Matrix(QQ, [[0, 0], [0, 1]])
        r, t, _ = rnf_transform(a)
        assert r == Matrix(QQ, [[0, 0], [1, 1]])  # companion of X^2 - X
        assert t.inverse() * a * t == r

    def test_reconstructed_conjugates(self):
        rng = random.Random(41)
        for _ in range(20):
            degree = rng.randint(1, 4)
            p = rand_monic(GF(7), degree, rng)
            r0 = companion(p)
            g = rand_invertible(GF(7), degree, rng)
            a = g * r0 * g.inverse()
            r, t, _ = rnf_transform(a)
            assert r == r0
            assert t.is_invertible()
            assert t.inverse() * a * t == r

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
    def test_soundness_random(self, field):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randint(1, 5)
            a = rand_matrix(field, n, rng)
            r, t, _ = rnf_transform(a)
            assert not t.det().is_zero()
            assert t.inverse() * a * t == r
            assert r == assemble_rnf_matrix(invariant_factors(a))


class TestTransformRule:
    """With W the span of the blocks so far, each generator is x less a
    vector of W, x the first unit vector whose conductor into W is the
    next invariant factor, else the lcm merge of the unit vectors outside
    W (the plain reference ``rule_transform``)."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
    def test_generators_follow_the_rule(self, field):
        rng = random.Random(47)
        for _ in range(15):
            a = rand_matrix(field, rng.randint(1, 6), rng)
            assert rnf_transform(a) == rule_transform(a)

    def test_dense_rational_transform_stays_small(self):
        # The benchmark's fixed dense Q matrix of size 10; unscaled
        # generators gave T entries of 1401 bits.
        rng = random.Random("exact-q/dense-10")
        a = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)])
        _, t, _ = rnf_transform(a)
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for row in t._rows for x in row)
        assert bits <= 128


class TestOneDiagonalization:
    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
    def test_chain_matches_invariant_factors(self, field):
        rng = random.Random(43)
        for _ in range(15):
            a = rand_matrix(field, rng.randint(1, 5), rng)
            assert rnf_transform(a)[2] == invariant_factors(a)

    def test_chain_matches_on_known_forms(self):
        known = [
            assemble_rnf_matrix(RationalNormalForm([P(QQ, -2, 1, 1)])),
            Matrix(QQ, [[0, 0], [0, 1]]),
            Matrix(GF(5), [[1, 2, 0], [0, 1, 3], [2, 0, 4]]),
            Matrix.identity(GF(7), 3),
        ]
        for a in known:
            assert rnf_transform(a)[2] == invariant_factors(a)


def recording_diagonalizations(monkeypatch) -> list:
    """The list of the fields of the diagonalizations run from now on,
    until the monkeypatch is undone."""
    calls = []
    diagonalize = rnf._diagonalize
    monkeypatch.setattr(rnf, "_diagonalize", lambda field, d: calls.append(field) or diagonalize(field, d))
    return calls


def diagonalizing(monkeypatch, a):
    """rnf_transform(a) and the fields of the diagonalizations it ran."""
    calls = recording_diagonalizations(monkeypatch)
    result = rnf_transform(a)
    monkeypatch.undo()
    return result, calls


FIELDS = [QQ, GF(2), GF(5), GF(10007)]

# The chain is ((X - 1)(X - 2)(X - 3), X - 1), but the scan's mu reaches
# degree 3 only as e4 completes k^4.
HIDDEN_DEROGATORY = [[1, 0, 0, 0], [0, 2, 0, 0], [0, -1, 1, 0], [0, 0, 0, 3]]


class TestKrylovStage:
    """T = [e_k, A*e_k, ..., A^(n-1)*e_k] for the first unit vector e_k, in
    index order, that is a cyclic vector.  A cyclic matrix with no cyclic
    unit vector takes its chain from the scan and is not diagonalized; a
    derogatory one is diagonalized for its chain.  Every T is the rule's
    (``rule_transform``)."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_cyclic_e1_and_fallbacks(self, field, monkeypatch):
        cyclic = Matrix(field, [[1, 2], [3, 4]])
        result, calls = diagonalizing(monkeypatch, cyclic)
        assert calls == [] and result[1] == unit_krylov(cyclic) == Matrix(field, [[1, 1], [0, 3]])
        assert result == rule_transform(cyclic)
        # diag(1, 2) is cyclic, but each unit vector is an eigenvector, so
        # its generator is the merge e1 + e2; 2I is derogatory.
        for a, diagonalized in ((Matrix(field, [[1, 0], [0, 2]]), False),
                                (Matrix(field, [[2, 0], [0, 2]]), True)):
            result, calls = diagonalizing(monkeypatch, a)
            assert bool(calls) == diagonalized and result == rule_transform(a)
            assert len(result[2]) == 1 + diagonalized
        assert result[1] == Matrix.identity(field, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_first_cyclic_unit_after_e1(self, field, monkeypatch):
        # e1 is an eigenvector of all three.  e1 and e2 span an invariant
        # plane of the second, so e3 is its first cyclic unit vector.  In
        # the third, the chains of e1 and e2 span k^3 and mu has degree 3,
        # so e3, which starts no chain, is tried last.
        for a, k in ((Matrix(field, [[1, 1], [0, 2]]), 1),
                     (Matrix(field, [[2, 1, 0], [0, 2, 1], [0, 0, 3]]), 2),
                     (Matrix(field, [[1, 1, 0], [0, 1, 1], [0, 1, 1]]), 2)):
            result, calls = diagonalizing(monkeypatch, a)
            assert calls == [] and first_cyclic_unit(a) == k and result[1] == unit_krylov(a, k)
            assert result == rule_transform(a)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_block_triangular(self, field, monkeypatch):
        """[[B, C], [0, D]]: e1 lies in the invariant span of the unit
        vectors of B.  Only the derogatory matrices are diagonalized."""
        rng = random.Random(59)
        later = merged = 0
        for _ in range(12):
            n = rng.randint(4, 8)
            a = rand_block_triangular(field, n, rng.randint(1, n - 2), rng)
            k = first_cyclic_unit(a)
            result, calls = diagonalizing(monkeypatch, a)
            assert result == rule_transform(a)
            if len(result[2]) > 1:
                assert calls and (len(calls) == 1 or not field.characteristic)
            else:
                assert calls == []
            if k is not None:
                assert result[1] == unit_krylov(a, k)
                later += k > 0
            else:
                merged += len(result[2]) == 1
        assert later >= 3
        assert merged >= (field == GF(2))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_derogatory_exit(self, field, monkeypatch):
        """The scan stops as soon as the chains span a space V with
        dim V > deg mu, mu the lcm of the minimal polynomials of their
        starts: a derogatory matrix is diagonalized, once over GF(p), for
        its chain.  Each list records the unit vectors whose chains went
        into one span: the scan's own, then the own chain of each start it
        tried, which reads the list of iterates that the scan took."""
        rng = random.Random(61)
        x = Polynomial.x(field)
        f = rand_monic(field, 2, rng)
        g = rand_invertible(field, 6, rng)
        cases = [
            (Matrix.identity(field, 6).scale(3), [[0, 1], [1]]),
            (Matrix(field, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]), [[0, 1, 2], [1], [2]]),
            # mu = (X - 1)(X - 2) once e1 and e2 span k^3.
            (Matrix(field, [[1, 0, 0], [0, 2, 0], [0, 1, 1]]), [[0, 1], [1]]),
            # e1 and e2 span a space of dimension 3 with mu = (X - 1)(X - 2).
            (Matrix(field, HIDDEN_DEROGATORY), [[0, 1], [1]]),
            (g * assemble_rnf_matrix(RationalNormalForm([x ** 3, x ** 2, x])) * g.inverse(), None),
            (g * assemble_rnf_matrix(RationalNormalForm([f * f, f])) * g.inverse(), None),
        ]
        chain = rnf._chain

        def recording(span, op, iterates):
            if not any(s is span for s in spans):
                spans.append(span)
                built.append([])
            built[next(i for i, s in enumerate(spans) if s is span)].append(iterates)
            return chain(span, op, iterates)

        for a, expected in cases:
            probe = field if field.characteristic else GF(_prime(0, a.nrows))
            spans, built = [], []
            monkeypatch.setattr(rnf, "_chain", recording)
            rows = _mod_rows(*_over_one_denominator(a._rows), probe.characteristic) if probe is not field else a._rows
            assert rnf._cyclic_unit(probe, rows, probe.operator(rows)) is None
            monkeypatch.undo()
            units = [[next(k for k, x in enumerate(v[0]) if x) for v in lists] for lists in built]
            if expected is not None:
                assert units == expected
            for own in built[1:]:
                assert any(own[0] is v for v in built[0])
            result, calls = diagonalizing(monkeypatch, a)
            assert calls and (len(calls) == 1 or not field.characteristic)
            assert result == rule_transform(a) and len(result[2]) > 1

    def test_scan_of_every_bidiagonal_matrix(self):
        """Every 4 x 4 lower bidiagonal matrix over GF(3) with subdiagonal
        entries in {0, 1}: the scan gives the minimal polynomial exactly
        when it has degree 4, and None otherwise."""
        field = GF(3)
        for diagonal in itertools.product(range(3), repeat=4):
            for below in itertools.product(range(2), repeat=3):
                a = Matrix(field, [[diagonal[i] if i == j else below[j] if i == j + 1 else 0 for j in range(4)]
                                   for i in range(4)])
                mu = minimal_polynomial_oracle(a)
                scan = rnf._cyclic_unit(field, a._rows, field.operator(a._rows))
                assert (scan[0] if scan else None) == (mu if mu.degree == 4 else None)

    def test_rational_fallbacks(self, monkeypatch):
        """Over Q every decision is made modulo primes and the key groups
        the primes that decide alike, so T is the rule's over Q even where
        p0 = _prime(0, 2) decides otherwise."""
        p0 = _prime(0, 2)
        x = Polynomial.x(QQ)
        cases = [
            # e1 is cyclic over Q, but A e1 = p0*e2 vanishes modulo p0, where
            # e2 is the first cyclic unit vector.
            (Matrix(QQ, [[0, 1], [p0, 0]]), x * x - p0, []),
            # e1 is cyclic over Q, but A is 0 modulo p0, which diagonalizes.
            (Matrix(QQ, [[0, p0], [p0, 0]]), x * x - p0 * p0, [GF(p0)]),
            # p0 divides a denominator, so A has no image modulo p0.
            (Matrix(QQ, [[Fraction(1, p0), 1], [2, 3]]), None, []),
        ]
        for a, chain, diagonalized in cases:
            (r, t, got), calls = diagonalizing(monkeypatch, a)
            assert calls == diagonalized and first_cyclic_unit(a) == 0
            assert (r, t, got) == rule_transform(a) and t == unit_krylov(a)
            if chain is not None:
                assert list(got) == [chain]

    def test_dense_krylov_transform_over_q(self):
        # Dense Q n = 16: T is the Krylov basis, of entries of 69 bits.
        rng = random.Random(16)
        a = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)])
        r, t, chain = rnf_transform(a)
        assert t == unit_krylov(a)
        assert len(chain) == 1 and r == companion(chain[0])
        assert max(x.numerator.bit_length() for row in t._rows for x in row) == 69


MERGE_FIELDS = [QQ, GF(2), GF(3), GF(10007)]


def keyed(monkeypatch, a):
    """rnf_transform(a) and the (characteristic, key) of each run of
    ``_normal_form`` it made."""
    runs = []
    normal_form = rnf._normal_form

    def recording(field, rows, degrees=None):
        found = normal_form(field, rows, degrees)
        runs.append((field.characteristic, found and found[2]))
        return found

    monkeypatch.setattr(rnf, "_normal_form", recording)
    result = rnf_transform(a)
    monkeypatch.undo()
    return result, runs


@st.composite
def small_matrices(draw):
    """Block diagonal matrices, so often derogatory, and lower bidiagonal
    ones with eigenvalues in {0, 1, 2, 3}, so often repeated."""
    field = draw(st.sampled_from(MERGE_FIELDS))
    entry = st.integers(-3, 3) if not field.characteristic else st.integers(0, field.characteristic - 1)
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        return block_diagonal([Matrix(field, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                                           min_size=n, max_size=n))) for n in sizes])
    n = draw(st.integers(3, 5))
    diagonal = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    below = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
    return Matrix(field, [[diagonal[i] if i == j else below[j] if i == j + 1 else 0 for j in range(n)]
                          for i in range(n)])


class TestGenerators:
    """The generators of T from unit-vector conductors, with the lcm merge
    where no unit vector has the conductor of the next factor."""

    @pytest.mark.parametrize("field", MERGE_FIELDS, ids=str)
    def test_merge_for_the_first_factor(self, field, monkeypatch):
        a = Matrix(field, [[1, 0], [0, 2]])
        (r, t, chain), runs = keyed(monkeypatch, a)
        assert t == Matrix(field, [[1, 1], [1, 2]]) and len(chain) == 1
        assert (r, t, chain) == rule_transform(a)
        # e1 and e2 have conductors X - 1 and X - 2; the merge is e1 + e2.
        assert runs[-1][1] == ((2,), (((0, 1), (1, 1, 1, 2)),))

    @pytest.mark.parametrize("field", MERGE_FIELDS, ids=str)
    def test_merge_for_a_later_factor(self, field, monkeypatch):
        # diag(1, 1, 2, 2): both generators are merges, e1 + e3 and then,
        # with e1 and e3 in W, e2 + e4.  diag(B, 1, 2) with B the companion
        # of (X - 1)(X - 2): e1 generates the first block, e3 + e4 the second.
        b = companion(Polynomial(field, [2, -3, 1]))
        for a, generators, choices in (
            (Matrix(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
             [[1, 0, 1, 0], [0, 1, 0, 1]], (((0, 1), (2, 1, 1, 2)), ((1, 1), (3, 1, 1, 2)))),
            (block_diagonal([b, Matrix(field, [[1, 0], [0, 2]])]),
             [[1, 0, 0, 0], [0, 0, 1, 1]], (0, ((2, 1), (3, 1, 1, 2)))),
        ):
            (r, t, chain), runs = keyed(monkeypatch, a)
            assert [t.column_raw(2 * k) for k in range(2)] == [
                [field.canon(x) for x in v] for v in generators]
            assert (r, t, chain) == rule_transform(a) and len(chain) == 2
            assert runs[-1][1][1] == choices

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_matrices())
    @example(Matrix(GF(5), HIDDEN_DEROGATORY))
    @example(Matrix(GF(7), HIDDEN_DEROGATORY))
    @example(Matrix(QQ, HIDDEN_DEROGATORY))
    def test_matches_the_reference(self, a):
        """Random small matrices: the chain, T and the certificate."""
        r, t, chain = rnf_transform(a)
        assert (r, t, chain) == rule_transform(a)
        assert similarity_defect(a, r, t) is None
        assert chain == invariant_factors(a)

    @pytest.mark.parametrize("field", [GF(2), GF(5), GF(10007)], ids=str)
    def test_handed_on_degrees(self, field, monkeypatch):
        """_normal_form with the degrees of the chain skips the
        diagonalization and makes the run without them.  Degrees that are
        not the chain's fall back to it: for diag(1, 1, 0), (1, 1, 1) gives
        the conductors X - 1, X - 1 and X, not a chain, and (3,) no
        generator."""
        rng = random.Random(f"handed-on/{field}")
        x = Polynomial.x(field)
        g = rand_invertible(field, 6, rng)
        cases = [
            (Matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]), [(1, 1, 1), (3,)]),
            (g * assemble_rnf_matrix(RationalNormalForm([x * (x + 1) ** 2, (x + 1) ** 2, x + 1])) * g.inverse(),
             [(2, 2, 2), (4, 1, 1), (6,)]),
        ]
        for a, wrong in cases:
            calls = recording_diagonalizations(monkeypatch)
            found = rnf._normal_form(field, a._rows)
            assert calls == [field]
            for degrees, diagonalized in [(found[2][0], []), *((d, [field]) for d in wrong)]:
                calls.clear()
                assert rnf._normal_form(field, a._rows, degrees) == found and calls == diagonalized
            monkeypatch.undo()

    def test_derogatory_q_diagonalizes_once(self, monkeypatch):
        """The fixed matrix of the benchmark's exact-q nf-derog-6-4-2 job
        (before its seeded sign flips), chain degrees (6, 4, 2): its T has
        25-bit entries and lifts from the first two primes of width 12, of
        31 bits, which take one key.  Only the first is diagonalized; the
        second takes its degrees from the first."""
        a = Matrix(QQ, [
            [-26, -8, 12, 8, -3, 11, -1, 18, 14, -26, 2, -31],
            [-43, 10, 1, -9, 0, 2, 4, 8, -57, -4, -5, -30],
            [53, -3, -10, 4, -1, -9, 1, -23, 42, 18, -1, 49],
            [-129, -14, 43, 15, -6, 43, 4, 69, -12, -91, -4, -135],
            [-29, -4, 8, 3, -1, 6, -1, 14, -8, -15, 1, -28],
            [-11, 4, 0, -3, 1, -2, 3, -5, -21, 3, -5, -1],
            [68, -14, -7, 14, -3, -5, 0, -20, 87, 9, 1, 54],
            [-18, -8, 16, 8, -1, 21, -1, 29, 34, -36, 3, -39],
            [25, 11, -16, -11, 3, -16, 1, -23, -29, 34, -2, 36],
            [16, 7, -10, -6, 2, -10, 4, -19, -16, 21, -6, 27],
            [58, -6, -11, 6, -1, -11, 0, -25, 49, 21, 0, 54],
            [6, -5, 7, 5, 0, 10, -1, 11, 31, -15, 2, -9],
        ])
        calls = recording_diagonalizations(monkeypatch)
        (r, t, chain), runs = keyed(monkeypatch, a)
        assert [p for p, _ in runs] == [_prime(0, 12), _prime(1, 12)] and runs[0][1] == runs[1][1]
        assert calls == [GF(_prime(0, 12))]
        assert partition_of(chain) == (6, 4, 2)
        assert max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                   for row in t._rows for x in row) == 25
        assert (r, t, chain) == rule_transform(a)


class TestModularTransform:
    """Over Q the chain and the generators are computed modulo primes,
    lifted, and certified: T and the chain are the rule's over Q."""

    def derogatory(self, rng):
        parts = rng.choice([(3, 2, 1), (2, 2, 1, 1), (4, 2), (3, 3)])
        factors = [rand_monic(QQ, parts[-1], rng)]
        for part in reversed(parts[:-1]):
            factors.insert(0, factors[0] * rand_monic(QQ, part - factors[0].degree, rng))
        r = assemble_rnf_matrix(RationalNormalForm(factors))
        g = rand_invertible(QQ, r.nrows, rng)
        return g * r * g.inverse()

    def test_matches_the_run_over_q(self):
        rng = random.Random(53)
        krylov = 0
        for k in range(24):
            n = rng.randint(1, 10)
            if k % 3 == 0:
                a = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            elif k % 3 == 1:
                a = rand_matrix(QQ, n, rng)  # entries with denominators up to 9
            else:
                a = self.derogatory(rng)
            r, t, chain = rnf_transform(a)
            assert (r, t, chain) == rule_transform(a)
            k = first_cyclic_unit(a)
            if k is not None:
                assert t == unit_krylov(a, k)
                krylov += 1
            assert invariant_factors(a) == chain
        assert krylov == 16

    @pytest.mark.parametrize("parts", [(12, 8, 4), (16, 8, 4, 4)], ids=lambda parts: "-".join(map(str, parts)))
    def test_derogatory_beyond_the_oracle(self, parts, monkeypatch):
        """Derogatory integer matrices of size 24 and 32, past the sympy
        oracle, built as the benchmark builds its derogatory Q jobs: the
        block companion of a chain of monic factors with coefficients in
        -3..3, conjugated by 4n transvections I + e*E_ij, e = +-1.  The
        chain is the one built, and the lift diagonalizes once, at its
        first prime: the primes after it take its degrees."""
        rng = random.Random(f"beyond/{parts}")
        n = sum(parts)

        def monic(degree):
            return Polynomial(QQ, [rng.randint(-3, 3) for _ in range(degree)] + [1])

        chain = [monic(parts[-1])]
        for big, small in zip(reversed(parts[:-1]), reversed(parts[1:])):
            chain.insert(0, chain[0] * monic(big - small))
        rows = [list(row) for row in assemble_rnf_matrix(RationalNormalForm(chain))._rows]
        for _ in range(4 * n):
            i, j = rng.sample(range(n), 2)
            e = rng.choice((-1, 1))
            for row in rows:
                row[j] += e * row[i]
            rows[i] = [x - e * y for x, y in zip(rows[i], rows[j])]
        a = Matrix(QQ, rows)
        calls = recording_diagonalizations(monkeypatch)
        (r, t, got), runs = keyed(monkeypatch, a)
        assert list(got) == chain and partition_of(got) == parts
        assert calls == [GF(_prime(0, n))] and len(runs) > 1
        assert similarity_defect(a, r, t) is None

    def test_bad_primes_are_skipped(self, monkeypatch):
        """Inputs whose run modulo p0 decides otherwise than the run over Q:
        the key of p0 differs from the one of the lift returned.  p0 is the
        first prime of a lift of size n, ``_prime(0, n)``."""
        p2, p3 = _prime(0, 2), _prime(0, 3)
        x = Polynomial.x(QQ)
        cases = [
            # Over Q the chain is (X^2); modulo p0 the matrix is 0, chain (X, X).
            (Matrix(QQ, [[0, p2], [0, 0]]), [x * x], True),
            # (A - I)^3 = p0^3 * I, so e1 is cyclic over Q, but modulo p0 A
            # is the identity.
            (Matrix(QQ, [[1, p3, 0], [0, 1, p3], [p3, 0, 1]]), [(x - 1) ** 3 - p3 ** 3], True),
            # Modulo p0, e1 and e2 span an invariant plane and no unit vector
            # is cyclic, so p0 takes a merge; over Q e1 is cyclic.
            (Matrix(QQ, [[2, 2, 0], [2, 0, 0], [0, p3, 3]]), None, True),
            # p0 divides a denominator, so A has no image modulo p0.
            (Matrix(QQ, [[Fraction(1, p2), 1], [2, 3]]), None, False),
        ]
        for a, chain, p0_tried in cases:
            p0 = _prime(0, a.nrows)
            (r, t, got), runs = keyed(monkeypatch, a)
            assert (r, t, got) == rule_transform(a)
            if chain is not None:
                assert list(got) == chain
            keys = dict(runs)
            assert (p0 in keys) == p0_tried
            assert runs[-1][0] != p0 and keys.get(p0) != runs[-1][1]

    def test_spoiled_accept_ends_in_basis_failure(self, monkeypatch):
        """With a certificate that never passes, the lift stops at its limit
        on the primes instead of looping."""
        tried = []
        normal_form = rnf._normal_form
        monkeypatch.setattr(rnf, "_normal_form", lambda field, rows, degrees=None: (
            tried.append(field) or normal_form(field, rows, degrees)))
        monkeypatch.setattr(rnf, "similarity_defect", lambda a, r, t: "spoiled")
        for a in (Matrix(QQ, [[1, 2], [3, 4]]), Matrix(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 3)]])):
            tried.clear()
            with pytest.raises(BasisFailure, match="prime bound"):
                rnf_transform(a)
            assert 2 < len(tried) < 200


class TestCertificate:
    def test_reasons(self):
        a = Matrix(QQ, [[0, 0], [0, 1]])
        r, t, _ = rnf_transform(a)
        assert similarity_defect(a, r, t) is None
        assert similarity_defect(a, r, Matrix.zeros(QQ, 2, 2)) == "transform is singular"
        assert similarity_defect(a, a, t) == "conjugation does not reproduce the claimed form"
        assert similarity_defect(a, Matrix.identity(QQ, 3), t) == (
            "conjugation does not reproduce the claimed form"
        )

    def test_members_share_one_rank(self, monkeypatch):
        """Sequences of matrices, such as the members of two pairs, are
        checked against one T with one rank; the reason is that of the
        first member T does not carry to its form."""
        a = Matrix(QQ, [[0, 0], [0, 1]])
        r, t, _ = rnf_transform(a)
        ranks = []
        rank = Matrix.rank
        monkeypatch.setattr(Matrix, "rank", lambda self: ranks.append(self) or rank(self))
        assert similarity_defect((a, a), (r, r), t) is None and ranks == [t]
        assert similarity_defect((a, a), (r, a), t) == "conjugation does not reproduce the claimed form"
        assert similarity_defect((a, a), (r, r), Matrix.zeros(QQ, 2, 2)) == "transform is singular"

    @pytest.mark.parametrize("field", [GF(2), GF(10007), QQ], ids=str)
    def test_singular_krylov_transform_is_refused(self, field, capsys, tmp_path):
        """T = [v, A*v, ..., A^(n-1)*v] for an eigenvector v of A and R the
        companion of the characteristic polynomial satisfy A*T = T*R by
        Cayley-Hamilton, but T has rank 1: only the rank of T refuses it,
        in similarity_defect and in ``matcanon verify``."""
        rng = random.Random(f"singular krylov/{field}")
        n = 5
        s = rand_invertible(field, n, rng)
        u = Matrix(field, [[x if j >= i else 0 for j, x in enumerate(row)]
                           for i, row in enumerate(rand_matrix(field, n, rng)._rows)])
        a = s * u * s.inverse()
        x = Polynomial.x(field)
        chi = Polynomial.constant(field, 1)
        for i in range(n):
            chi = chi * (x - Polynomial.constant(field, u._rows[i][i]))
        r = companion(chi)
        columns = [s.column_raw(0)]  # A * s*e_1 = u[0][0] * s*e_1
        for _ in range(n - 1):
            columns.append(a.mul_vector_raw(columns[-1]))
        t = Matrix.from_columns(field, columns)
        assert a * t == t * r and t.rank() == 1
        assert similarity_defect(a, r, t) == "transform is singular"
        paths = []
        for name, m in (("a", a), ("r", r), ("t", t)):
            path = tmp_path / f"{name}.mat"
            path.write_text(format_matrix(m))
            paths.append(str(path))
        code = main(["verify", *paths, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["status"] == "mismatch"
        assert payload["reason"] == "transform is singular"

    def test_unlucky_partition_is_diagonalized_again(self, monkeypatch):
        """A = diag(1, 1, 1 + p0) is I modulo p0, the first prime, whose
        partition (1, 1, 1) the next prime takes: there its conductors are
        X - 1, X - 1 and X - 1 - p0, not a divisibility chain, so that prime
        diagonalizes too, and the primes after it take its partition (2, 1).
        The chain check is ordinary code, kept under ``python -O``."""
        p0 = _prime(0, 3)
        a = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1 + p0]])
        calls = recording_diagonalizations(monkeypatch)
        (r, t, chain), runs = keyed(monkeypatch, a)
        assert calls == [GF(p0), GF(_prime(1, 3))]
        assert [key[0] for _, key in runs[:2]] == [(1, 1, 1), (2, 1)]
        assert (r, t, chain) == rule_transform(a)

    def test_failure_raises_under_optimize(self):
        """The certificate, the failed-generator check and the prime bound
        of the lift are ordinary code, so ``python -O`` keeps them, for the
        normal-form transform and its chain (the Krylov stage with its scan
        of the unit vectors, the generator routine and the lift over Q),
        for both pair changes of basis and for the exact check of a kernel
        over Q."""
        script = textwrap.dedent("""
            import sys
            import matcanon.pairs as pairs
            import matcanon.rnf as rnf
            from matcanon import (GF, QQ, BasisFailure, Matrix, QForm, invariant_factors,
                                  reduce_to_q, rnf_transform, simple_pair, split_off_simple)
            if __debug__:
                sys.exit("not running under -O")

            def expect_failure(label, call, *args):
                try:
                    call(*args)
                except BasisFailure as exc:
                    print(label, "BasisFailure:", exc)
                else:
                    sys.exit(f"{label}: no BasisFailure")

            # A broken iterate over Q: every product with A is zero, so the
            # iterates of the lifted generators are, and no lift passes the
            # certificate before the prime bound.
            rational_krylov = rnf._rational_krylov
            rnf._rational_krylov = lambda ints, den, g, length, bound: (
                [g] + [[QQ.zero] * len(g) for _ in range(length - 1)])
            expect_failure("krylov over Q", rnf_transform, Matrix(QQ, [[1, 2], [3, 4]]))
            rnf._rational_krylov = rational_krylov

            # A transform over Q spoiled in one entry by a fraction with a
            # large denominator after the reconstruction bound's check: T
            # stays invertible, so only the exact products A*T and T*R of
            # the certificate can refuse it.
            from fractions import Fraction
            assemble = rnf._assemble

            def spoiled_assemble(a, factors, columns):
                r_mat, t_mat, chain = assemble(a, factors, columns)
                rows = [list(row) for row in t_mat._rows]
                rows[-1][0] += Fraction(1, 2 ** 89 - 1)
                return r_mat, Matrix(QQ, rows), chain

            rnf._assemble = spoiled_assemble
            expect_failure("spoiled over Q", rnf_transform,
                           Matrix(QQ, [[Fraction(1, 3), 2, 0], [5, Fraction(-7, 2), 1], [0, 4, 6]]))
            rnf._assemble = assemble

            # A broken generator routine: every coordinate of a vector of a
            # span is off by one, so each conductor and each relation is
            # wrong.  The first GF(5) matrix is cyclic, but no unit vector is
            # a cyclic vector, so its generator is a merge; in the second e1
            # is cyclic, and in the third, an eigenvector ahead of the cyclic
            # e2.
            coordinates = rnf._coordinates
            rnf._coordinates = lambda field, *args: [
                field.add(x, field.one) for x in coordinates(field, *args)]
            broken = Matrix(GF(5), [[1, 2, 0], [0, 1, 0], [0, 0, 4]])
            expect_failure("rnf", rnf_transform, broken)
            # The chain comes from the same certified run, so it fails too.
            expect_failure("invariant factors", invariant_factors, broken)
            expect_failure("krylov", rnf_transform, Matrix(GF(5), [[1, 2], [3, 4]]))
            expect_failure("krylov scan", rnf_transform, Matrix(GF(5), [[1, 1], [0, 2]]))
            rnf._coordinates = coordinates

            # A wrong chain: the diagonalization of the derogatory 2I claims
            # (X - 2)^2, for which no unit vector and no merge has a conductor
            # of degree 2.
            diagonalize = rnf._diagonalize
            rnf._diagonalize = lambda field, d: [[1], [4, 1, 1]]
            expect_failure("no generator", rnf_transform, Matrix(GF(5), [[2, 0], [0, 2]]))
            rnf._diagonalize = diagonalize

            # An intertwiner with its first column doubled: g breaks the
            # superdiagonal 1 of q.
            field = GF(7)
            intertwiners = pairs.intertwiners
            double = Matrix(field, [[2, 0], [0, 1]])
            pairs.intertwiners = lambda m, m2: [f * double for f in intertwiners(m, m2)]
            expect_failure("reduce", reduce_to_q, QForm(field(1), field(2), field(4)).realize())
            pairs.intertwiners = intertwiners

            # A generator f of Hom(S, M) with one wrong entry.
            field = GF(11)
            leading_one = pairs._leading_one
            spoil = Matrix.from_columns(field, [[0, 0, 0, 1], [0, 0, 0, 0]])

            def spoiled(x):
                x = leading_one(x)
                return x + spoil if x.nrows > x.ncols else x

            pairs._leading_one = spoiled
            tail = QForm(field(1), field(2), field(4)).realize()
            expect_failure("split", split_off_simple, simple_pair(4, field).direct_sum(tail))

            # A spoiled rational reconstruction over Q: every lifted entry is
            # off by one, so no kernel basis passes the exact check.
            import matcanon.matrix as matrix
            reconstruct = matrix._rational_reconstruction

            def spoiled_reconstruction(residues, m):
                entries = reconstruct(residues, m)
                return None if entries is None else [x + 1 for x in entries]

            matrix._rational_reconstruction = spoiled_reconstruction
            expect_failure("kernel", Matrix(QQ, [[1, 2, 3], [2, 4, 6]]).rank_and_kernel)
            expect_failure("rank", Matrix(QQ, [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7]]).rank)
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons = dict(line.split(" BasisFailure: ") for line in proc.stdout.splitlines())
        assert list(reasons) == ["krylov over Q", "spoiled over Q", "rnf", "invariant factors", "krylov",
                                 "krylov scan", "no generator", "reduce", "split", "kernel",
                                 "rank"], proc.stdout
        assert reasons["no generator"] == "no generator of a cyclic summand by the rule"
        assert all("prime bound" in reasons[label] for label in ("krylov over Q", "spoiled over Q"))
        assert all("certificate" in reasons[label] for label in ("krylov", "krylov scan"))

    def test_spoiled_packed_span_raises_under_optimize(self):
        """Under ``python -O``, a packed _Span whose stored lines are not its
        rows ends in BasisFailure from rnf_transform over GF(10007), n = 8
        and 12 (32-bit slots): a line one off in the slot after its pivot
        spoils every reduction by it and fails the certificate, and a line
        packed before its row was scaled to 1 at the pivot leaves the pivot
        slot nonzero, which the span refuses once it holds the whole space.
        Over GF(2), n = 8 and 12 (byte slots, reduced by bytes.translate),
        the line one off leaves a vector outside the whole space; there
        every row's scale is 1, so a line cannot be left unscaled."""
        script = textwrap.dedent("""
            import random, resource, sys
            import matcanon.matrix as matrix
            from matcanon import GF, BasisFailure, Matrix, rnf_transform
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

            rng = random.Random(1)
            field = GF(10007)
            for spoil in (off_slot, unscaled):
                matrix._Span.add = spoil
                for n in (8, 12):
                    a = Matrix(field, [[rng.randrange(10007) for _ in range(n)] for _ in range(n)])
                    expect_failure(f"{spoil.__name__} {n}", rnf_transform, a)
            matrix._Span.add = off_slot
            for n in (8, 12):
                a = Matrix(GF(2), [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
                expect_failure(f"off_slot GF(2) {n}", rnf_transform, a)
            matrix._Span.add = add
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons = dict(line.split(" BasisFailure: ") for line in proc.stdout.splitlines())
        assert list(reasons) == ["off_slot 8", "off_slot 12", "unscaled 8", "unscaled 12",
                                 "off_slot GF(2) 8", "off_slot GF(2) 12"], proc.stdout
        assert all("certificate" in reasons[f"off_slot {n}"] for n in (8, 12)), proc.stdout
        assert all("outside a span" in reasons[f"unscaled {n}"] for n in (8, 12)), proc.stdout
        assert all("outside a span" in reasons[f"off_slot GF(2) {n}"] for n in (8, 12)), proc.stdout

    def test_no_assert_statements_in_package(self):
        package = Path(matcanon.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []


class TestPartitionOf:
    def test_examples(self):
        chain = RationalNormalForm([P(QQ, -1, 1), P(QQ, -1, 1)])
        assert partition_of(chain) == (1, 1)
        single = RationalNormalForm([P(QQ, 0, 0, 0, 1)])
        assert partition_of(single) == (3,)

    def test_partition_with_repeated_parts(self):
        field = GF(5)
        q3 = P(field, 3, 1, 1)
        q2 = P(field, 2, 1)
        q1 = P(field, 1, 4, 1)
        chain = RationalNormalForm([q1 * q2 * q3, q2 * q3, q3, q3])
        assert partition_of(chain) == (5, 3, 2, 2)


class TestExhaustiveOracle:
    def test_gf2_size_two(self):
        """Exhaustive ground truth: similarity orbits over GF(2) in size 2
        coincide with equality of invariant factors."""
        field = GF(2)
        matrices = [
            Matrix(field, [[a, b], [c, d]])
            for a in range(2) for b in range(2) for c in range(2) for d in range(2)
        ]
        orbit_of = {}
        for m in matrices:
            if m not in orbit_of:
                orbit = conjugation_orbit(m)
                for member in orbit:
                    orbit_of[member] = orbit
        for i, a in enumerate(matrices):
            fa = invariant_factors(a)
            for b in matrices[i:]:
                same_orbit = b in orbit_of[a]
                same_factors = fa == invariant_factors(b)
                assert same_orbit == same_factors
