"""Rational normal form: companions, invariant factors, transforms."""

import ast
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import matcanon
import matcanon.rnf as rnf
from matcanon import (
    GF,
    QQ,
    ChainViolation,
    DegreeZero,
    Matrix,
    NonSquare,
    NotMonic,
    Partition,
    Polynomial,
    RationalNormalForm,
    assemble_rnf_matrix,
    companion,
    invariant_factors,
    partition_of,
    rnf_transform,
    similarity_defect,
)
from matcanon.matrix import _prime
from bruteforce import conjugation_orbit

from helpers import (
    charpoly_oracle,
    exact_transform,
    first_cyclic_unit,
    minimal_polynomial_oracle,
    poly_eval_matrix,
    rand_block_triangular,
    rand_invertible,
    rand_matrix,
    rand_monic,
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
    """Each cyclic generator, the first column of its companion block in T,
    is scaled to first nonzero entry 1."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
    def test_generators_lead_with_one(self, field):
        rng = random.Random(47)
        for _ in range(15):
            a = rand_matrix(field, rng.randint(1, 6), rng)
            _, t, chain = rnf_transform(a)
            start = 0
            for factor in chain:
                column = t.column_raw(start)
                assert next(x for x in column if not field.is_zero(x)) == field.one
                start += factor.degree

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


def diagonalizing(monkeypatch, a):
    """rnf_transform(a) and the fields of the diagonalizations it ran."""
    calls = []
    diagonalize = rnf._diagonalize

    def recording(field, d):
        calls.append(field)
        return diagonalize(field, d)

    monkeypatch.setattr(rnf, "_diagonalize", recording)
    result = rnf_transform(a)
    monkeypatch.undo()
    return result, calls


FIELDS = [QQ, GF(2), GF(5), GF(10007)]


class TestKrylovStage:
    """T = [e_k, A*e_k, ..., A^(n-1)*e_k] for the first unit vector e_k, in
    index order, that is a cyclic vector; a matrix with no cyclic unit
    vector is diagonalized, and its T is unchanged."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_cyclic_e1_and_fallbacks(self, field, monkeypatch):
        cyclic = Matrix(field, [[1, 2], [3, 4]])
        (r, t, chain), calls = diagonalizing(monkeypatch, cyclic)
        assert calls == [] and t == unit_krylov(cyclic) == Matrix(field, [[1, 1], [0, 3]])
        expected = exact_transform(cyclic)
        assert (r, chain) == (expected[0], expected[2])
        # diag(1, 2) is cyclic, but each unit vector is an eigenvector; 2I
        # is derogatory.
        for a, factors in ((Matrix(field, [[1, 0], [0, 2]]), 1), (Matrix(field, [[2, 0], [0, 2]]), 2)):
            result, calls = diagonalizing(monkeypatch, a)
            assert calls and result == exact_transform(a)
            assert len(result[2]) == factors

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_first_cyclic_unit_after_e1(self, field, monkeypatch):
        # e1 is an eigenvector of all three.  e1 and e2 span an invariant
        # plane of the second, so e3 is its first cyclic unit vector.  In
        # the third, the chains of e1 and e2 span k^3 and mu has degree 3,
        # so e3, which starts no chain, is tried last.
        for a, k in ((Matrix(field, [[1, 1], [0, 2]]), 1),
                     (Matrix(field, [[2, 1, 0], [0, 2, 1], [0, 0, 3]]), 2),
                     (Matrix(field, [[1, 1, 0], [0, 1, 1], [0, 1, 1]]), 2)):
            (r, t, chain), calls = diagonalizing(monkeypatch, a)
            assert calls == [] and first_cyclic_unit(a) == k and t == unit_krylov(a, k)
            expected = exact_transform(a)
            assert (r, chain) == (expected[0], expected[2])

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_block_triangular(self, field, monkeypatch):
        """[[B, C], [0, D]]: e1 lies in the invariant span of the unit
        vectors of B.  Only the matrices with no cyclic unit vector are
        diagonalized."""
        rng = random.Random(59)
        later = 0
        for _ in range(12):
            n = rng.randint(4, 8)
            a = rand_block_triangular(field, n, rng.randint(1, n - 2), rng)
            k = first_cyclic_unit(a)
            (r, t, chain), calls = diagonalizing(monkeypatch, a)
            expected = exact_transform(a)
            assert (r, chain) == (expected[0], expected[2])
            if k is None:
                assert len(calls) == 1 and t == expected[1]
            else:
                assert calls == [] and t == unit_krylov(a, k)
                later += k > 0
        assert later >= 3

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_derogatory_exit(self, field, monkeypatch):
        """The scan stops at the first chain start that mu(A) kills, or once
        the chains span k^n with deg mu < n: a derogatory matrix is
        diagonalized once, with its chain.  Each list records the unit
        vectors given to one Krylov basis: the scan's own, then the own
        chain of each start it tried."""
        rng = random.Random(61)
        x = Polynomial.x(field)
        f = rand_monic(field, 2, rng)
        g = rand_invertible(field, 6, rng)
        cases = [
            (Matrix.identity(field, 6).scale(3), [[0, 1]]),
            (Matrix(field, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]), [[0, 1, 2], [1]]),
            # mu = (X - 1)(X - 2) once e1 and e2 span k^3.
            (Matrix(field, [[1, 0, 0], [0, 2, 0], [0, 1, 1]]), [[0, 1], [1]]),
            (g * assemble_rnf_matrix(RationalNormalForm([x ** 3, x ** 2, x])) * g.inverse(), None),
            (g * assemble_rnf_matrix(RationalNormalForm([f * f, f])) * g.inverse(), None),
        ]
        krylov_chains = rnf._krylov_chains

        def recording(k, rows):
            chain, units = krylov_chains(k, rows), []
            built.append(units)
            return lambda i: units.append(i) or chain(i)

        for a, expected in cases:
            built = []
            monkeypatch.setattr(rnf, "_krylov_chains", recording)
            result, calls = diagonalizing(monkeypatch, a)
            # Over Q one diagonalization runs modulo each prime.
            assert calls and (len(calls) == 1 or not field.characteristic)
            assert result == exact_transform(a) and len(result[2]) > 1
            if expected is not None:
                assert built == expected

    def test_rational_fallbacks(self, monkeypatch):
        """Over Q cyclicity is decided modulo p0 = _prime(0)."""
        p0 = _prime(0)
        x = Polynomial.x(QQ)
        # e1 is cyclic over Q, but A e1 = p0*e2 vanishes modulo p0, where e2
        # is the first cyclic unit vector.
        a = Matrix(QQ, [[0, 1], [p0, 0]])
        (r, t, chain), calls = diagonalizing(monkeypatch, a)
        assert list(chain) == [x * x - p0]
        assert calls == [] and first_cyclic_unit(a) == 0 and t == unit_krylov(a, 1)
        # e1 is cyclic over Q, but A is 0 modulo p0.
        a = Matrix(QQ, [[0, p0], [p0, 0]])
        (r, t, chain), calls = diagonalizing(monkeypatch, a)
        assert list(chain) == [x * x - p0 * p0]
        assert calls and (r, t, chain) == exact_transform(a)
        assert first_cyclic_unit(a) == 0
        # p0 divides a denominator, so A has no image modulo p0.
        a = Matrix(QQ, [[Fraction(1, p0), 1], [2, 3]])
        result, calls = diagonalizing(monkeypatch, a)
        assert calls and p0 not in [f.characteristic for f in calls]
        assert result == exact_transform(a)
        assert first_cyclic_unit(a) == 0

    def test_dense_krylov_transform_over_q(self):
        # Dense Q n = 16: T is the Krylov basis, of entries of 69 bits.
        rng = random.Random(16)
        a = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)])
        r, t, chain = rnf_transform(a)
        assert t == unit_krylov(a)
        assert len(chain) == 1 and r == companion(chain[0])
        assert max(x.numerator.bit_length() for row in t._rows for x in row) == 69


class TestModularTransform:
    """Over Q the chain and T are computed modulo primes, lifted, and
    certified: T is the Krylov basis of e1 when e1 is cyclic and otherwise
    exactly that of the diagonalization run over Q, and the chain is always
    the run's."""

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
            expected = exact_transform(a)
            r, t, chain = rnf_transform(a)
            assert (r, chain) == (expected[0], expected[2])
            k = first_cyclic_unit(a)
            if k is not None:
                assert t == unit_krylov(a, k)
                krylov += 1
            else:
                assert t == expected[1]
            assert invariant_factors(a) == chain
        assert krylov == 16

    def test_bad_primes_are_skipped(self, monkeypatch):
        """Inputs with no cyclic unit vector modulo p0, so that each reaches
        the diagonalization modulo primes."""
        p0 = _prime(0)
        x = Polynomial.x(QQ)
        cases = [
            # Over Q the chain is (X^2); modulo p0 the matrix is 0, chain (X, X).
            (Matrix(QQ, [[0, p0], [0, 0]]), [x * x], True),
            # (A - I)^3 = p0^3 * I, so e1 is cyclic over Q, but modulo p0 A
            # is the identity.
            (Matrix(QQ, [[1, p0, 0], [0, 1, p0], [p0, 0, 1]]), [(x - 1) ** 3 - p0 ** 3], True),
            # Modulo p0 the second step pivots elsewhere and the generator
            # differs from the image of the one over Q.
            (Matrix(QQ, [[2, 2, 0], [2, 0, 0], [0, p0, 3]]), None, True),
            # p0 divides a denominator, so A has no image modulo p0.
            (Matrix(QQ, [[Fraction(1, p0), 1], [2, 3]]), None, False),
        ]
        for a, chain, p0_tried in cases:
            (r, t, got), calls = diagonalizing(monkeypatch, a)
            used = [field.characteristic for field in calls]
            assert (r, t, got) == exact_transform(a)
            if chain is not None:
                assert list(got) == chain
            assert (p0 in used) == p0_tried
            assert used[-1] != p0


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

    def test_failure_raises_under_optimize(self):
        """The certificate and the zero-generator check are ordinary code, so
        ``python -O`` keeps them, for the normal-form transform and its
        chain on both of its paths (the Krylov stage, with its scan of the
        unit vectors, and the diagonalization), for both pair changes of
        basis and for the exact check of a kernel over Q."""
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

            # A broken generator step: every iterate under A is zero.  The
            # GF(5) matrix is cyclic, but no unit vector is a cyclic vector,
            # so it is diagonalized.
            mul_vector_raw = Matrix.mul_vector_raw
            Matrix.mul_vector_raw = lambda self, v: [self.field.zero] * self.nrows
            broken = Matrix(GF(5), [[1, 2, 0], [0, 1, 0], [0, 0, 4]])
            expect_failure("rnf", rnf_transform, broken)
            # The chain comes from the same certified run, so it fails too.
            expect_failure("invariant factors", invariant_factors, broken)
            # Over Q e1 is cyclic modulo p0, so the Krylov stage takes its
            # iterates over Q, all zero here.
            expect_failure("krylov over Q", rnf_transform, Matrix(QQ, [[1, 2], [3, 4]]))
            Matrix.mul_vector_raw = mul_vector_raw

            # A broken Krylov stage: the first dependent iterate of every
            # chain is off by e1, so its kernel gives a wrong invariant
            # factor, whether e1 is cyclic or, in the scan of the second
            # matrix, an eigenvector ahead of the cyclic e2.
            krylov_chains = rnf._krylov_chains

            def spoiled_krylov(field, a):
                chain = krylov_chains(field, a)

                def spoiled(i):
                    vectors, end = chain(i)
                    return vectors, [field.add(end[0], field.one)] + end[1:]
                return spoiled

            rnf._krylov_chains = spoiled_krylov
            expect_failure("krylov", rnf_transform, Matrix(GF(5), [[1, 2], [3, 4]]))
            expect_failure("krylov scan", rnf_transform, Matrix(GF(5), [[1, 1], [0, 2]]))
            rnf._krylov_chains = krylov_chains

            # A zero generator: the inverse row operations are all zero.  The
            # scalar matrix is derogatory, so it is diagonalized.
            diagonalize = rnf._diagonalize
            rnf._diagonalize = lambda field, d: (
                diagonalize(field, d)[0], [[[]] * len(d) for _ in d], [])
            expect_failure("zero generator", rnf_transform, Matrix(GF(5), [[2, 0], [0, 2]]))
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
        assert list(reasons) == ["rnf", "invariant factors", "krylov over Q", "krylov",
                                 "krylov scan", "zero generator", "reduce", "split", "kernel",
                                 "rank"], proc.stdout
        assert reasons["zero generator"] == "zero generator of a cyclic summand"
        assert all("certificate" in reasons[label] for label in ("krylov", "krylov scan", "krylov over Q"))

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
