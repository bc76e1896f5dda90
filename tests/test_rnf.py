"""Rational normal form: companions, invariant factors, transforms."""

import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import matcanon
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
from bruteforce import conjugation_orbit

from helpers import (
    charpoly_oracle,
    minimal_polynomial_oracle,
    poly_eval_matrix,
    rand_invertible,
    rand_matrix,
    rand_monic,
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
        """The certificate is ordinary code, so ``python -O`` keeps it, for the
        normal-form transform and for both pair changes of basis."""
        script = textwrap.dedent("""
            import sys
            import matcanon.pairs as pairs
            from matcanon import (GF, BasisFailure, Matrix, QForm, reduce_to_q,
                                  rnf_transform, simple_pair, split_off_simple)
            if __debug__:
                sys.exit("not running under -O")

            def expect_failure(label, call, *args):
                try:
                    call(*args)
                except BasisFailure as exc:
                    print(label, "BasisFailure:", exc)
                else:
                    sys.exit(f"{label}: no BasisFailure")

            # A broken generator step: every iterate under A is zero.
            mul_vector_raw = Matrix.mul_vector_raw
            Matrix.mul_vector_raw = lambda self, v: [self.field.zero] * self.nrows
            expect_failure("rnf", rnf_transform, Matrix(GF(5), [[1, 2, 0], [0, 1, 3], [2, 0, 4]]))
            Matrix.mul_vector_raw = mul_vector_raw

            # Eigenvectors without leading entry 1: x rescales v1 wrongly.
            field = GF(7)
            eigenvector = pairs._eigenvector_raw
            pairs._eigenvector_raw = lambda m, lam: eigenvector(m, lam).scale(2)
            expect_failure("reduce", reduce_to_q, QForm(field(1), field(2), field(4)).realize())
            pairs._eigenvector_raw = eigenvector

            # A generator f of Hom(S, M) with one wrong entry.
            field = GF(11)
            leading_one = pairs._leading_one
            spoil = Matrix.from_columns(field, [[0, 0, 0, 1], [0, 0, 0, 0]])

            def spoiled(x):
                x = leading_one(x)
                return x + spoil if x.nrows > x.ncols else x

            pairs._leading_one = spoiled
            tail = QForm(field(1), field(2), field(4)).realize().to_point()
            expect_failure("split", split_off_simple, simple_pair(4, field).direct_sum(tail))
        """)
        src = str(Path(matcanon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        labels = [line.split(" BasisFailure: ")[0] for line in proc.stdout.splitlines()]
        assert labels == ["rnf", "reduce", "split"], proc.stdout

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
