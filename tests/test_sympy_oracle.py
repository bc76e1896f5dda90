"""An independent oracle beyond brute force: sympy, a test-only dependency.

The Hom bases over Q of split pairs are checked against the kernel of
their full intertwiner systems from sympy's own Gauss-Jordan elimination,
and invariant factors over Q against sympy's Smith form over QQ[x]: on
random and dense matrices, whose e1 is a cyclic vector, so that they take
the Krylov stage of ``rnf_transform``, on cyclic matrices whose e1 lies in
a proper invariant subspace, which take the Krylov basis of a later unit
vector, and on derogatory matrices, whose chain comes from the
diagonalization and whose generators from unit-vector conductors.  The
module is skipped without sympy.
"""

import hashlib
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import matcanon.rnf as rnf  # noqa: E402
from matcanon import (  # noqa: E402
    QQ,
    Matrix,
    QForm,
    RationalNormalForm,
    assemble_rnf_matrix,
    hom_dimension,
    intertwiners,
    invariant_factors,
    rnf_transform,
    simple_pair,
)

from helpers import (  # noqa: E402
    first_cyclic_unit,
    intertwiner_system,
    rand_block_triangular,
    rand_invertible,
    rand_matrix,
    rand_monic,
    rule_transform,
    unit_krylov,
)


def to_sympy(rows):
    return [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]


def split_instance(n, rng):
    """S(n-2) (+) T for a Q-form pair T, conjugated by a random invertible matrix."""
    t = QForm(QQ(rng.randint(1, 5)), QQ(rng.randint(1, 5)), QQ(rng.randint(1, 5))).realize()
    g = rand_invertible(QQ, n, rng)
    return simple_pair(n, QQ).direct_sum(t).conjugated_by(g)


def sympy_rank_and_kernel(rows):
    """Rank and kernel basis (1 at its free column, 0 at the others) read off
    sympy's reduced row echelon form over QQ."""
    nrows, ncols = len(rows), len(rows[0])
    dm = DomainMatrix.from_list_sympy(nrows, ncols, to_sympy(rows)).convert_to(sympy.QQ)
    rref, pivots = dm.rref(method="GJ")
    entries = rref.to_list()
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            x = entries[r][free]
            v[c] = -Fraction(int(x.numerator), int(x.denominator))
        basis.append(v)
    return len(pivots), basis


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_intertwiner_system_rank_and_kernel(n):
    m = split_instance(n, random.Random(n))
    system = intertwiner_system(m, m)
    rank, kernel = sympy_rank_and_kernel(system._rows)
    assert system.rank() == rank == n * n - 2
    assert [[x for row in f._rows for x in row] for f in intertwiners(m, m)] == kernel


def test_endomorphisms_of_a_split_instance():
    m = split_instance(10, random.Random(10))
    assert hom_dimension(m, m) == 2


def test_endomorphisms_at_14_match_the_full_system():
    """Past sympy's reach here: the digest of the basis that the kernel of
    the full 392 x 196 system over Q gave, frozen."""
    m = split_instance(14, random.Random(14))
    basis = intertwiners(m, m)
    text = ";".join(" ".join(str(x) for x in row) for f in basis for row in f._rows)
    assert len(basis) == 2
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2936ac59f97d6b2538f1ca22f233210557bee4f2d34da0d34bd806df3219510c")


def sympy_chain(a):
    """The invariant factors of a matrix over Q from sympy's Smith form of
    X*I - A over QQ[x], largest first, as ascending coefficient lists."""
    x = sympy.Symbol("x")
    n = a.nrows
    entries = to_sympy(a._rows)
    char = sympy.Matrix(n, n, lambda i, j: (x if i == j else 0) - entries[i][j])
    theirs = [sympy.Poly(f.as_expr(), x).monic() for f in sympy_invariant_factors(char, domain=sympy.QQ[x])]
    return [[Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.all_coeffs())]
            for f in reversed(theirs) if f.degree() > 0]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_invariant_factors_against_smith_form(n):
    a = rand_matrix(QQ, n, random.Random(1000 + n))
    assert sympy_chain(a) == [list(f.coeffs) for f in invariant_factors(a)]


def test_dense_16_against_smith_form():
    """The dense integer matrix of size 16 (entries -9..9), whose e1 is cyclic."""
    rng = random.Random(16)
    a = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)])
    assert sympy_chain(a) == [list(f.coeffs) for f in invariant_factors(a)]


@pytest.mark.parametrize("n", range(6, 15))
def test_later_cyclic_unit_against_smith_form(n, monkeypatch):
    """A cyclic matrix [[B, C], [0, D]] with B of size n // 3: e1 lies in
    the invariant span of the unit vectors of B, so T is the Krylov basis
    of a later unit vector, and nothing is diagonalized."""
    rng = random.Random(3000 + n)
    m = n // 3
    a = rand_block_triangular(QQ, n, m, rng)
    monkeypatch.setattr(rnf, "_diagonalize", None)
    _, t, chain = rnf_transform(a)
    k = first_cyclic_unit(a)
    assert k >= m and t == unit_krylov(a, k) and len(chain) == 1
    assert sympy_chain(a) == [list(f.coeffs) for f in chain]


@pytest.mark.parametrize("parts", [(3, 2, 1), (2, 2, 1, 1), (4, 2, 2), (3, 3, 2), (4, 4, 2, 2)],
                         ids=lambda parts: "-".join(map(str, parts)))
def test_derogatory_against_smith_form(parts):
    """Derogatory matrices have no cyclic vector, so these run the
    diagonalization modulo primes: a chain with these parts, conjugated by a
    random invertible matrix."""
    rng = random.Random(2000 + sum(parts))
    factors = [rand_monic(QQ, parts[-1], rng)]
    for part in reversed(parts[:-1]):
        factors.insert(0, factors[0] * rand_monic(QQ, part - factors[0].degree, rng))
    g = rand_invertible(QQ, sum(parts), rng)
    a = g * assemble_rnf_matrix(RationalNormalForm(factors)) * g.inverse()
    ours = invariant_factors(a)
    assert tuple(f.degree for f in ours) == parts
    assert sympy_chain(a) == [list(f.coeffs) for f in ours]


@pytest.mark.parametrize("n", range(6, 15))
def test_derogatory_rule_against_smith_form(n, monkeypatch):
    """Derogatory integer matrices, n = 6 to 14: a chain of degrees about
    (n/3, n/3, n/3), conjugated by a product of 2n transvections.  The
    chain matches sympy's, it comes from one diagonalization modulo a
    prime, and T is the rule's (the plain reference)."""
    rng = random.Random(4000 + n)
    parts = sorted([n - 2 * (n // 3), n // 3, n // 3], reverse=True)
    factors = [rand_monic(QQ, parts[-1], rng)]
    for part in reversed(parts[:-1]):
        factors.insert(0, factors[0] * rand_monic(QQ, part - factors[0].degree, rng))
    rows = [list(row) for row in Matrix.identity(QQ, n)._rows]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        rows[i] = [x + e * y for x, y in zip(rows[i], rows[j])]
    g = Matrix(QQ, rows)
    a = g * assemble_rnf_matrix(RationalNormalForm(factors)) * g.inverse()
    calls = []
    diagonalize = rnf._diagonalize
    monkeypatch.setattr(rnf, "_diagonalize", lambda field, d: calls.append(field) or diagonalize(field, d))
    r, t, chain = rnf_transform(a)
    assert len(calls) == 1 and tuple(f.degree for f in chain) == tuple(parts)
    assert sympy_chain(a) == [list(f.coeffs) for f in chain]
    assert (r, t, chain) == rule_transform(a)
