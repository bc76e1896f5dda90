"""Rational normal form with an explicit similarity transform.

The invariant-factor chain (P_1, ..., P_r), with P_{i+1} dividing P_i, is
computed by diagonalizing X*I - A over k[X] with exact row and column
operations (divide-with-remainder pivoting, smallest-degree pivot first).
Tracking the inverse of the accumulated row operations yields generators
of the cyclic summands of k^n viewed as a k[X]-module via A, and their
iterates under A assemble an invertible T with T^-1 * A * T = R.  Every
step is a rational operation in the entries of A, and the operation count
is polynomial in n.  The pair (R, T) is certified by A * T == T * R with
det T != 0, so no inverse is ever formed.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (
    BasisFailure,
    ChainViolation,
    DegreeZero,
    NonSquare,
    NotMonic,
)
from .fields import Field
from .matrix import Matrix, block_diagonal, similarity_defect
from .poly import Polynomial


class Partition:
    """Weakly decreasing positive integers; here, invariant-factor degrees."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


class RationalNormalForm:
    """The invariant-factor chain of a similarity class.

    Factors are monic of degree >= 1 and each one divides its predecessor;
    the first factor is the minimal polynomial of the class.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Polynomial]):
        factors = tuple(factors)
        if not factors:
            raise DegreeZero("at least one invariant factor is required")
        field = factors[0].field
        for f in factors:
            if f.field != field:
                raise ChainViolation("invariant factors must share one field")
            if f.degree < 1:
                raise DegreeZero(f"invariant factors must have degree >= 1, got {f!r}")
            if not f.is_monic():
                raise NotMonic(f"invariant factors must be monic, got {f!r}")
        for a, b in zip(factors, factors[1:]):
            if not (a % b).is_zero():
                raise ChainViolation(f"{b} does not divide {a}")
        self.factors = factors

    @property
    def field(self) -> Field:
        return self.factors[0].field

    @property
    def n(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def minimal_polynomial(self) -> Polynomial:
        return self.factors[0]

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def __eq__(self, other):
        if isinstance(other, RationalNormalForm):
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        inner = ", ".join(str(f) for f in self.factors)
        return f"RationalNormalForm({inner})"


def companion(p: Polynomial) -> Matrix:
    """Companion matrix B(P): ones on the subdiagonal, last column the
    negated coefficients of monic P, so B(X^2 - d*X - e) = [[0, e], [1, d]].
    """
    if p.degree < 1:
        raise DegreeZero(f"companion matrix needs degree >= 1, got {p!r}")
    if not p.is_monic():
        raise NotMonic(f"companion matrix needs a monic polynomial, got {p!r}")
    field = p.field
    d = p.degree
    zero, one, neg = field.zero, field.one, field.neg
    rows = [[zero] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i + 1][i] = one
    for i in range(d):
        rows[i][d - 1] = neg(p.coeffs[i])
    return Matrix._raw(field, rows)


def assemble_rnf_matrix(rnf: RationalNormalForm) -> Matrix:
    """Block-diagonal matrix of the companions of the invariant factors."""
    return block_diagonal([companion(f) for f in rnf.factors])


def partition_of(rnf: RationalNormalForm) -> Partition:
    """Degrees of the invariant factors (weakly decreasing by the chain)."""
    return Partition([f.degree for f in rnf.factors])


# ---------------------------------------------------------------------------
# Diagonalization of X*I - A over k[X].
#
# Polynomial entries are raw coefficient lists (ascending, no trailing
# zeros, zero = []).  Row operations are mirrored on the columns of the
# inverse of their accumulated product, which is what the generator
# extraction needs.
# ---------------------------------------------------------------------------


def _char_matrix(a: Matrix) -> list[list[list]]:
    field = a.field
    neg, is_zero, zero, one = field.neg, field.is_zero, field.zero, field.one
    m = a.nrows
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            e = a._rows[i][j]
            if i == j:
                row.append([neg(e), one])
            elif is_zero(e):
                row.append([])
            else:
                row.append([neg(e)])
        out.append(row)
    return out


def _diagonalize(field: Field, d: list[list[list]], track: bool):
    """Reduce a square polynomial matrix to diagonal form d_1 | d_2 | ...

    Returns (diagonal coefficient lists, winv) where winv is the inverse of
    the accumulated row-operation product (or None when not tracked).  The
    diagonal entries are monic; the input must be nonsingular over k(X),
    which holds for every characteristic matrix.
    """
    ops = field.poly_ops()
    padd, psub, pmul, pdivmod, pscale = ops.add, ops.sub, ops.mul, ops.divmod, ops.scale
    one, neg_one = field.one, field.neg(field.one)
    m = len(d)
    winv = None
    if track:
        winv = [[[one] if i == j else [] for j in range(m)] for i in range(m)]

    def row_addmul(i, j, q):
        # row_i -= q * row_j; mirrored as col_j += q * col_i on winv.
        rowi, rowj = d[i], d[j]
        for k in range(m):
            if rowj[k]:
                rowi[k] = psub(rowi[k], pmul(q, rowj[k]))
        if track:
            for k in range(m):
                if winv[k][i]:
                    winv[k][j] = padd(winv[k][j], pmul(q, winv[k][i]))

    def col_addmul(j, i, q):
        # col_j -= q * col_i; right-side operation, nothing to mirror.
        for k in range(m):
            if d[k][i]:
                d[k][j] = psub(d[k][j], pmul(q, d[k][i]))

    for t in range(m):
        while True:
            best = None
            for i in range(t, m):
                row = d[i]
                for j in range(t, m):
                    e = row[j]
                    if e and (best is None or len(e) < best[0]):
                        best = (len(e), i, j)
                        if len(e) == 1:
                            break
                if best is not None and best[0] == 1:
                    break
            if best is None:
                raise BasisFailure("singular polynomial matrix in normal-form reduction")
            _, bi, bj = best
            if bi != t:
                d[t], d[bi] = d[bi], d[t]
                if track:
                    for k in range(m):
                        winv[k][t], winv[k][bi] = winv[k][bi], winv[k][t]
            if bj != t:
                for k in range(m):
                    d[k][t], d[k][bj] = d[k][bj], d[k][t]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                e = d[i][t]
                if e:
                    q, r = pdivmod(e, pivot)
                    row_addmul(i, t, q)
                    if r:
                        dirty = True
            for j in range(t + 1, m):
                e = d[t][j]
                if e:
                    q, r = pdivmod(e, pivot)
                    col_addmul(j, t, q)
                    if r:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, m):
                    if row[j] and pdivmod(row[j], pivot)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, [neg_one])
        lead = d[t][t][-1]
        if lead != one:
            d[t][t] = pscale(d[t][t], field.inv(lead))
            if track:
                for k in range(m):
                    if winv[k][t]:
                        winv[k][t] = pscale(winv[k][t], lead)
    return [d[t][t] for t in range(m)], winv


def _chain(field: Field, diag: list[list], n: int) -> RationalNormalForm:
    """The chain read off a diagonal d_1 | d_2 | ..., largest factor first."""
    factors = [Polynomial._raw(field, c) for c in reversed(diag) if len(c) > 1]
    degrees = sum(f.degree for f in factors)
    if degrees != n:
        raise BasisFailure(f"invariant factors have total degree {degrees}, expected {n}")
    return RationalNormalForm(factors)


def invariant_factors(a: Matrix) -> RationalNormalForm:
    """The unique chain (P_1, ..., P_r), P_{i+1} | P_i, of the class of a."""
    if not a.is_square:
        raise NonSquare("invariant factors need a square matrix")
    diag, _ = _diagonalize(a.field, _char_matrix(a), track=False)
    return _chain(a.field, diag, a.nrows)


def rnf_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain): the normal form R of a, an invertible T with
    T^-1 * A * T = R, and the invariant factors of a.

    One diagonalization yields all three; the result is certified by
    :func:`similarity_defect` and BasisFailure is raised if it fails.
    """
    if not a.is_square:
        raise NonSquare("normal-form transform needs a square matrix")
    field = a.field
    n = a.nrows
    diag, winv = _diagonalize(field, _char_matrix(a), track=True)
    chain = _chain(field, diag, n)
    add, zero = field.add, field.zero

    columns = []
    for t in range(n - 1, -1, -1):
        deg = len(diag[t]) - 1
        if deg == 0:
            continue
        # Generator of the cyclic summand with annihilator diag[t]: evaluate
        # column t of winv at A against the standard basis (Horner on vectors).
        v = [zero] * n
        for j in range(n):
            w = winv[j][t]
            if not w:
                continue
            u = [zero] * n
            for c in reversed(w):
                u = a.mul_vector_raw(u)
                u[j] = add(u[j], c)
            v = [add(x, y) for x, y in zip(v, u)]
        col = v
        columns.append(col)
        for _ in range(deg - 1):
            col = a.mul_vector_raw(col)
            columns.append(col)

    t_mat = Matrix._raw(field, [[col[i] for col in columns] for i in range(n)])
    r_mat = assemble_rnf_matrix(chain)
    defect = similarity_defect(a, r_mat, t_mat)
    if defect is not None:
        raise BasisFailure(f"normal-form transform failed its certificate: {defect}")
    return r_mat, t_mat, chain
