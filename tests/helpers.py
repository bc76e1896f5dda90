"""Shared test utilities: deterministic random objects and small oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import matcanon.rnf as rnf
from matcanon import FieldMismatch, Matrix, Polynomial


def iter_partitions(n: int, cap: int | None = None):
    """All weakly decreasing partitions of n, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


def rand_scalar_raw(field, rng: random.Random):
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_matrix(field, n: int, rng: random.Random, ncols: int | None = None) -> Matrix:
    ncols = n if ncols is None else ncols
    return Matrix(field, [[rand_scalar_raw(field, rng) for _ in range(ncols)] for _ in range(n)])


def rand_block_triangular(field, n: int, m: int, rng: random.Random) -> Matrix:
    """A random [[B, C], [0, D]] with B of size m: e_1, ..., e_m span an
    invariant subspace."""
    rows = rand_matrix(field, n, rng)._rows
    return Matrix(field, [[0 if i >= m and j < m else x for j, x in enumerate(row)]
                          for i, row in enumerate(rows)])


def rand_invertible(field, n: int, rng: random.Random) -> Matrix:
    while True:
        m = rand_matrix(field, n, rng)
        if m.is_invertible():
            return m


def rand_monic(field, degree: int, rng: random.Random) -> Polynomial:
    coeffs = [rand_scalar_raw(field, rng) for _ in range(degree)] + [1]
    return Polynomial(field, coeffs)


def unit_krylov(a: Matrix, k: int = 0) -> Matrix:
    """[e_k, A*e_k, ..., A^(n-1)*e_k], e_k the unit vector of index k (from
    0): the transform of a matrix whose first cyclic unit vector is e_k."""
    columns = [Matrix.identity(a.field, a.nrows).column_raw(k)]
    for _ in range(a.nrows - 1):
        columns.append(a.mul_vector_raw(columns[-1]))
    return Matrix.from_columns(a.field, columns)


def first_cyclic_unit(a: Matrix) -> int | None:
    """The index of the first unit vector whose Krylov basis is invertible,
    by brute force over the field of a, or None if there is none."""
    return next((k for k in range(a.nrows) if unit_krylov(a, k).is_invertible()), None)


def _conductor(a: Matrix, columns: list[list], x: list):
    """(f, w): the conductor of x into the span W of ``columns`` (independent),
    the monic f of least degree with f(A)*x in W, found by ranks, and the
    coordinates w of f(A)*x in ``columns``, read off a kernel vector."""
    field = a.field
    iterates = [x]
    while Matrix.from_columns(field, columns + iterates).rank() == len(columns) + len(iterates):
        iterates.append(a.mul_vector_raw(iterates[-1]))
    v = Matrix.from_columns(field, columns + iterates).rank_and_kernel()[1][0].column_raw(0)
    v = [field.div(c, v[-1]) for c in v]
    return Polynomial(field, v[len(columns):]), [field.neg(c) for c in v[:len(columns)]]


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    while not g.is_zero():
        f, g = g, f % g
    return f // Polynomial.constant(f.field, f.coeffs[-1])


def _apply(a: Matrix, q: Polynomial, v: list) -> list:
    return poly_eval_matrix(q, a).mul_vector_raw(v)


def rule_transform(a: Matrix):
    """(R, T, chain) by the rule for T, computed plainly over the field of a
    (over Q, in Fractions), conductors by ranks.

    With W the span of the blocks so far, the next invariant factor P is
    the lcm of the conductors of the unit vectors into W.  x is the first
    unit vector whose conductor is P, else the lcm merge of the unit vectors
    outside W in index order: x, y with conductors f, g become
    f2(A)*x + g2(A)*y, where f1 = gcd(f, (f / gcd(f, g))^n), f = f1*f2 and
    g = g2*lcm(f, g)/f1.  Then P(A)*x is the sum of h_i(A)*g_i over the
    generators so far, and the generator is x - sum of (h_i/P)(A)*g_i."""
    field, n = a.field, a.nrows
    units = [Matrix.identity(field, n).column_raw(j) for j in range(n)]
    columns, blocks, factors = [], [], []
    while len(columns) < n:
        outside = [(u, f) for u in units for f in [_conductor(a, columns, u)[0]] if f.degree]
        p = outside[0][1]
        for _, f in outside[1:]:
            p = p * f // _gcd(p, f)
        x = next((u for u, f in outside if f == p), None)
        if x is None:
            x, f = outside[0]
            for y, g in outside[1:]:
                lcm_fg = f * g // _gcd(f, g)
                if lcm_fg.degree > f.degree:
                    f1 = _gcd(f, (f // _gcd(f, g)) ** n)
                    x = [field.add(s, t) for s, t in zip(_apply(a, f // f1, x), _apply(a, g * f1 // lcm_fg, y))]
                    f = lcm_fg
        f, w = _conductor(a, columns, x)
        assert f == p
        correction = [field.zero] * len(columns)
        for start, length in blocks:
            q, r = divmod(Polynomial(field, w[start:start + length]), p)
            assert r.is_zero()
            correction[start:start + len(q.coeffs)] = q.coeffs
        g = [field.sub(s, t) for s, t in zip(x, Matrix.from_columns(field, columns).mul_vector_raw(correction))] \
            if columns else x
        blocks.append((len(columns), p.degree))
        columns.append(g)
        for _ in range(p.degree - 1):
            columns.append(a.mul_vector_raw(columns[-1]))
        factors.append(p)
    chain = rnf.RationalNormalForm(factors)
    return rnf.assemble_rnf_matrix(chain), Matrix.from_columns(field, columns), chain


def poly_eval_matrix(p: Polynomial, a: Matrix) -> Matrix:
    """Horner evaluation of a polynomial at a square matrix."""
    acc = Matrix.zeros(a.field, a.nrows, a.ncols)
    ident = Matrix.identity(a.field, a.nrows)
    for c in reversed(p.coeffs):
        acc = acc * a + ident.scale(c)
    return acc


def charpoly_oracle(a: Matrix) -> Polynomial:
    """Characteristic polynomial det(X*I - A) by cofactor expansion over
    polynomial entries; independent of the elimination-based machinery."""
    field = a.field
    x = Polynomial.x(field)
    entries = [
        [
            (x - Polynomial.constant(field, a[i, j]))
            if i == j
            else -Polynomial.constant(field, a[i, j])
            for j in range(a.ncols)
        ]
        for i in range(a.nrows)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = Polynomial(field)
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = rows[0][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(entries, list(range(a.ncols)))


def minimal_polynomial_oracle(a: Matrix) -> Polynomial:
    """Lowest-degree monic annihilator of A, found as the first linear
    dependence among the flattened powers I, A, A^2, ..."""
    field = a.field
    n = a.nrows
    power = Matrix.identity(field, n)
    cols = [[power[i, j].value for i in range(n) for j in range(n)]]
    for d in range(1, n + 1):
        power = power * a
        cols.append([power[i, j].value for i in range(n) for j in range(n)])
        _, kernel = Matrix.from_columns(field, cols).rank_and_kernel()
        if kernel:
            v = kernel[0]
            lead = v[d, 0]
            assert not lead.is_zero(), "dependence among lower powers was missed"
            return Polynomial(field, [(v[k, 0] / lead).value for k in range(d)] + [1])
    raise AssertionError("no annihilator up to degree n; impossible")


# ---------------------------------------------------------------------------
# Reference elimination: the full Gauss-Jordan reduction that matcanon used
# before its one forward pass, kept as an oracle for rank, kernel and inverse.
# ---------------------------------------------------------------------------


def gauss_jordan(field, rows: list[list]) -> list[int]:
    """In-place reduced row echelon form of raw rows; returns the pivot columns.

    Pivots are the first nonzero entry in column order; every pivot row is
    normalized and its column cleared above and below.
    """
    sub, mul, is_zero = field.sub, field.mul, field.is_zero
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv_p = field.inv(rows[r][c])
        rows[r] = [mul(x, inv_p) for x in rows[r]]
        for i in range(nrows):
            if i != r and not is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [sub(x, mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def reference_rank_and_kernel(a: Matrix) -> tuple[int, list[list]]:
    """Rank and the kernel basis (1 at its free column, 0 at the others),
    read off the reduced row echelon form, as raw column lists."""
    field = a.field
    rows = [list(row) for row in a._rows]
    pivots = gauss_jordan(field, rows)
    basis = []
    for free in range(a.ncols):
        if free in pivots:
            continue
        v = [field.zero] * a.ncols
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(rows[r][free])
        basis.append(v)
    return len(pivots), basis


def submatrix(a: Matrix, row_start: int, row_stop: int, col_start: int, col_stop: int) -> Matrix:
    """The block of rows row_start..row_stop-1 and columns col_start..col_stop-1."""
    return Matrix._raw(a.field, [row[col_start:col_stop] for row in a._rows[row_start:row_stop]])


def reference_inverse(a: Matrix) -> Matrix | None:
    """Inverse from the reduced form of [A | I], or None when A is singular."""
    field, n = a.field, a.nrows
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(a._rows)]
    if gauss_jordan(field, aug) != list(range(n)):
        return None
    return Matrix._raw(field, [row[n:] for row in aug])


def permutation_sign(perm) -> int:
    """+1 or -1 by the parity of the inversions of perm."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_det(a: Matrix):
    """Raw determinant as the signed sum over all permutations (small n only)."""
    field = a.field
    total = field.zero
    for perm in permutations(range(a.nrows)):
        term = field.one
        for i, j in enumerate(perm):
            term = field.mul(term, a._rows[i][j])
        total = field.add(total, term) if permutation_sign(perm) > 0 else field.sub(total, term)
    return total


# ---------------------------------------------------------------------------
# Reference Hom spaces: the full intertwiner system that matcanon solved
# before it worked from a Krylov basis of the first members.
# ---------------------------------------------------------------------------


def intertwiner_system(m, m2) -> Matrix:
    """Coefficient matrix of f*m_i = m2_i*f over the n2*n unknowns of f,
    f[a][b] at column a*n + b: 2*n2*n equations."""
    if m.field != m2.field:
        raise FieldMismatch("pairs must share one field")
    field = m.field
    n, n2 = m.size, m2.size
    rows = []
    for mi, ti in ((m.m1, m2.m1), (m.m2, m2.m2)):
        for a in range(n2):
            for c in range(n):
                row = [field.zero] * (n2 * n)
                for b in range(n):
                    row[a * n + b] = field.add(row[a * n + b], mi._rows[b][c])
                for b in range(n2):
                    row[b * n + c] = field.sub(row[b * n + c], ti._rows[a][b])
                rows.append(row)
    return Matrix._raw(field, rows)


def reference_intertwiners(m, m2) -> list[Matrix]:
    """The Gauss-Jordan kernel basis of :func:`intertwiner_system`, each
    vector read back row by row as an n2 x n map."""
    n, n2 = m.size, m2.size
    _, kernel = reference_rank_and_kernel(intertwiner_system(m, m2))
    return [Matrix._raw(m.field, [v[a * n:(a + 1) * n] for a in range(n2)]) for v in kernel]


def reference_hadamard_square(m, m2) -> int:
    """The product of ``pairs._hadamard_factors`` as it was first written:
    each equation of :func:`intertwiner_system` built row by row and scaled
    to integers on its own."""
    h2 = 1
    for mi, ti in ((m.m1, m2.m1), (m.m2, m2.m2)):
        cols = list(zip(*mi._rows))
        for a, t_row in enumerate(ti._rows):
            for c, col in enumerate(cols):
                row = [x for b, x in enumerate(col) if b != c]
                row += [x for b, x in enumerate(t_row) if b != a]
                row.append(col[c] - t_row[a])
                scale = lcm(*(x.denominator for x in row))
                h2 *= max(1, sum((x.numerator * (scale // x.denominator)) ** 2 for x in row))
    return h2
