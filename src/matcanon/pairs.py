"""Trace-zero 2x2 matrix pairs under simultaneous conjugation.

The map sending a pair (A, B) to (det A, tr AB, det B) is constant on
conjugation orbits.  Off the vanishing locus of x1*x3*(x2^2 - 4*x1*x3)
the orbits are exactly the fibres, and each fibre meets the two-parameter
family Q of normalized pairs (A upper triangular with superdiagonal 1,
B lower triangular) in four points in odd characteristic and one point in
characteristic 2.  This module computes the invariants, the fibre points,
the reduction of a pair to Q, Hom spaces between pairs of square matrices
of any size, the fixed simple pair used for splitting, and the change of
basis that splits one copy of that simple pair off a larger pair.
"""

from __future__ import annotations

from .errors import (
    BasisFailure,
    DegenerateComposite,
    DegenerateDiagonal,
    DimensionMismatch,
    EigenvaluesMissingInField,
    FieldMismatch,
    NotInW,
    NotInY,
    RootsMissingInField,
    SingularMatrix,
    TraceNonzero,
)
from .fields import Field, Scalar, sqrt_if_exists
from .matrix import Matrix, block_diagonal


class Sl2Pair:
    """A pair of 2x2 trace-zero matrices over one field."""

    __slots__ = ("a", "b")

    def __init__(self, a: Matrix, b: Matrix):
        for m in (a, b):
            if (m.nrows, m.ncols) != (2, 2):
                raise DimensionMismatch("pair members must be 2x2")
        if a.field != b.field:
            raise FieldMismatch("pair members must share one field")
        if not a.trace().is_zero() or not b.trace().is_zero():
            raise TraceNonzero("pair members must have trace zero")
        self.a = a
        self.b = b

    @property
    def field(self) -> Field:
        return self.a.field

    def conjugated_by(self, g: Matrix) -> "Sl2Pair":
        gi = g.inverse()
        return Sl2Pair(gi * self.a * g, gi * self.b * g)

    def to_point(self) -> "PairPoint":
        return PairPoint(self.a, self.b)

    def __eq__(self, other):
        if isinstance(other, Sl2Pair):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Sl2Pair(over {self.field})"


class InvariantTriple:
    """(det A, tr AB, det B) of a trace-zero pair."""

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1: Scalar, x2: Scalar, x3: Scalar):
        if x1.field != x2.field or x2.field != x3.field:
            raise FieldMismatch("triple components must share one field")
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3

    @property
    def field(self) -> Field:
        return self.x1.field

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def __eq__(self, other):
        if isinstance(other, InvariantTriple):
            return (self.x1, self.x2, self.x3) == (other.x1, other.x2, other.x3)
        return NotImplemented

    def __hash__(self):
        return hash((self.x1, self.x2, self.x3))

    def __repr__(self):
        return f"InvariantTriple({self.x1}, {self.x2}, {self.x3})"


class QForm:
    """Normalized pair A = [[a11, 1], [0, -a11]], B = [[b11, 0], [b21, -b11]]
    with a11 * b11 * b21 * (4*a11*b11 + b21) != 0."""

    __slots__ = ("a11", "b11", "b21")

    def __init__(self, a11: Scalar, b11: Scalar, b21: Scalar):
        if a11.field != b11.field or b11.field != b21.field:
            raise FieldMismatch("QForm coordinates must share one field")
        gate = a11 * b11 * b21 * (a11 * b11 * 4 + b21)
        if gate.is_zero():
            raise ValueError(f"({a11}, {b11}, {b21}) violates the Q inequality")
        self.a11 = a11
        self.b11 = b11
        self.b21 = b21

    @property
    def field(self) -> Field:
        return self.a11.field

    def realize(self) -> Sl2Pair:
        field = self.field
        a = Matrix(field, [[self.a11, 1], [0, -self.a11]])
        b = Matrix(field, [[self.b11, 0], [self.b21, -self.b11]])
        return Sl2Pair(a, b)

    def __eq__(self, other):
        if isinstance(other, QForm):
            return (self.a11, self.b11, self.b21) == (other.a11, other.b11, other.b21)
        return NotImplemented

    def __hash__(self):
        return hash((self.a11, self.b11, self.b21))

    def __repr__(self):
        return f"QForm({self.a11}, {self.b11}, {self.b21})"


def _det2(m: Matrix) -> Scalar:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def invariants(pair: Sl2Pair) -> InvariantTriple:
    """(det A, tr AB, det B); unchanged under simultaneous conjugation."""
    ab = pair.a * pair.b
    return InvariantTriple(_det2(pair.a), ab.trace(), _det2(pair.b))


def g_value(y: InvariantTriple) -> Scalar:
    """x1 * x3 * (x2^2 - 4*x1*x3); the triple lies in Y iff this is nonzero."""
    return y.x1 * y.x3 * (y.x2 * y.x2 - y.x1 * y.x3 * 4)


def q_points(y: InvariantTriple) -> list[QForm]:
    """All points of Q in the fibre over y, sorted by (a11, b11).

    There are four in odd characteristic (two square-root choices each for
    a11 and b11) and exactly one in characteristic 2.
    """
    if g_value(y).is_zero():
        raise NotInY(f"{y!r} lies outside Y")
    roots_a = sqrt_if_exists(-y.x1)
    roots_b = sqrt_if_exists(-y.x3)
    if roots_a is None or roots_b is None:
        raise RootsMissingInField(
            f"square roots of {-y.x1} and {-y.x3} are needed in {y.field}"
        )
    points = [
        QForm(a11, b11, y.x2 - b11 * a11 * 2)
        for a11 in roots_a
        for b11 in roots_b
    ]
    points.sort(key=lambda q: (q.a11.sort_key(), q.b11.sort_key()))
    return points


def _eigenvector_raw(m: Matrix, lam: Scalar) -> Matrix | None:
    """Canonical eigenvector for eigenvalue lam, first nonzero entry 1."""
    shifted = m - Matrix.identity(m.field, m.nrows).scale(lam)
    _, kernel = shifted.rank_and_kernel()
    if not kernel:
        return None
    v = kernel[0]
    first = next(x for x in v.column_raw(0) if not m.field.is_zero(x))
    return v.scale(m.field.inv(first))


def common_eigenvector(pair: Sl2Pair) -> Matrix | None:
    """A simultaneous eigenvector of the pair (as a 2x1 matrix), or None.

    Eigenvalue candidates of each member are the square roots of minus its
    determinant; both members must have eigenvalues in the field.  The
    candidates are scanned in canonical root order and the first common
    eigendirection found is returned, normalized to leading entry 1.
    """
    roots_a = sqrt_if_exists(-_det2(pair.a))
    roots_b = sqrt_if_exists(-_det2(pair.b))
    if roots_a is None or roots_b is None:
        raise EigenvaluesMissingInField(
            "pair members have no eigenvalues in the working field"
        )
    field = pair.field
    ident = Matrix.identity(field, 2)
    for lam in roots_a:
        sa = pair.a - ident.scale(lam)
        for mu in roots_b:
            sb = pair.b - ident.scale(mu)
            stacked = Matrix._raw(field, list(sa._rows) + list(sb._rows))
            _, kernel = stacked.rank_and_kernel()
            if kernel:
                v = kernel[0]
                first = next(x for x in v.column_raw(0) if not field.is_zero(x))
                return v.scale(field.inv(first))
    return None


def reduce_to_q(pair: Sl2Pair) -> tuple[Matrix, QForm]:
    """Change of basis g and the point q of Q with g^-1 * pair * g = q.

    The sheet is fixed deterministically: a11 is the canonical (first)
    square root of -x1 and b11 the canonical square root of -x3.
    """
    y = invariants(pair)
    if g_value(y).is_zero():
        raise NotInY(f"{y!r} lies outside Y")
    roots_a = sqrt_if_exists(-y.x1)
    roots_b = sqrt_if_exists(-y.x3)
    if roots_a is None or roots_b is None:
        raise EigenvaluesMissingInField(
            f"square roots of {-y.x1} and {-y.x3} are needed in {y.field}"
        )
    a11, b11 = roots_a[0], roots_b[0]
    v1 = _eigenvector_raw(pair.a, a11)
    w1 = _eigenvector_raw(pair.b, -b11)
    if v1 is None or w1 is None:
        raise BasisFailure("an eigenvector of the reduction is missing")
    # A*w1 = x*v1 - a11*w1 with x != 0 (otherwise w1 would be a common
    # eigenvector, impossible over Y); rescale v1 by x.
    u = pair.a * w1 + w1.scale(a11)
    field = pair.field
    i0 = next(i for i in range(2) if not field.is_zero(v1.column_raw(0)[i]))
    x = Scalar(field, field.div(u.column_raw(0)[i0], v1.column_raw(0)[i0]))
    if x.is_zero() or u != v1.scale(x):
        raise BasisFailure("A*w1 + a11*w1 is not a nonzero multiple of v1")
    g = Matrix.from_columns(field, [v1.scale(x).column_raw(0), w1.column_raw(0)])
    gi = g.inverse()
    qa, qb = gi * pair.a * g, gi * pair.b * g
    if qa != Matrix(field, [[a11, 1], [0, -a11]]):
        raise BasisFailure("the reduced first member is not in Q")
    q = QForm(a11, qb[0, 0], qb[1, 0])
    if qb != Matrix(field, [[q.b11, 0], [q.b21, -q.b11]]):
        raise BasisFailure("the reduced second member is not in Q")
    return g, q


# ---------------------------------------------------------------------------
# Pairs of arbitrary size: Hom spaces and splitting off the fixed simple.
# ---------------------------------------------------------------------------


class PairPoint:
    """A pair (m1, m2) of n x n matrices: a module over two free generators."""

    __slots__ = ("m1", "m2")

    def __init__(self, m1: Matrix, m2: Matrix):
        if not m1.is_square or not m2.is_square or m1.nrows != m2.nrows:
            raise DimensionMismatch("pair members must be square of equal size")
        if m1.field != m2.field:
            raise FieldMismatch("pair members must share one field")
        self.m1 = m1
        self.m2 = m2

    @property
    def field(self) -> Field:
        return self.m1.field

    @property
    def size(self) -> int:
        return self.m1.nrows

    def direct_sum(self, other: "PairPoint") -> "PairPoint":
        return PairPoint(
            block_diagonal([self.m1, other.m1]),
            block_diagonal([self.m2, other.m2]),
        )

    def conjugated_by(self, g: Matrix) -> "PairPoint":
        gi = g.inverse()
        return PairPoint(gi * self.m1 * g, gi * self.m2 * g)

    def __eq__(self, other):
        if isinstance(other, PairPoint):
            return self.m1 == other.m1 and self.m2 == other.m2
        return NotImplemented

    def __hash__(self):
        return hash((self.m1, self.m2))

    def __repr__(self):
        return f"PairPoint({self.size}x{self.size} over {self.field})"


def _intertwiner_system(m: PairPoint, m2: PairPoint) -> Matrix:
    """Coefficient matrix of f*m_i = m2_i*f over the n2*n unknowns of f."""
    if m.field != m2.field:
        raise FieldMismatch("pairs must share one field")
    field = m.field
    n, n2 = m.size, m2.size
    add, sub, zero = field.add, field.sub, field.zero
    rows = []
    for mi, ti in ((m.m1, m2.m1), (m.m2, m2.m2)):
        mi_rows, ti_rows = mi._rows, ti._rows
        for a in range(n2):
            for c in range(n):
                row = [zero] * (n2 * n)
                for b in range(n):
                    row[a * n + b] = add(row[a * n + b], mi_rows[b][c])
                for b in range(n2):
                    row[b * n + c] = sub(row[b * n + c], ti_rows[a][b])
                rows.append(row)
    return Matrix._raw(field, rows)


def hom_dimension(m: PairPoint, m2: PairPoint) -> int:
    """dim Hom(M, M2) = n*n2 - rank of the intertwiner system."""
    system = _intertwiner_system(m, m2)
    return m.size * m2.size - system.rank()


def intertwiners(m: PairPoint, m2: PairPoint) -> list[Matrix]:
    """Basis of the space of f (size n2 x n) with f*m_i = m2_i*f."""
    system = _intertwiner_system(m, m2)
    _, kernel = system.rank_and_kernel()
    n, n2 = m.size, m2.size
    out = []
    for v in kernel:
        flat = v.column_raw(0)
        out.append(Matrix._raw(m.field, [flat[a * n:(a + 1) * n] for a in range(n2)]))
    return out


def simple_pair(n: int, field: Field) -> PairPoint:
    """The fixed simple pair of size n-2: diag(1, ..., n-2) and the cyclic
    permutation; requires the diagonal entries to stay distinct in the field."""
    if n < 3:
        raise DimensionMismatch("the simple pair exists for n >= 3")
    m = n - 2
    p = field.characteristic
    if p and m > p:
        raise DegenerateDiagonal(f"diagonal entries 1..{m} collide modulo {p}")
    s1 = Matrix(field, [[i + 1 if i == j else 0 for j in range(m)] for i in range(m)])
    zero, one = field.zero, field.one
    s2_rows = [[zero] * m for _ in range(m)]
    for i in range(m):
        s2_rows[(i + 1) % m][i] = one
    return PairPoint(s1, Matrix._raw(field, s2_rows))


def _leading_one(m: Matrix) -> Matrix:
    field = m.field
    first = next((x for row in m._rows for x in row if not field.is_zero(x)), None)
    if first is None:
        raise BasisFailure("zero intertwiner where a generator was expected")
    return m.scale(field.inv(first))


def split_off_simple(m: PairPoint) -> tuple[PairPoint, Matrix]:
    """Split one copy of the fixed simple pair off m.

    Requires dim Hom(S, M) = dim Hom(M, S) = 1 and a nonzero composite of
    the two generators; then the basis (f*e_1, ..., f*e_{n-2}, y1, y2),
    with y1, y2 spanning ker g, turns m into the exact block diagonal
    s (+) t and the 2x2 tail t is returned together with the basis matrix.
    """
    n = m.size
    s = simple_pair(n, m.field)
    maps_in = intertwiners(s, m)
    maps_out = intertwiners(m, s)
    if len(maps_in) != 1 or len(maps_out) != 1:
        raise NotInW(
            f"need hom dimensions (1, 1), got ({len(maps_in)}, {len(maps_out)})"
        )
    f = _leading_one(maps_in[0])
    g = _leading_one(maps_out[0])
    if (g * f).is_zero():
        raise DegenerateComposite("the composite of the Hom generators is zero")
    _, kernel = g.rank_and_kernel()
    if len(kernel) != 2:
        raise BasisFailure(f"ker g has dimension {len(kernel)}, expected 2")
    columns = [f.column_raw(j) for j in range(n - 2)]
    columns += [v.column_raw(0) for v in kernel]
    h = Matrix.from_columns(m.field, columns)
    try:
        hi = h.inverse()
    except SingularMatrix as exc:
        raise BasisFailure("assembled basis is not invertible") from exc
    tails = []
    for mi, si in ((m.m1, s.m1), (m.m2, s.m2)):
        c = hi * mi * h
        if c.submatrix(0, n - 2, 0, n - 2) != si:
            raise BasisFailure("leading block does not reproduce the simple pair")
        if not c.submatrix(n - 2, n, 0, n - 2).is_zero() or not c.submatrix(0, n - 2, n - 2, n).is_zero():
            raise BasisFailure("off-diagonal blocks did not vanish")
        tails.append(c.submatrix(n - 2, n, n - 2, n))
    return PairPoint(tails[0], tails[1]), h
