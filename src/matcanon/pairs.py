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

Every Hom space, and so every change of basis here, comes from
``intertwiners``.  A map f with f*m_i = m2_i*f is fixed by its values on
the generators of a spin of one pair (the one with fewer generators, the
smaller on equal counts), a basis of m1-chains on the Krylov engine of
``matrix``, and the relations of the spin cut those values down one at a
time, on words in the other pair's members formed in the coordinates of
the values left, each when a relation first reads it; over Q this runs
modulo primes.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import mul as _mul

from .errors import (
    BasisFailure,
    DegenerateComposite,
    DegenerateDiagonal,
    DimensionMismatch,
    FieldMismatch,
    NotInW,
    NotInY,
    RootsMissingInField,
    SingularMatrix,
    TraceNonzero,
)
from .fields import GF, Field, Scalar, sqrt_if_exists
from .matrix import Matrix, _Span, _back_substitute, _chain, _clear_above, _echelon, _hadamard_bits
from .matrix import _lift_kernel, _mod_rows, _over_one_denominator, _product, _unit, block_diagonal, similarity_defect


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
        return type(self)(gi * self.m1 * g, gi * self.m2 * g)

    def __eq__(self, other):
        if isinstance(other, PairPoint):
            return self.m1 == other.m1 and self.m2 == other.m2
        return NotImplemented

    def __hash__(self):
        return hash((self.m1, self.m2))

    def __repr__(self):
        return f"{type(self).__name__}({self.size}x{self.size} over {self.field})"


class Sl2Pair(PairPoint):
    """A pair of 2x2 trace-zero matrices over one field; a and b name m1 and m2."""

    __slots__ = ()

    def __init__(self, a: Matrix, b: Matrix):
        for m in (a, b):
            if (m.nrows, m.ncols) != (2, 2):
                raise DimensionMismatch("pair members must be 2x2")
        super().__init__(a, b)
        if not a.trace().is_zero() or not b.trace().is_zero():
            raise TraceNonzero("pair members must have trace zero")

    @property
    def a(self) -> Matrix:
        return self.m1

    @property
    def b(self) -> Matrix:
        return self.m2


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

    def invariants(self) -> InvariantTriple:
        """The triple of the realized pair, read off the coordinates:
        (-a11^2, 2*a11*b11 + b21, -b11^2)."""
        return InvariantTriple(-(self.a11 * self.a11), self.a11 * self.b11 * 2 + self.b21,
                               -(self.b11 * self.b11))

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
    """(det A, tr AB, det B); unchanged under simultaneous conjugation.

    Read off the entries, a11*a22 - a12*a21, the sum of a_ij*b_ji and
    b11*b22 - b12*b21, with no elimination or product kernel, so that no
    fault of those engines can change the triple unseen.
    """
    a, b = pair.a, pair.b
    tr = a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0] + a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]
    return InvariantTriple(_det2(a), tr, _det2(b))


def g_value(y: InvariantTriple) -> Scalar:
    """x1 * x3 * (x2^2 - 4*x1*x3); the triple lies in Y iff this is nonzero."""
    return y.x1 * y.x3 * (y.x2 * y.x2 - y.x1 * y.x3 * 4)


def _roots(y: InvariantTriple) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """The square roots of -x1 and of -x3, each canonical root first.

    They fix the sheets of Q over y, and for a trace-zero pair they are the
    eigenvalues of its members.  Raises RootsMissingInField if either is
    missing in the field.
    """
    roots_a = sqrt_if_exists(-y.x1)
    roots_b = sqrt_if_exists(-y.x3)
    if roots_a is None or roots_b is None:
        raise RootsMissingInField(
            f"square roots of {-y.x1} and {-y.x3} are needed in {y.field}"
        )
    return roots_a, roots_b


def q_points(y: InvariantTriple) -> list[QForm]:
    """All points of Q in the fibre over y, sorted by (a11, b11).

    There are four in odd characteristic (two square-root choices each for
    a11 and b11) and exactly one in characteristic 2.  Each point is checked
    to have the triple y, read off its coordinates, and BasisFailure is
    raised if one has not.
    """
    if g_value(y).is_zero():
        raise NotInY(f"{y!r} lies outside Y")
    roots_a, roots_b = _roots(y)
    points = [
        QForm(a11, b11, y.x2 - b11 * a11 * 2)
        for a11 in roots_a
        for b11 in roots_b
    ]
    points.sort(key=lambda q: (q.a11.value, q.b11.value))
    for q in points:
        if q.invariants() != y:
            raise BasisFailure(f"fibre point {q!r} has the triple {q.invariants()!r}, not {y!r}")
    return points


def _leading_one(m: Matrix, column: int | None = None) -> Matrix:
    """m scaled so that its first nonzero entry is 1: in row order, or down
    one column when ``column`` is given."""
    field = m.field
    entries = m.column_raw(column) if column is not None else (x for row in m._rows for x in row)
    first = next((x for x in entries if not field.is_zero(x)), None)
    if first is None:
        raise BasisFailure("zero intertwiner where a generator was expected")
    return m.scale(field.inv(first))


def common_eigenvector(pair: Sl2Pair) -> Matrix | None:
    """A simultaneous eigenvector of the pair (as a 2x1 matrix), or None.

    Eigenvalue candidates of each member are the square roots of minus its
    determinant; RootsMissingInField is raised unless both members have
    eigenvalues in the field.  The candidates are scanned in canonical
    root order, and the first nonzero Hom((lam, mu), pair) from a 1x1 pair
    gives the eigendirection, normalized to leading entry 1.
    """
    roots_a, roots_b = _roots(invariants(pair))
    field = pair.field
    for lam in roots_a:
        for mu in roots_b:
            maps = intertwiners(PairPoint(Matrix(field, [[lam]]), Matrix(field, [[mu]])), pair)
            if maps:
                return _leading_one(maps[0])
    return None


def reduce_to_q(pair: Sl2Pair) -> tuple[Matrix, QForm]:
    """Change of basis g and the point q of Q with g^-1 * pair * g = q.

    The sheet is fixed deterministically: a11 is the canonical (first)
    square root of -x1 and b11 the canonical square root of -x3.  Over Y
    the pair is absolutely simple, so Hom(q, pair) is one-dimensional; g is
    its generator, scaled so that the first nonzero entry of its second
    column is 1.  :func:`similarity_defect` certifies g against both
    members of q with one rank, and BasisFailure is raised if it fails.
    """
    y = invariants(pair)
    if g_value(y).is_zero():
        raise NotInY(f"{y!r} lies outside Y")
    roots_a, roots_b = _roots(y)
    a11, b11 = roots_a[0], roots_b[0]
    q = QForm(a11, b11, y.x2 - b11 * a11 * 2)
    target = q.realize()
    maps = intertwiners(target, pair)
    if len(maps) != 1:
        raise BasisFailure(f"Hom(q, pair) has dimension {len(maps)}, expected 1")
    g = _leading_one(maps[0], column=1)
    defect = similarity_defect((pair.a, pair.b), (target.a, target.b), g)
    if defect is not None:
        raise BasisFailure(f"reduction to Q failed its certificate: {defect}")
    return g, q


# ---------------------------------------------------------------------------
# Pairs of arbitrary size: Hom spaces and splitting off the fixed simple.
# ---------------------------------------------------------------------------


def hom_dimension(m: PairPoint, m2: PairPoint) -> int:
    """dim Hom(M, M2): the number of basis maps :func:`intertwiners` returns."""
    return len(intertwiners(m, m2))


def intertwiners(m: PairPoint, m2: PairPoint) -> list[Matrix]:
    """Basis of the space of f (size n2 x n) with f*m_i = m2_i*f.

    Read row by row, each map is 1 at its last nonzero entry and 0 at those
    of the others, sorted by that entry: the kernel basis of the system of
    these equations in the n2*n entries of f, whose free columns are the
    last nonzero entries.  Over GF(p) it is :func:`_hom_basis`, each map
    checked against both equations, else BasisFailure is raised.  Over Q it
    is the kernel lift of ``matrix._lift_kernel`` on :func:`_hom_basis`
    modulo primes that divide no denominator, those of width n*n2, so that
    the echelon form of the maps, its widest elimination, and the spins
    pack: a lift is proved by both equations checked in integers
    (:func:`_intertwines`) on the members put over one denominator each,
    once a call, and the primes stop past 4*H**6, H the Hadamard bound of
    the system scaled to integers (``matrix._hadamard_bits``).
    """
    if m.field != m2.field:
        raise FieldMismatch("pairs must share one field")
    field, n, n2 = m.field, m.size, m2.size
    members = (m.m1, m.m2, m2.m1, m2.m2)
    if field.characteristic:
        basis = _hom_basis(field, *(a._rows for a in members))
    else:
        scaled = [_over_one_denominator(a._rows) for a in members]
        den = lcm(*(d for d, _ in scaled))

        def kernel_at(p):
            return None if den % p == 0 else _hom_basis(GF(p), *(_mod_rows(d, ints, p) for d, ints in scaled))

        _, basis = _lift_kernel(
            kernel_at, lambda w: _intertwines([w[a * n:(a + 1) * n] for a in range(n2)], scaled[:2], scaled[2:]),
            lambda: _hadamard_bits(_hadamard_factors(m, m2)), n * n2)
    maps = [[v[a * n:(a + 1) * n] for a in range(n2)] for v in basis]
    if field.characteristic:
        # f*m_i == m2_i*f for every map f, in one product a side: the maps'
        # rows stacked times [m_1 | m_2], [m2_1; m2_2] times their columns.
        left = field.product(list(chain.from_iterable(maps)), [*zip(*m.m1._rows), *zip(*m.m2._rows)])
        right = field.product(m2.m1._rows + m2.m2._rows, [v[c::n] for v in basis for c in range(n)])
        if [row[i * n:(i + 1) * n] for i in (0, 1) for row in left] != [
                right[i * n2 + a][j * n:(j + 1) * n] for i in (0, 1) for j in range(len(maps)) for a in range(n2)]:
            raise BasisFailure("a Hom map fails f*m_i = m2_i*f")
    return [Matrix._raw(field, f) for f in maps]


def _intertwines(f: list[list[int]], source, target) -> bool:
    """Whether f*m_i == m2_i*f for i = 1, 2, in integers: f is an integer
    matrix F (a common denominator of f cancels), and m_i = S_i/d_i and
    m2_i = T_i/e_i are given as (d_i, S_i) and (e_i, T_i)
    (``matrix._over_one_denominator``), so the equation is
    F*S_i*e_i == T_i*F*d_i."""
    f_cols = list(zip(*f))
    for (d, s), (e, t) in zip(source, target):
        s_cols = list(zip(*s))
        if ([[e * sum(map(_mul, row, col)) for col in s_cols] for row in f]
                != [[d * sum(map(_mul, row, col)) for col in f_cols] for row in t]):
            return False
    return True


def _hadamard_factors(m: PairPoint, m2: PairPoint) -> list[int]:
    """The factors of H^2, H the Hadamard bound of the equations
    (f*m_i - m2_i*f)[a][c] = 0 scaled to integers: for each equation,
    max(1, the sum of the squares of its coefficients), m_i[b][c] for
    b != c, -m2_i[a][b] for b != a, and m_i[c][c] - m2_i[a][a].

    Equation (a, c) is scaled by L, the lcm of the denominators of column c
    of m_i off its diagonal, of row a of m2_i off its diagonal and of the
    diagonal difference, and its sum is L^2 times the sums of the squares
    of those three parts; the sums of the off-diagonal parts are taken once
    per column and row, from integer numerators and denominators.
    """

    def off_diagonal(lines):
        """(lcm d, the sum of (d*x)^2) over the entries x off the diagonal
        of each line, d the lcm of their denominators."""
        out = []
        for i, line in enumerate(lines):
            pairs = [(x.numerator, x.denominator) for b, x in enumerate(line) if b != i]
            d = lcm(*[q for _, q in pairs])
            out.append((d, sum((p * (d // q)) ** 2 for p, q in pairs)))
        return out

    factors = []
    for mi, ti in ((m.m1, m2.m1), (m.m2, m2.m2)):
        cols = off_diagonal(list(zip(*mi._rows)))
        rows = off_diagonal(ti._rows)
        for a, (ra, sa) in enumerate(rows):
            taa = ti._rows[a][a]
            for c, (rc, sc) in enumerate(cols):
                diff = mi._rows[c][c] - taa
                scale = lcm(rc, ra, diff.denominator)
                factors.append(max(1, sc * (scale // rc) ** 2 + sa * (scale // ra) ** 2
                                   + (diff.numerator * (scale // diff.denominator)) ** 2))
    return factors


def _hom_basis(field: Field, s1, s2, t1, t2) -> list[list]:
    """The basis of :func:`intertwiners` over GF(p) from the raw rows of
    M = (s1, s2) and M2 = (t1, t2), each map read row by row: the maps
    F * B^-1 of :func:`_spin_maps` on the spin of M, or on that of M2^T for
    f^T * t_i^T = s_i^T * f^T, whichever has fewer generators, the smaller
    on equal counts and M on a tie (the smaller is spun first, the other
    only if the first has more than one generator), in reduced echelon form
    with the entries read from the last, which depends on the space alone.
    """
    sides, spins = [(s1, s2, t1, t2), [list(zip(*a)) for a in (t1, t2, s1, s2)]], []
    for flip in (1, 0) if len(t1) < len(s1) else (0, 1):
        spin = _spin(field, *sides[flip][:2])
        spins.append((spin[1].count(None), len(spin[0]), flip, spin))
        if spins[-1][0] == 1:
            break
    _, _, flip, spin = min(spins, key=lambda x: x[:3])
    images, b_inv = _spin_maps(field, spin, *sides[flip][2:])
    if not images:
        return []
    # All the maps F * B^-1 in one product, which packs B^-1 once.
    h = len(images[0])
    stacked = _product(field, list(chain.from_iterable(images)), b_inv)
    maps = [stacked[k:k + h] for k in range(0, len(stacked), h)]
    if flip:
        maps = [list(zip(*f)) for f in maps]
    rows = [[x for row in reversed(f) for x in reversed(row)] for f in maps]
    pivots, rows = _echelon(field, rows)
    _clear_above(field, pivots, rows)
    return [row[::-1] for row in reversed(rows)]


def _spin(field: Field, s1, s2) -> tuple[list[list], list, list]:
    """(basis, origins, relations): a basis b_0, ..., b_(n-1) of k^n spun
    from the unit vectors under s1 and s2 (raw rows) as in the MeatAxe
    (Parker 1984; Holt, Eick & O'Brien 2005, ch. 7), in chain order: each
    s1-chain (``matrix._chain``) starts at the next s2*b, b taken in order,
    that leaves the span, or, once the span is closed under both members,
    at the next unit vector outside it, a generator.  ``origins[k]`` is None
    for a generator and (i, j) for b_k = s_i*b_j (i = 0 for s1, 1 for s2).
    ``relations`` holds (i, j, v) for each v = s_i*b_j that is not a basis
    vector: each chain's end and each s2*b in the span.
    """
    n, op1, op2 = len(s1), field.operator(s1), field.operator(s2)
    span = _Span(field)
    basis, origins, relations = [], [], []
    moved = unit = 0  # the next b whose s2*b is taken, and the next unit vector
    while len(span) < n:
        if moved < len(basis):
            iterates, origin = [op2(basis[moved])], (1, moved)
            moved += 1
        else:
            iterates, origin = _unit(field, s1, unit), None
            unit += 1
        m = len(span)
        _chain(span, op1, iterates)
        d = len(span) - m
        if d:
            basis += iterates[:d]
            origins += [origin] + [(0, k) for k in range(m, m + d - 1)]
            relations.append((0, m + d - 1, iterates[d]))
        elif origin is not None:
            relations.append((1, moved - 1, iterates[0]))
    relations += [(1, j, op2(basis[j])) for j in range(moved, n)]
    return basis, origins, relations


def _spin_maps(field: Field, spin, t1, t2) -> tuple[list[list], list[list]]:
    """(images, B^-1), B the matrix of the basis of the spin of (s1, s2)
    (:func:`_spin`), and images F = f*B for a basis of the f with
    f*s_i = t_i*f (raw rows).  b_k = s_i*b_j maps to P_k*w_l(k), w_l the
    image of generator l and P_k = t_i*P_j.  Each relation s_i*b_j = sum of
    c[k]*b_k, c read from B^-1 once B*B^-1 = I is checked, cuts the kernel
    K of those before by the n2 equations sum of c[k]*P_k*w_l(k) =
    t_i*P_j*w_l(j) (the MeatAxe; Holt, Eick & O'Brien 2005, ch. 7): in an
    echelon form while K has more than n2 columns, then on Q_k = P_k*K_l(k),
    times the kernel of the residual sum of c[k]*Q_k - t_i*Q_j.  The
    relations come in spin order and read only the b_k spun before them, so
    each word, P_k and then Q_k, is formed when a relation first reads it,
    as t_i times the word of b_j, column by column on one operator per t_i:
    once the first relations cut K to few columns, a word costs a few
    matrix-vector products.
    """
    basis, origins, relations = spin
    n2, ops = len(t1), (field.operator(t1), field.operator(t2))
    owners, starts = [], []  # l(k) and the first b of each generator
    for k, origin in enumerate(origins):
        owners.append(len(starts) if origin is None else owners[origin[1]])
        if origin is None:
            starts.append(k)
    b = list(zip(*basis))
    try:
        b_inv = Matrix._raw(field, b).inverse()._rows
    except SingularMatrix:  # only a broken span spins a dependent basis
        raise BasisFailure("the spin basis is singular") from None
    if Matrix._raw(field, _product(field, b, b_inv)) != Matrix.identity(field, len(b)):
        raise BasisFailure("the spin basis times its computed inverse is not the identity")
    width, span = len(starts) * n2, _Span(field)
    # The words as lists of columns, P_k = I at each generator; None until read.
    identity = Matrix.identity(field, n2)._rows
    words = [identity if origin is None else None for origin in origins]

    def form(top):  # the words of b_0, ..., b_(top-1)
        for k in range(top):
            if words[k] is None:
                i, j = origins[k]
                words[k] = [ops[i](col) for col in words[j]]

    def images():  # Q_k for K the kernel of the echelon form, its rows sorted by pivot
        rows = sorted(zip(span.pivots, span.rows))
        kernel = _back_substitute(field, [c for c, _ in rows], [r for _, r in rows], width)
        return [p and field.product([v[l * n2:(l + 1) * n2] for v in kernel], list(zip(*p)))
                for p, l in zip(words, owners)]

    staged = width > n2  # K has more than n2 columns: the words are the P_k
    combine = None  # (low, top, c[low:top] -> the sum of c[k]*W_k over the words W_k of b_low, ..., b_(top-1))
    for (i, j, _), c in zip(relations, field.product([v for _, _, v in relations], b_inv)):
        if not words[0]:  # K is empty
            return [], b_inv
        top = next((k for k in range(len(c) - 1, j, -1) if c[k]), j) + 1
        low = next((k for k in range(top) if c[k]), top - 1)
        form(top)
        if combine is None or combine[0] > low or combine[1] < top:  # packs the words once, until more are read or K is cut
            combine = low, top, field.operator(list(zip(*map(chain.from_iterable, words[low:top]))))
        low, top, op = combine
        lhs = [ops[i](col) for col in words[j]]
        if staged:  # n2 rows in the g*n2 unknowns, the sum of each generator's words
            parts = ([x if owners[k] == l else field.zero for k, x in enumerate(c[low:top], low)]
                     for l in range(len(starts)))
            sums = [op(part) if any(part) else [field.zero] * n2 * n2 for part in parts]
            sums[owners[j]] = list(map(field.sub, sums[owners[j]], chain.from_iterable(lhs)))
            for a in range(n2):
                span.add([x for part in sums for x in part[a::n2]])
            if len(span) >= width - n2:
                words, staged, combine = images(), False, None
            continue
        d, sums = len(lhs), op(c[low:top])
        residual = [list(map(field.sub, sums[e * n2:(e + 1) * n2], lhs[e])) for e in range(d)]
        if any(map(any, residual)):
            x = _back_substitute(field, *_echelon(field, list(zip(*residual))), d)
            # Every word read so far times X in one product, which packs X once.
            read = [k for k, p in enumerate(words) if p is not None]
            stacked = field.product(x, [row for k in read for row in zip(*words[k])])
            for h, k in enumerate(read):
                words[k] = [col[h * n2:(h + 1) * n2] for col in stacked]
            combine = None
    if staged:
        words = images()
    form(len(words))
    return [list(zip(*(p[e] for p in words))) for e in range(len(words[0]))], b_inv


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


def split_off_simple(m: PairPoint) -> tuple[PairPoint, Matrix]:
    """Split one copy of the fixed simple pair off m.

    Requires dim Hom(S, M) = dim Hom(M, S) = 1 and a nonzero composite of
    the two generators; then the basis (f*e_1, ..., f*e_{n-2}, y1, y2),
    with y1, y2 spanning ker g, turns m into the exact block diagonal
    s (+) t and the 2x2 tail t is returned together with the basis matrix.
    :func:`similarity_defect` certifies the basis against both members of
    s (+) t with one rank, and BasisFailure is raised if it fails.
    """
    n, field = m.size, m.field
    s = simple_pair(n, field)
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
    ys = [v.column_raw(0) for v in kernel]
    h = Matrix.from_columns(field, [f.column_raw(j) for j in range(n - 2)] + ys)
    # y_k is 1 at its own free column (its last nonzero entry) and 0 at the
    # other's, so m_i * Y = Y * t_i puts t_i in the rows of m_i * Y at the
    # free columns; the certificate of h decides whether that holds.
    free = [max(i for i, x in enumerate(col) if not field.is_zero(x)) for col in ys]
    y = Matrix.from_columns(field, ys)
    tails = []
    for mi in (m.m1, m.m2):
        my = (mi * y)._rows
        tails.append(Matrix._raw(field, [my[i] for i in free]))
    tail = PairPoint(tails[0], tails[1])
    target = s.direct_sum(tail)
    defect = similarity_defect((m.m1, m.m2), (target.m1, target.m2), h)
    if defect is not None:
        raise BasisFailure(f"splitting basis failed its certificate: {defect}")
    return tail, h
