"""Dense exact matrices over Q or GF(p).

Entries are stored row-major as raw field values in nested tuples, so
matrices are immutable and hashable.  Every elimination runs on one
engine, ``_Span``: it adds rows in turn, reduces each by the rows found
before it and pivots on its first nonzero entry, so pivots are found row
by row.  Rank, kernel, inverse and determinant, and the Krylov chains of
``rnf`` and ``pairs``, read its rows, and every output is one that does
not depend on the order of the pivots: pivot columns, ranks, unit kernel
bases, reduced echelon forms, determinants and inverses.  Over Q, rank
and kernel run modulo primes below 2**32 and return only a kernel basis
proved exactly over Q.
``_modular_lift`` is the one driver of such computations modulo primes,
here, in ``pairs`` and in ``rnf``: it groups the primes by the decisions
their runs took, combines each group by CRT, lifts it by rational
reconstruction and returns the first lift that passes the caller's exact
check; ``_lift_kernel`` runs it on unit kernel bases, for rank and kernel
here and for Hom spaces in ``pairs``.  Its primes (``_prime``) are the
largest whose packed kernels take the caller's width: the column count of
a rank, the n*n2 entries of the maps of a Hom, and the size n of the
matrix of ``rnf``.
Products run on the field's ``product`` kernel, eliminations on its two
row primitives, ``dot`` and ``submul``, and Krylov chains on its
``operator`` too.  Over word-size GF(p) ``_Span`` reduces rows packed
into one integer with a slot per entry (``fields._line``), 8, 16, 32 or
64 bits wide, the narrowest that holds the largest sum a slot reaches:
one slot read and one integer multiply-add per update, and one reduction
when a row is unpacked, by ``bytes.translate`` for byte slots and one
``% p`` per entry for wider ones (delayed reduction, as in Dumas, Giorgi
& Pernet, ACM TOMS 35(3), 2008).
``similarity_defect`` is the one certificate for every change of basis
the package returns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import isqrt, lcm
from operator import mul as _mul

from .errors import (
    BasisFailure,
    DimensionMismatch,
    EmptyInput,
    FieldMismatch,
    NonSquare,
    SingularMatrix,
)
from .fields import _PACKED_ENTRIES, GF, Field, Scalar, _integral, _is_prime, _line, _unpack


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        canon = field.canon
        data = tuple(tuple(canon(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrices must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("rows have unequal lengths")
        self.field = field
        self.nrows = len(data)
        self.ncols = width
        self._rows = data

    @classmethod
    def _raw(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        # Trusted constructor: entries already canonical raw values.
        m = object.__new__(cls)
        m.field = field
        m._rows = tuple(tuple(row) for row in rows)
        m.nrows = len(m._rows)
        m.ncols = len(m._rows[0])
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._raw(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls._raw(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        canon = field.canon
        cols = [[canon(x) for x in col] for col in columns]
        if not cols or not cols[0]:
            raise DimensionMismatch("need at least one column with at least one entry")
        if any(len(c) != len(cols[0]) for c in cols):
            raise DimensionMismatch("columns have unequal lengths")
        return cls._raw(field, [[col[i] for col in cols] for i in range(len(cols[0]))])

    # -- shape helpers -------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index) -> Scalar:
        i, j = index
        return Scalar(self.field, self._rows[i][j])

    def column_raw(self, j: int) -> list:
        return [row[j] for row in self._rows]

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"matrices over {self.field} and {other.field}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix addition needs equal shapes")
        add = self.field.add
        return Matrix._raw(
            self.field,
            [[add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix subtraction needs equal shapes")
        sub = self.field.sub
        return Matrix._raw(
            self.field,
            [[sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix._raw(self.field, [[neg(x) for x in row] for row in self._rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return Matrix._raw(self.field, _product(self.field, self._rows, other._rows))

    def __pow__(self, k: int):
        if not self.is_square:
            raise NonSquare("matrix powers need a square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, s) -> "Matrix":
        c = self.field.canon(s)
        mul = self.field.mul
        return Matrix._raw(self.field, [[mul(x, c) for x in row] for row in self._rows])

    def mul_vector_raw(self, v: Sequence) -> list:
        dot = self.field.dot
        return [dot(row, v) for row in self._rows]

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.field, list(zip(*self._rows)))

    def trace(self) -> Scalar:
        if not self.is_square:
            raise NonSquare("trace needs a square matrix")
        field = self.field
        acc = field.zero
        for i in range(self.nrows):
            acc = field.add(acc, self._rows[i][i])
        return Scalar(field, acc)

    def is_zero(self) -> bool:
        is_zero = self.field.is_zero
        return all(is_zero(x) for row in self._rows for x in row)

    # -- elimination-based routines -------------------------------------

    def _rank_and_kernel_raw(self) -> tuple[int, list[list]]:
        """Rank and raw kernel basis: the one place that picks between
        the echelon form of a span plus back substitution over GF(p) and
        the modular method over Q.
        """
        field = self.field
        if not field.characteristic:
            return _rational_rank_and_kernel(self._rows)
        pivots, rows = _echelon(field, self._rows)
        return len(pivots), _back_substitute(field, pivots, rows, self.ncols)

    def rank(self) -> int:
        return self._rank_and_kernel_raw()[0]

    def rank_and_kernel(self) -> tuple[int, list["Matrix"]]:
        """Rank and a deterministic basis of the right null space.

        Each kernel vector is returned as an ncols x 1 matrix; the basis
        vector for free column f has entry 1 there and zeros in the other
        free columns, so rank + len(basis) == ncols always holds.
        """
        rank, basis = self._rank_and_kernel_raw()
        return rank, [Matrix._raw(self.field, [[x] for x in v]) for v in basis]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise NonSquare("inverse needs a square matrix")
        field = self.field
        n = self.nrows
        one, zero = field.one, field.zero
        aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(self._rows)]
        pivots, rows = _echelon(field, aug)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        _clear_above(field, pivots, rows)
        return Matrix._raw(field, [row[n:] for row in rows])

    def det(self) -> Scalar:
        """Over a span of the rows (:class:`_Span`): row i of the span is
        s_i times row i less a sum of the span's rows before it, and sorted
        by pivot column the span's rows are unit upper triangular, so det
        is the sign of the pivot columns in the order found over the
        product of the s_i."""
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        field = self.field
        span = _Span(field)
        for row in self._rows:
            span.add(row)
        if len(span) < self.nrows:
            return Scalar(field, field.zero)
        scales = field.one
        for s, _ in span.made:
            scales = field.mul(scales, s)
        pivots = span.pivots
        inversions = sum(c > d for k, c in enumerate(pivots) for d in pivots[k + 1:])
        det = field.inv(scales)
        return Scalar(field, field.neg(det) if inversions % 2 else det)

    def is_invertible(self) -> bool:
        # Full rank; over Q the rank is proved modulo primes with no Fractions.
        return self.is_square and self.rank() == self.nrows

    # -- misc ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.field == other.field and self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self._rows))

    def __str__(self):
        body = [[str(x) for x in row] for row in self._rows]
        widths = [max(len(body[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        return "\n".join(
            "[" + "  ".join(entry.rjust(w) for entry, w in zip(row, widths)) + "]" for row in body
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _product(field: Field, x: Sequence[Sequence], y: Sequence[Sequence]) -> list[list]:
    """The product of two matrices given by their raw rows."""
    return field.product(x, list(zip(*y)))


def _packs(field: Field, n: int) -> bool:
    """Whether a span reduces vectors of n entries on packed lines
    (``fields._line``): a vector takes at most n updates by at most n
    rows, so a slot stays below (n+1)*(p-1)**2, which must be below
    2**64, and the square of the pivots must have ``_PACKED_ENTRIES``
    entries, the rule reusing that crossover which lost least time on the
    measured shapes (README, "Notes on algorithms")."""
    return n < field._slot_terms and n * n >= _PACKED_ENTRIES


def _echelon(field: Field, rows: Iterable[Sequence]) -> tuple[list[int], list[list]]:
    """The pivot columns and rows of a row echelon form of the rows, each
    row 1 at its pivot column: the rows are added in turn to a
    :class:`_Span`, whose rows are returned sorted by pivot column."""
    span = _Span(field)
    for row in rows:
        span.add(row)
    ordered = sorted(zip(span.pivots, span.rows))
    return [c for c, _ in ordered], [row for _, row in ordered]


def _clear_above(field: Field, pivots: list[int], rows: list[list]):
    """In-place reduced row echelon form of rows from :func:`_echelon`:
    each pivot column is cleared above its row."""
    submul = field.submul
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r][c:]
        for i in range(r):
            x = rows[i][c]
            if x:
                rows[i][c:] = submul(rows[i][c:], x, row)


def _back_substitute(field: Field, pivots: list[int], rows: list[list], ncols: int) -> list[list]:
    """Kernel basis of rows from :func:`_echelon` with ncols columns, one
    vector per free column: 1 there, 0 at the other free columns."""
    zero, one, neg, dot = field.zero, field.one, field.neg, field.dot
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            v[c] = neg(dot(rows[r][c + 1:], v[c + 1:]))
        basis.append(v)
    return basis


class _Span:
    """A row echelon form of the span of vectors b_0, b_1, ... added in
    turn, each outside the span of those before it.  Row i is b_i less the
    rows that reduced it, scaled to 1 at its pivot; both are kept in
    ``made``, so a vector of the span can be written in the b's
    (:func:`_coordinates`).  ``rows`` holds the rows as residues.  It is
    the one row reduction of the package: the Krylov chains of ``rnf``
    and ``pairs``, ``det``, and, through :func:`_echelon`, every rank,
    kernel, inverse and Hom echelon form.

    Over word-size GF(p) a vector of n entries is reduced as a packed line
    (:func:`_packs`; it takes at most n updates): x = slot c_i of the line,
    reduced, and the update by row i is one integer multiply-add by p - x,
    row i kept packed too (``lines``).  A slot thus reaches at most
    (p-1) + n*(p-1)**2, and the first vector added fixes ``layout``, the
    narrowest slot width that holds that bound (``PrimeField._layout``);
    it is False for the plain loop.  The line is reduced once, when it is
    unpacked to find its pivot, so steps, rows and ``made`` are those of
    the plain loop."""

    __slots__ = ("field", "pivots", "rows", "made", "lines", "layout")

    def __init__(self, field: Field):
        self.field = field
        self.pivots, self.rows, self.made, self.lines = [], [], [], []
        self.layout = None

    def __len__(self):
        return len(self.rows)

    def add(self, v: Sequence) -> list | None:
        """None after adding v as the next b, if v lies outside the span;
        otherwise the steps (i, x) with v = sum of x * row_i."""
        field = self.field
        steps = []
        layout = self.layout
        if layout is None:  # the first vector fixes it: n entries, n updates at most
            n, p = len(v), field.characteristic
            layout = self.layout = _packs(field, n) and field._layout(p - 1 + n * (p - 1) ** 2)
        if layout:
            p, w, x = field.p, layout[0], _line(v, layout)
            mask = (1 << w) - 1
            for i, c in enumerate(self.pivots):
                if y := (x >> c * w & mask) % p:
                    x += (p - y) * self.lines[i]
                    steps.append((i, y))
            v = _unpack(x, len(v), p, layout)
        else:
            submul, v = field.submul, list(v)
            # Zero is falsy in every field; row i is zero before its pivot.
            for i, c in enumerate(self.pivots):
                x = v[c]
                if x:
                    v[c:] = submul(v[c:], x, self.rows[i][c:])
                    steps.append((i, x))
        c = next((k for k, x in enumerate(v) if x), None)
        if c is None:
            return steps
        if len(self.rows) == len(v):
            raise BasisFailure("a vector is outside a span of the whole space")
        s = field.inv(v[c])
        if s != field.one:
            mul = field.mul
            v[c:] = [mul(x, s) for x in v[c:]]
        self.pivots.append(c)
        self.rows.append(v)
        if layout:
            self.lines.append(_line(v, layout))
        self.made.append((s, steps))
        return None

    def truncate(self, m: int):
        del self.pivots[m:], self.rows[m:], self.made[m:], self.lines[m:]


def _unit(field: Field, a, k: int) -> list[list]:
    """[e_k, A*e_k] for a (raw rows): the start of the Krylov chain of e_k."""
    v = [field.zero] * len(a)
    v[k] = field.one
    return [v, [row[k] for row in a]]


def _coordinates(field: Field, made: list, steps: list, start: int = 0) -> list:
    """The coordinates in b_start, b_start+1, ... of the sum of x * row_i
    over the steps (i, x), by back substitution through the rows' own
    steps, ``made`` those of rows start, start+1, ...  Rows below start
    add only to the coordinates below start, so they are not read."""
    sub, mul = field.sub, field.mul
    x = [field.zero] * len(made)
    for i, s in steps:
        if i >= start:
            x[i - start] = s
    for i in range(len(x) - 1, -1, -1):
        if x[i]:
            s, row_steps = made[i]
            xi = x[i] = mul(x[i], s)
            for j, y in row_steps:
                if j >= start:
                    x[j - start] = sub(x[j - start], mul(xi, y))
    return x


def _chain(span: _Span, op, iterates: list[list]) -> list | None:
    """Add the chain x, A*x, ..., A^(d-1)*x of x = iterates[0] to the span
    W, d the degree of the conductor of x into W (the monic f of least
    degree with f(A)*x in W), and return the steps of A^d*x in the rows;
    None if x lies in W.  ``op`` is the map v -> A*v
    (``field.operator``).  The iterates are read from the list, which is
    extended in place as far as needed, so A^d*x is iterates[d]."""
    m = d = len(span)
    while (steps := span.add(iterates[d - m])) is None:
        d += 1
        if d - m == len(iterates):
            iterates.append(op(iterates[-1]))
    return steps if d > m else None


# -- computations over Q, modulo primes -------------------------------------

_PRIMES: dict[int, list[int]] = {}


def _prime(i: int, width: int) -> int:
    """The (i+1)-th largest prime p with (width+1)*(p-1)**2 < 2**64: then
    ``GF(p)._slot_terms`` > width, so the spans, products and operators
    of vectors of up to width entries pack.  Each sequence is found once."""
    primes = _PRIMES.setdefault(width, [])
    while len(primes) <= i:
        q = primes[-1] - 1 if primes else isqrt(((1 << 64) - 1) // (width + 1)) + 1
        while not _is_prime(q):
            q -= 1
        primes.append(q)
    return primes[i]


def _crt(lifted: list[int], m: int, residues: list[int], p: int) -> tuple[list[int], int]:
    """The values modulo m*p that are the lifted values modulo m and the
    residues modulo p, and m*p."""
    inv_m = pow(m, -1, p)
    return [x + m * ((r - x) * inv_m % p) for x, r in zip(lifted, residues)], m * p


def _reconstruction_bound(m: int) -> int:
    """The largest B with 2 * B**2 < m: a fraction a/b with |a|, b <= B is
    the only one of that size with its residue modulo m."""
    return isqrt((m - 1) // 2)


def _rational_reconstruction(residues: list[int], m: int) -> list[Fraction] | None:
    """The fractions a/b with |a|, b <= sqrt(m/2) congruent to the residues
    modulo m, found by the half-extended Euclidean algorithm (Wang 1981),
    or None when some residue has none.  Such a fraction is unique; a
    wrong one is left to the exact check of the caller.
    """
    bound = _reconstruction_bound(m)
    out = []
    for x in residues:
        r0, r1, t0, t1 = m, x, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if not t1 or abs(t1) > bound:
            return None
        out.append(Fraction(r1, t1))
    return out


def _modular_lift(image, accept, limit: Callable[[], int], width: int):
    """The first accepted lift of a computation over Q run modulo primes.

    For each prime p of the sequence ``_prime(i, width)``, the largest
    primes whose packed kernels take vectors of ``width`` entries, the
    width of the computation's widest elimination, ``image(p)`` runs the
    computation over GF(p) and returns (key, residues), or None when p is
    unusable.  The key names every decision the run took; the primes of
    one key are combined by CRT, and at the counts of ``_lift_due`` their
    values are lifted by rational reconstruction and passed to
    ``accept(key, values, bound)``, with ``bound`` the
    reconstruction bound of their modulus.  The first result of ``accept``
    that is not None is returned: ``accept`` runs the exact check over Q,
    which is the proof.  BasisFailure is raised once the product of the
    primes tried has more bits than ``limit()``, the guard on the primes.
    The guard is a function of no arguments because it can cost more than
    a lift that needs one prime: it is called once, and only when a second
    prime is needed.
    """
    groups: dict = {}  # key -> (lifted values, modulus, primes)
    tried, i = 1, 0
    while True:
        if i == 1:  # a second prime is needed
            bits = limit()
        if i and tried.bit_length() > bits:
            break
        p = _prime(i, width)
        i += 1
        tried *= p
        found = image(p)
        if found is None:
            continue
        key, residues = found
        if key in groups:
            lifted, m, count = groups[key]
            lifted, m = _crt(lifted, m, residues, p)
            count += 1
        else:
            lifted, m, count = residues, p, 1
        groups[key] = lifted, m, count
        if not _lift_due(count):
            continue
        values = _rational_reconstruction(lifted, m)
        if values is None:
            continue
        result = accept(key, values, _reconstruction_bound(m))
        if result is not None:
            return result
    raise BasisFailure("no lift modulo primes passed the exact check within the prime bound")


def _hadamard_bits(factors: list[int]) -> int:
    """A guard for ``_modular_lift``: b with 2**b > 4*H**6, H**2 the
    product of max(1, f) over the factors f (the squared norms of the rows
    of a Hadamard bound), as each is below 2**(its bit length)."""
    return 3 * sum(max(1, f).bit_length() for f in factors or [1]) + 2


def _lift_due(count: int) -> bool:
    """Whether the values of a key are lifted after its count-th prime:
    after 1, 2, ..., 16, 18, 20, 22, 24, 27, 30, ... primes, each count an
    eighth above the one before (rounded down, at least one more).  A lift
    costs time quadratic in the bits of the modulus, so lifting after every
    prime would cost time cubic in the number of primes."""
    due = 1
    while due < count:
        due += max(1, due // 8)
    return due == count


def _rational_rank_and_kernel(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list]]:
    """Rank and kernel basis over Q by elimination modulo primes
    (:func:`_lift_kernel`).

    Each row is scaled to integers, which changes neither the rank nor the
    kernel.  Modulo each prime an echelon form (:func:`_echelon`) and back
    substitution give a kernel basis, and a lift is accepted once every
    vector v satisfies rows * v == 0 in integers; a full-rank prime has no
    vector to test.

    That check is the proof: ncols - r_p independent vectors in the kernel
    give rank_Q <= r_p, and r_p <= rank_Q always holds, so the rank is
    r_p, and the basis with 1 at its own free column and 0 at the others
    is unique.  With H the Hadamard bound of the integer rows, the primes
    with the true pivots succeed at the first count of ``_lift_due`` after
    their product exceeds 2*H**2, at most an eighth more primes later
    (none within the first 16), and the other primes divide one nonzero
    minor, so their product is at most H.  A product of primes of more
    bits than :func:`_hadamard_bits`, past 4*H**6 = (2*H**3)**2, with no
    proved basis is therefore a bug and raises BasisFailure.
    """
    ints = [w for _, w in _integral(rows)]
    ncols = len(ints[0])

    def kernel_at(p):
        field = GF(p)
        pivots, reduced = _echelon(field, ([x % p for x in row] for row in ints))
        return _back_substitute(field, pivots, reduced, ncols)

    return _lift_kernel(kernel_at, lambda w: not any(sum(map(_mul, row, w)) for row in ints),
                        lambda: _hadamard_bits([sum(x * x for x in row) for row in ints]), ncols)


def _lift_kernel(kernel_at, holds, limit: Callable[[], int], ncols: int) -> tuple[int, list[list]]:
    """(rank, basis) of a kernel over Q with a unit basis, lifted from its
    bases modulo primes by :func:`_modular_lift` on the primes of width
    ncols.  ``kernel_at(p)`` returns the unit kernel basis over GF(p), each
    vector 1 at its free column, its last nonzero entry, and 0 at the other
    free columns, or None when p is unusable.  The key is the columns that
    are not free and the values are the entries there; a lift is accepted
    once ``holds(w)`` is true of each vector scaled to integers w
    (``fields._integral``), the caller's exact check, and ``limit`` is the
    guard on the primes.
    """

    def image(p):
        basis = kernel_at(p)
        if basis is None:
            return None
        free = {max(i for i, x in enumerate(v) if x) for v in basis}
        pivots = tuple(c for c in range(ncols) if c not in free)
        return pivots, [v[c] for v in basis for c in pivots]

    def accept(pivots, entries, bound):
        basis = _unit_basis(ncols, pivots, entries)
        if all(holds(w) for _, w in _integral(basis)):
            return len(pivots), basis
        return None

    return _modular_lift(image, accept, limit, ncols)


def _unit_basis(ncols: int, pivots: Sequence[int], entries: list[Fraction]) -> list[list]:
    """The vectors over Q that are 1 at their own free column (one not in
    ``pivots``), 0 at the other free columns and the next len(pivots)
    ``entries`` at the pivot columns, in the order of the free columns."""
    zero, one = Fraction(0), Fraction(1)
    pivot_set = set(pivots)
    basis = []
    for k, free in enumerate(c for c in range(ncols) if c not in pivot_set):
        v = [zero] * ncols
        v[free] = one
        for c, x in zip(pivots, entries[k * len(pivots):(k + 1) * len(pivots)]):
            v[c] = x
        basis.append(v)
    return basis


def _over_one_denominator(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(d, d*A) for the rows of A over Q, d the least common denominator of
    all its entries."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _mod_rows(d: int, ints: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """The residues modulo a prime p, which does not divide d, of the rows
    of A = ints/d (:func:`_over_one_denominator`): one inverse a matrix
    and one product an entry."""
    inv = pow(d, -1, p)
    return [[x * inv % p for x in row] for row in ints]


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """Square block-diagonal matrix assembled from square blocks."""
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("block_diagonal of an empty sequence")
    field = blocks[0].field
    for b in blocks:
        if b.field != field:
            raise FieldMismatch("all blocks must share one field")
        if not b.is_square:
            raise NonSquare("block_diagonal blocks must be square")
    n = sum(b.nrows for b in blocks)
    zero = field.zero
    rows = [[zero] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b._rows):
            rows[offset + i][offset:offset + b.ncols] = row
        offset += b.nrows
    return Matrix._raw(field, rows)


def similarity_defect(a: Matrix | Sequence[Matrix], r: Matrix | Sequence[Matrix], t: Matrix) -> str | None:
    """Why T fails to show T^-1 * A * T = R, or None when it does.  A and R
    may also be sequences of one length, such as the members of two pairs,
    each A_i checked against its R_i with one T.

    The certificate is det T != 0, computed once, together with
    A * T == T * R; no inverse is formed.  Raises DimensionMismatch when T
    is invertible but an A is not of T's size.
    """
    if not t.is_invertible():
        return "transform is singular"
    for a_i, r_i in [(a, r)] if isinstance(a, Matrix) else zip(a, r, strict=True):
        if (a_i.nrows, a_i.ncols) != (t.nrows, t.ncols):
            raise DimensionMismatch(
                f"transform is {t.nrows}x{t.ncols} but the matrix is {a_i.nrows}x{a_i.ncols}"
            )
        if (r_i.nrows, r_i.ncols) != (t.nrows, t.ncols) or a_i * t != t * r_i:
            return "conjugation does not reproduce the claimed form"
    return None
