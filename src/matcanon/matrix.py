"""Dense exact matrices over Q or GF(p).

Entries are stored row-major as raw field values in nested tuples, so
matrices are immutable and hashable.  Elimination-based routines (rank,
kernel, inverse, determinant) pivot on the first nonzero entry in column
order, which makes every output deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    EmptyInput,
    FieldMismatch,
    NonSquare,
    SingularMatrix,
)
from .fields import Field, Scalar


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
        field = self.field
        add, mul, zero = field.add, field.mul, field.zero
        cols = list(zip(*other._rows))
        out = []
        for row in self._rows:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix._raw(field, out)

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
        field = self.field
        add, mul, zero = field.add, field.mul, field.zero
        out = []
        for row in self._rows:
            acc = zero
            for a, b in zip(row, v):
                acc = add(acc, mul(a, b))
            out.append(acc)
        return out

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

    def _echelon(self, rows: list[list]) -> tuple[int, list[int]]:
        """In-place reduced row echelon form; returns (rank, pivot columns)."""
        field = self.field
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
        return r, pivots

    def rank(self) -> int:
        rows = [list(row) for row in self._rows]
        rank, _ = self._echelon(rows)
        return rank

    def rank_and_kernel(self) -> tuple[int, list["Matrix"]]:
        """Rank and a deterministic basis of the right null space.

        Each kernel vector is returned as an ncols x 1 matrix; the basis
        vector for free column f has entry 1 there and zeros in the other
        free columns, so rank + len(basis) == ncols always holds.
        """
        field = self.field
        rows = [list(row) for row in self._rows]
        rank, pivots = self._echelon(rows)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [field.zero] * self.ncols
            v[free] = field.one
            for r, c in enumerate(pivots):
                v[c] = field.neg(rows[r][free])
            basis.append(Matrix._raw(field, [[x] for x in v]))
        return rank, basis

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise NonSquare("inverse needs a square matrix")
        field = self.field
        n = self.nrows
        one, zero = field.one, field.zero
        aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(self._rows)]
        _, pivots = self._echelon(aug)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Matrix._raw(field, [row[n:] for row in aug])

    def det(self) -> Scalar:
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        field = self.field
        sub, mul, div, is_zero = field.sub, field.mul, field.div, field.is_zero
        rows = [list(row) for row in self._rows]
        n = self.nrows
        det = field.one
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if not is_zero(rows[i][c])), None)
            if pivot_row is None:
                return Scalar(field, field.zero)
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                det = field.neg(det)
            pivot = rows[c][c]
            det = mul(det, pivot)
            for i in range(c + 1, n):
                if not is_zero(rows[i][c]):
                    factor = div(rows[i][c], pivot)
                    rows[i] = [sub(x, mul(factor, y)) for x, y in zip(rows[i], rows[c])]
        return Scalar(field, det)

    def is_invertible(self) -> bool:
        return self.is_square and not self.det().is_zero()

    # -- misc ------------------------------------------------------------

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "Matrix":
        return Matrix._raw(self.field, [row[col_start:col_stop] for row in self._rows[row_start:row_stop]])

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
