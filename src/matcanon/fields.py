"""Exact coefficient fields: the rationals and prime fields GF(p).

A field object owns the raw representation of its elements (``Fraction``
for the rationals, canonical residues ``0 <= v < p`` for GF(p)) and all
arithmetic on raw values.  :class:`Scalar` is the user-facing wrapper that
pairs a raw value with its field and overloads the usual operators.  The
heavy algorithms in the rest of the package work on raw values through the
field methods, so they never pay for wrapper allocation in inner loops.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import mul as _mul

from .errors import DivisionByZero, FieldMismatch, NotPrime, ParseError

_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
_INT_LITERALS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")


def parse_int(text: str) -> int:
    """The value of the ASCII decimal literal ``[+-]?[0-9]+``.

    Raises ValueError for anything else, including the underscores,
    surrounding whitespace and non-ASCII digits that ``int`` accepts.
    """
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError(f"bad integer literal {text!r}")
    return int(text)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_WITNESSES
# (Sorenson & Webster 2015): the test is exact below it and only there.
MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_MODULUS."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PolyOps:
    """Bundle of raw dense-polynomial helpers specialized to one field.

    Polynomials are plain lists of raw field values, ascending degree, with
    no trailing zeros (the zero polynomial is the empty list).
    """

    __slots__ = ("add", "sub", "mul", "scale", "divmod", "monic", "neg")

    def __init__(self, add, sub, mul, scale, divmod_, monic, neg):
        self.add = add
        self.sub = sub
        self.mul = mul
        self.scale = scale
        self.divmod = divmod_
        self.monic = monic
        self.neg = neg


def _poly_ops(p: int, zero) -> PolyOps:
    """The polynomial kernel of GF(p), or of Q (``zero`` its zero) when p
    is 0.  GF(p) delays reduction (Dumas, Giorgi & Pernet, ACM TOMS 35,
    2008): ``mul`` reduces each summed coefficient once, and ``divmod``
    each quotient coefficient once and the remainder at the end."""

    def strip(c):
        while c and not c[-1]:
            c.pop()
        return c

    def padd(f, g):
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        for i, c in enumerate(g):
            out[i] = (out[i] + c) % p if p else out[i] + c
        return strip(out)

    def psub(f, g):
        out = list(f) + [zero] * (len(g) - len(f))
        for i, c in enumerate(g):
            out[i] = (out[i] - c) % p if p else out[i] - c
        return strip(out)

    def pneg(f):
        return [-c % p for c in f] if p else [-c for c in f]

    def pscale(f, s):
        s = s % p if p else s
        if not s:
            return []
        return [c * s % p for c in f] if p else [c * s for c in f]

    def pmul(f, g):
        if not f or not g:
            return []
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return strip([c % p for c in out] if p else out)

    def pdivmod(f, g):
        if not g:
            raise DivisionByZero("polynomial division by zero")
        r = list(f)
        dg = len(g) - 1
        if len(r) - 1 < dg:
            return [], strip(r)
        lead = g[-1]
        ilead = pow(lead, -1, p) if p else None
        q = [zero] * (len(r) - dg)
        for k in range(len(r) - 1, dg - 1, -1):
            c = r[k] % p if p else r[k]
            if not c:
                continue
            c = c * ilead % p if p else c / lead
            q[k - dg] = c
            for j, b in enumerate(g):
                r[k - dg + j] -= c * b
        return strip(q), strip([c % p for c in r] if p else r)

    def pmonic(f):
        if not f:
            raise DivisionByZero("cannot normalize the zero polynomial")
        lead = f[-1]
        return pscale(f, pow(lead, -1, p)) if p else [c / lead for c in f]

    return PolyOps(padd, psub, pmul, pscale, pdivmod, pmonic, pneg)


class Field:
    """Common behaviour of the two supported coefficient fields."""

    characteristic: int

    def __call__(self, value) -> "Scalar":
        return Scalar(self, self.canon(value))

    def poly_ops(self) -> PolyOps:
        ops = getattr(self, "_poly_ops", None)
        if ops is None:
            ops = self._build_poly_ops()
            self._poly_ops = ops
        return ops

    # Raw-value interface implemented by subclasses:
    #   zero, one, canon, add, sub, mul, neg, inv, sqrt
    # the two row primitives every plain elimination runs on:
    #   dot(xs, ys) = sum of x*y, reduced once;  submul(xs, f, ys) = [x - f*y]
    # the one kernel of every matrix product:
    #   product(rows, cols) = [[dot(row, col) for col in cols] for row in rows]
    # and of every Krylov chain, built once per matrix A (raw rows):
    #   operator(rows) = the map v -> A*v
    # the parser's integer words: _from_ints(ints) = [canon(x) for x in ints]
    # and the hook of poly_ops: _build_poly_ops() = _poly_ops(p, zero).
    # Over GF(p) both matrix kernels pack: a line of residues becomes one
    # integer with a slot of w bits per entry (_line), so a sum of k
    # products is k integer multiply-adds and one reduction of the line
    # (Kronecker substitution; Dumas, Fousse & Salvy, J. Symbolic Comput.
    # 46, 2011).
    # A slot's sum reaches at most k*(p-1)**2, and PrimeField._layout takes
    # the narrowest w of 8, 16, 32 and 64 bits that holds it; byte lines
    # are reduced by one bytes.translate, wider ones by one % p an entry.
    # The widest slot is exact while k*(p-1)**2 < 2**64, that is
    # k <= _slot_terms (0 on Q and for p > 2**32); below _PACKED_ENTRIES
    # entries, the measured crossover, the plain loops run.  matrix._Span,
    # the one row reduction of every elimination, reduces packed lines of
    # residues whose slots reach at most (p-1) + n*(p-1)**2 for vectors of
    # n entries, by the same rule, and packs under the same slot bound and
    # crossover (matrix._packs).
    _slot_terms = 0

    def operator(self, rows):
        dot = self.dot
        return lambda v: [dot(row, v) for row in rows]

    def canon_words(self, words: list[str]) -> list:
        # Integers in one pass: one regex over the space-joined words
        # (str.split tokens) checks every literal; int refuses only too
        # many digits.  Otherwise canon reports the first bad word.
        if _INT_LITERALS.fullmatch(" ".join(words)):
            try:
                return self._from_ints(map(int, words))
            except ValueError:
                pass
        return [self.canon(w) for w in words]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @staticmethod
    def is_zero(a) -> bool:
        return not a


def _integral(vectors) -> list[tuple[int, list[int]]]:
    """(d, [d*x, ...]) for each vector of Fractions, d the least common
    denominator of its entries."""
    out = []
    for v in vectors:
        d = lcm(*[x.denominator for x in v])
        out.append((d, [x.numerator for x in v] if d == 1 else
                    [x.numerator * (d // x.denominator) for x in v]))
    return out


# The measured crossover (README, "Notes on algorithms"): a packed product
# pays once its result has this many entries, a packed operator once A
# has (n >= 5); below, the plain delayed-reduction loops are faster.
_PACKED_ENTRIES = 24


# The slot widths of packed lines in bits, narrowest first, each with the
# array code of its words: 8, 16, 32 and 64 bits.
_WIDTHS = sorted({8 * array(code).itemsize: code for code in "BHIQ"}.items())
# Lines are little-endian integers: slot c is bits w*c to w*c + w - 1.
_SWAP = sys.byteorder == "big"


def _line(values, layout) -> int:
    """A line of residues as one integer whose slot c of w bits, bits w*c
    to w*c + w - 1, holds entry c, w the width of the layout
    (``PrimeField._layout``); slot c of x is x >> w*c & (2**w - 1)."""
    w, code, _ = layout
    if w == 8:
        return int.from_bytes(bytes(values), "little")
    words = array(code, values)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words, "little")


def _pack(lines, layout) -> list[int]:
    """Each line of residues as one integer (:func:`_line`)."""
    return [_line(values, layout) for values in lines]


def _unpack(x: int, slots: int, p: int, layout) -> list[int]:
    """The residues modulo p of the first ``slots`` slots of x: byte slots
    by one ``bytes.translate`` through the table of b % p, wider ones by
    one ``% p`` a slot."""
    w, code, residues = layout
    data = x.to_bytes(slots * w >> 3, "little")
    if residues is not None:
        return list(data.translate(residues))
    words = array(code, data)
    if _SWAP:
        words.byteswap()
    return [y % p for y in words]


def _packed_product(rows, cols, p: int, layout) -> list[list[int]]:
    """[[dot(row, col) for col in cols] for row in rows] modulo p, one
    integer multiply-add a term: the k lines (col[j] for col in cols) are
    packed once, and row*cols is the sum of row[j] times line j, whose
    slots carry nothing while each slot's sum fits the layout's width."""
    lines = _pack(zip(*cols), layout)
    return [_unpack(sum(map(_mul, row, lines)), len(cols), p, layout) for row in rows]


class Rationals(Field):
    """The field of rational numbers with Fraction-backed exact values."""

    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def canon(self, value) -> Fraction:
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"expected a rational scalar, got one over {value.field}")
            return value.value
        if isinstance(value, bool) or isinstance(value, float):
            raise ParseError(f"rational values must be exact, got {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            text = value.strip()
            try:
                if "/" in text:
                    num, den = text.split("/")
                    return Fraction(parse_int(num), parse_int(den))
                return Fraction(parse_int(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational literal {value!r}") from exc
        raise ParseError(f"cannot interpret {value!r} as a rational")

    @staticmethod
    def _from_ints(ints):
        return [Fraction(x) for x in ints]

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @classmethod
    def dot(cls, xs, ys):
        return cls.product((xs,), (ys,))[0][0]

    @staticmethod
    def submul(xs, f, ys):
        return [x - f * y for x, y in zip(xs, ys)]

    @staticmethod
    def product(rows, cols):
        # Each row and column scaled to integers over its own common
        # denominator once; one integer dot product and Fraction an entry.
        xs, ys = map(_integral, (rows, cols))
        if all(d == 1 for d, _ in chain(xs, ys)):  # no gcd to take
            return [[Fraction(sum(map(_mul, x, y))) for _, y in ys] for _, x in xs]
        return [[Fraction(sum(map(_mul, x, y)), dx * dy) for dy, y in ys] for dx, x in xs]

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def sqrt(self, a):
        """Distinct square roots of ``a``, positive first, or None."""
        if not a:
            return (self.zero,)
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn != a.numerator or rd * rd != a.denominator:
            return None
        r = Fraction(rn, rd)
        return (r, -r)

    def _build_poly_ops(self) -> PolyOps:
        return _poly_ops(0, self.zero)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for a prime p; values are canonical residues in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError(f"prime modulus must be an integer, got {p!r}")
        if p >= MAX_MODULUS:
            raise NotPrime(
                f"modulus {p} is too large: primality is proved only below {MAX_MODULUS}"
            )
        if not _is_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p
        # The most products of two residues that one 64-bit slot sums
        # exactly, k*(p-1)**2 < 2**64; none once p > 2**32.
        self._slot_terms = ((1 << 64) - 1) // (p - 1) ** 2
        # b % p for each byte b, which reduces a line of byte slots.
        self._residues = bytes(b % p for b in range(256))

    def canon(self, value) -> int:
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"expected a scalar over {self}, got one over {value.field}")
            return value.value
        if isinstance(value, bool) or isinstance(value, float):
            raise ParseError(f"GF({self.p}) values must be integers, got {value!r}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            try:
                return parse_int(value.strip()) % self.p
            except ValueError as exc:
                raise ParseError(f"bad GF({self.p}) literal {value!r}") from exc
        raise ParseError(f"cannot interpret {value!r} as an element of {self}")

    def _from_ints(self, ints):
        p = self.p
        return [x % p for x in ints]

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def dot(self, xs, ys):
        # Delayed reduction: exact integer products, one % p per dot product.
        return sum(map(_mul, xs, ys)) % self.p

    def submul(self, xs, f, ys):
        p = self.p
        return [(x - f * y) % p for x, y in zip(xs, ys)]

    def _layout(self, bound: int):
        """(w, array code, table) of packed lines whose slots never exceed
        bound: w the narrowest width of ``_WIDTHS`` with bound < 2**w, and
        the table of b % p (``bytes.translate``) when w is 8, else None."""
        w, code = next(width for width in _WIDTHS if bound >> width[0] == 0)
        return w, code, self._residues if w == 8 else None

    def product(self, rows, cols):
        p = self.p
        if len(rows) * len(cols) >= _PACKED_ENTRIES and len(cols[0]) <= self._slot_terms:
            layout = self._layout(len(cols[0]) * (p - 1) ** 2)
            # The longer side goes into the slots.
            if len(rows) > len(cols):
                return [list(line) for line in zip(*_packed_product(cols, rows, p, layout))]
            return _packed_product(rows, cols, p, layout)
        return [[sum(map(_mul, row, col)) % p for col in cols] for row in rows]

    def operator(self, rows):
        n = len(rows[0])
        if len(rows) * n < _PACKED_ENTRIES or n > self._slot_terms:
            return super().operator(rows)
        p, slots, layout = self.p, len(rows), self._layout(n * (self.p - 1) ** 2)
        columns = _pack(zip(*rows), layout)
        return lambda v: _unpack(sum(map(_mul, v, columns)), slots, p, layout)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def sqrt(self, a):
        """Distinct square roots of ``a``, smallest residue first, or None."""
        p = self.p
        if a == 0:
            return (0,)
        if p == 2:
            return (a,)
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        r = self._tonelli_shanks(a)
        return (r, p - r) if r <= p - r else (p - r, r)

    def _tonelli_shanks(self, a: int) -> int:
        p = self.p
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def _build_poly_ops(self) -> PolyOps:
        return _poly_ops(self.p, 0)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (p is checked for primality)."""
    field = _gf_cache.get(p)
    if field is None:
        field = PrimeField(p)
        _gf_cache[p] = field
    return field


class Scalar:
    """An exact field element: a canonical raw value tagged with its field.

    Rational values are always in lowest terms with positive denominator
    (guaranteed by Fraction); prime-field values are canonical residues.
    Arithmetic mixes freely with ints, Fractions, and literals, which are
    canonicalized into the same field first.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine scalars over {self.field} and {other.field}")
            return other.value
        if isinstance(other, (int, Fraction, str)) and not isinstance(other, bool):
            return self.field.canon(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Scalar(self.field, self.field.div(v, self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.value == self.field.canon(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.value} over {self.field})"


def sqrt_if_exists(x: Scalar) -> tuple[Scalar, ...] | None:
    """All square roots of x in its field, or None if there are none.

    The canonical root comes first (positive over Q, smaller residue over
    GF(p)); the tuple has one entry when the two roots coincide, as for
    x = 0 or in characteristic 2.
    """
    roots = x.field.sqrt(x.value)
    if roots is None:
        return None
    return tuple(Scalar(x.field, r) for r in roots)
