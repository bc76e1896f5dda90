"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial has an empty coefficient tuple and degree -1 by convention.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import EmptyInput, FieldMismatch
from .fields import Field, Scalar


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        canon = field.canon
        raw = [canon(c) for c in coeffs]
        while raw and field.is_zero(raw[-1]):
            raw.pop()
        self.field = field
        self.coeffs = tuple(raw)

    @classmethod
    def _raw(cls, field: Field, coeffs: Sequence) -> "Polynomial":
        # Trusted constructor: coeffs already canonical with no trailing zeros.
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls._raw(field, (field.zero, field.one))

    @classmethod
    def x_power(cls, field: Field, k: int) -> "Polynomial":
        return cls._raw(field, (field.zero,) * k + (field.one,))

    @classmethod
    def constant(cls, field: Field, value) -> "Polynomial":
        return cls(field, (value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coefficient(self, k: int) -> Scalar:
        value = self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero
        return Scalar(self.field, value)

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise FieldMismatch(f"polynomials over {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Scalar)) and not isinstance(other, bool):
            return Polynomial(self.field, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ops = self.field.poly_ops()
        return Polynomial._raw(self.field, ops.add(list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ops = self.field.poly_ops()
        return Polynomial._raw(self.field, ops.sub(list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        ops = self.field.poly_ops()
        return Polynomial._raw(self.field, ops.neg(list(self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)) and not isinstance(other, bool):
            ops = self.field.poly_ops()
            return Polynomial._raw(self.field, ops.scale(list(self.coeffs), self.field.canon(other)))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ops = self.field.poly_ops()
        return Polynomial._raw(self.field, ops.mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial._raw(self.field, (self.field.one,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ops = self.field.poly_ops()
        q, r = ops.divmod(list(self.coeffs), list(other.coeffs))
        return Polynomial._raw(self.field, q), Polynomial._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point):
        """Evaluate at a scalar (Horner)."""
        field = self.field
        x = field.canon(point)
        acc = field.zero
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, x), c)
        return Scalar(field, acc)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def coefficient_strings(self) -> list[str]:
        """Ascending-degree coefficient list, each entry as exact text."""
        return [str(c) for c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if self.field.is_zero(c):
                continue
            if k == 0:
                term = str(c)
            else:
                xk = "X" if k == 1 else f"X^{k}"
                if c == self.field.one:
                    term = xk
                elif self.field.characteristic == 0 and c == -1:
                    term = f"-{xk}"
                else:
                    term = f"{c}*{xk}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Polynomial({self} over {self.field})"


def product(factors: Sequence[Polynomial]) -> Polynomial:
    """Product of a nonempty sequence of polynomials over one field."""
    factors = list(factors)
    if not factors:
        raise EmptyInput("product of an empty sequence of polynomials")
    field = factors[0].field
    ops = field.poly_ops()
    acc = list(factors[0].coeffs)
    for f in factors[1:]:
        if f.field != field:
            raise FieldMismatch(f"polynomials over {field} and {f.field}")
        acc = ops.mul(acc, list(f.coeffs))
    return Polynomial._raw(field, acc)
