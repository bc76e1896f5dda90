"""Exhaustive-enumeration oracles over small prime fields.

These decide similarity questions by trying every invertible matrix, so
they are independent of the elimination-based algorithms and serve as
ground truth in the tests.  Guarded against blow-up: the full entry
space p^(n^2) must stay small.
"""

from __future__ import annotations

from itertools import product as _cartesian

from matcanon import FieldMismatch, Matrix, PairPoint, PrimeField

_ENUMERATION_LIMIT = 5_000_000


def _check_enumerable(field: PrimeField, n: int):
    if not isinstance(field, PrimeField):
        raise FieldMismatch("enumeration oracles need a finite prime field")
    if field.p ** (n * n) > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration over {field} in size {n} is too large")


def all_matrices(field: PrimeField, n: int):
    """All n x n matrices over GF(p), in lexicographic entry order."""
    _check_enumerable(field, n)
    for entries in _cartesian(range(field.p), repeat=n * n):
        yield Matrix._raw(field, [entries[i * n:(i + 1) * n] for i in range(n)])


_gl_cache: dict[tuple[int, int], tuple[Matrix, ...]] = {}


def invertible_matrices(field: PrimeField, n: int) -> tuple[Matrix, ...]:
    """All of GL_n(GF(p)), in lexicographic entry order (cached)."""
    key = (field.p, n)
    cached = _gl_cache.get(key)
    if cached is None:
        cached = tuple(m for m in all_matrices(field, n) if m.is_invertible())
        _gl_cache[key] = cached
    return cached


def simultaneously_similar(m: PairPoint, m2: PairPoint) -> Matrix | None:
    """Some invertible g conjugating the pair m to the pair m2, or None."""
    if m.field != m2.field:
        raise FieldMismatch("pairs must share one field")
    if m.size != m2.size:
        return None
    for g in invertible_matrices(m.field, m.size):
        if m.m1 * g == g * m2.m1 and m.m2 * g == g * m2.m2:
            return g
    return None


def conjugation_orbit(a: Matrix) -> frozenset[Matrix]:
    """The full similarity orbit of a over its (small) prime field."""
    gl = invertible_matrices(a.field, a.nrows)
    return frozenset(g.inverse() * a * g for g in gl)
