"""Affine representative families for similarity classes.

A generalized companion matrix C(Q_1, ..., Q_s) chains the companion
blocks B(Q_j) with ones on the whole subdiagonal, so the free entries sit
exactly in the last column of each block.  For a partition p, the family
A(p) consists of the block-diagonal matrices whose i-th block is
C(Q_k, ..., Q_s), where k is determined by the descents of p; its points
are parametrized by tuples (Q_1, ..., Q_s) of monic polynomials whose
degrees are the descent sizes, and the map to the rational normal form
with block sizes p is a bijection realized by to_rnf / to_affine.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import ChainViolation, DegreeMismatch, DegreeZero, EmptyInput, NotMonic
from .fields import Field
from .matrix import Matrix, block_diagonal
from .poly import Polynomial, product
from .rnf import Partition, RationalNormalForm, companion, partition_of


class JumpData(NamedTuple):
    """Descent data of a partition.

    ``jumps`` lists the 1-based positions i with p_i > p_{i+1}; appending
    r (the number of parts) gives the block boundaries.  ``qs`` holds the
    descent sizes q_i = p_{j_i} - p_{j_i + 1}, closed off with q_s = p_r;
    they telescope to sum(qs) == p_1, and s equals the number of distinct
    part sizes.
    """

    jumps: tuple[int, ...]
    qs: tuple[int, ...]
    r: int

    @property
    def s(self) -> int:
        return len(self.qs)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """(j_0, j_1, ..., j_s) with j_0 = 0 and j_s = r."""
        return (0,) + self.jumps + (self.r,)


def jump_data(p: Partition) -> JumpData:
    parts = p.parts
    r = len(parts)
    jumps = tuple(i + 1 for i in range(r - 1) if parts[i] != parts[i + 1])
    qs = [parts[j - 1] - parts[j] for j in jumps]
    qs.append(parts[-1])
    return JumpData(jumps, tuple(qs), r)


def generalized_companion(qs: Sequence[Polynomial]) -> Matrix:
    """C(Q_1, ..., Q_s): companion blocks joined by subdiagonal ones."""
    qs = list(qs)
    if not qs:
        raise EmptyInput("generalized companion of an empty tuple")
    for q in qs:
        if q.degree < 1:
            raise DegreeZero(f"blocks need degree >= 1, got {q!r}")
        if not q.is_monic():
            raise NotMonic(f"blocks must be monic, got {q!r}")
    field = qs[0].field
    c = block_diagonal([companion(q) for q in qs])
    rows = [list(row) for row in c._rows]
    offset = 0
    for q in qs[:-1]:
        offset += q.degree
        rows[offset][offset - 1] = field.one
    return Matrix._raw(field, rows)


def nilpotent_base(field: Field, q: Sequence[int]) -> Matrix:
    """The unique nilpotent member of the family with block sizes q: the
    sum(q) x sum(q) matrix with ones on the subdiagonal, zeros elsewhere."""
    return generalized_companion([Polynomial.x_power(field, qj) for qj in q])


class AffineRepresentative(tuple):
    """The point (p, Q_1, ..., Q_s) of the affine family A(p)."""

    __slots__ = ()

    def __new__(cls, partition: Partition, qs: Sequence[Polynomial]):
        qs = tuple(qs)
        data = jump_data(partition)
        if len(qs) != data.s:
            raise DegreeMismatch(f"expected {data.s} polynomials for {partition}, got {len(qs)}")
        for q, dq in zip(qs, data.qs):
            if q.degree != dq:
                raise DegreeMismatch(f"expected degree {dq}, got {q!r}")
            if not q.is_monic():
                raise NotMonic(f"family coordinates must be monic, got {q!r}")
        return super().__new__(cls, (partition, *qs))

    def __getnewargs__(self):
        return self[0], self[1:]

    @property
    def partition(self) -> Partition:
        return self[0]

    @property
    def qs(self) -> tuple[Polynomial, ...]:
        return self[1:]

    @property
    def field(self) -> Field:
        return self[1].field

    def realize(self) -> Matrix:
        return affine_point(self.partition, self.qs)

    def __repr__(self):
        inner = ", ".join(map(str, self.qs))
        return f"AffineRepresentative({self.partition}, ({inner}))"


def affine_point(p: Partition, qs: Sequence[Polynomial]) -> Matrix:
    """Realize the member of A(p) with coordinates Qs.

    Block i is C(Q_k, ..., Q_s) for j_{k-1} < i <= j_k, so each block is a
    lower-right sub-block of the first one and the free parameters are the
    p_1 coefficients of the Qs.
    """
    rep = AffineRepresentative(p, qs)
    data = jump_data(rep.partition)
    bounds = data.boundaries
    blocks = []
    for k in range(1, data.s + 1):
        block = generalized_companion(rep.qs[k - 1:])
        blocks.extend([block] * (bounds[k] - bounds[k - 1]))
    return block_diagonal(blocks)


def to_rnf(rep: AffineRepresentative) -> RationalNormalForm:
    """Invariant factors of the realized point: P_i = Q_k * ... * Q_s for
    j_{k-1} < i <= j_k, a chain with the block-size partition."""
    data = jump_data(rep.partition)
    bounds = data.boundaries
    factors = []
    for k in range(1, data.s + 1):
        pk = product(rep.qs[k - 1:])
        factors.extend([pk] * (bounds[k] - bounds[k - 1]))
    return RationalNormalForm(factors)


def to_affine(rnf: RationalNormalForm) -> AffineRepresentative:
    """Inverse of to_rnf: quotients of consecutive distinct invariant
    factors at the descents, closed off with the last factor."""
    p = partition_of(rnf)
    data = jump_data(p)
    qs = []
    for j in data.jumps:
        quotient, remainder = divmod(rnf[j - 1], rnf[j])
        if not remainder.is_zero():
            raise ChainViolation(f"{rnf[j]} does not divide {rnf[j - 1]}")
        qs.append(quotient)
    qs.append(rnf[-1])
    return AffineRepresentative(p, qs)
