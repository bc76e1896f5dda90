"""The packed GF(p) kernels of ``fields`` (``PrimeField.product`` and
``PrimeField.operator``) against the plain loops they replace: on random
shapes at and around the slot bound k*(p-1)**2 < 2**64, and through
``rnf_transform`` with the kernels forced back to the plain loops."""

import random
from math import isqrt

import pytest

import matcanon.fields as fields
from matcanon import GF, Matrix, rnf_transform
from matcanon.fields import PrimeField, _is_prime
from matcanon.rnf import RationalNormalForm, assemble_rnf_matrix

from helpers import rand_monic


def plain_product(field, rows, cols):
    """The product as one exact dot product an entry, reduced once."""
    p = field.p
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in rows]


def plain_operator(field, rows):
    """v -> A*v as one exact dot product a row, reduced once."""
    p = field.p
    return lambda v: [sum(x * y for x, y in zip(row, v)) % p for row in rows]


def largest_packed_prime(k: int) -> int:
    """The largest prime p with k*(p-1)**2 < 2**64."""
    p = isqrt(((1 << 64) - 1) // k) + 1
    while not _is_prime(p):
        p -= 1
    assert k * (p - 1) ** 2 < 1 << 64
    return p


def next_prime(p: int) -> int:
    p += 1
    while not _is_prime(p):
        p += 1
    return p


def shapes(rng):
    """(rows, inner, cols) of products: 1 x k times k x m, r x k times
    k x 1, a side of 1 inside, square ones, both sides of the crossover
    and random ones up to 64."""
    out = [(1, 1, 1), (1, 64, 1), (1, 5, 64), (64, 5, 1), (64, 1, 64), (4, 6, 6), (6, 6, 4),
           (3, 8, 8), (8, 8, 3), (2, 12, 12), (5, 5, 5), (32, 32, 32), (64, 64, 64), (144, 12, 2)]
    out += [tuple(rng.randint(1, 64) for _ in range(3)) for _ in range(6)]
    return out


def recorded_packs(monkeypatch):
    """A list that gets one entry per call of fields._pack."""
    packs, pack = [], fields._pack
    monkeypatch.setattr(fields, "_pack", lambda lines: packs.append(1) or pack(lines))
    return packs


class TestPackedKernels:
    @pytest.mark.parametrize("p", [2, 3, 10007])
    def test_product_and_operator_match_plain_loops(self, p, monkeypatch):
        """Small fields: random entries and every entry p - 1; the packed
        path runs exactly from _PACKED_ENTRIES entries on."""
        field = GF(p)
        rng = random.Random(f"packed/{p}")
        packs = recorded_packs(monkeypatch)
        for r, k, m in shapes(rng):
            for entry in (lambda: rng.randrange(p), lambda: p - 1):
                rows = [[entry() for _ in range(k)] for _ in range(r)]
                cols = [[entry() for _ in range(k)] for _ in range(m)]
                packs.clear()
                assert field.product(rows, cols) == plain_product(field, rows, cols)
                assert bool(packs) == (r * m >= fields._PACKED_ENTRIES)
                square = [[entry() for _ in range(k)] for _ in range(k)]
                op = field.operator(square)
                for v in cols:
                    assert op(v) == plain_operator(field, square)(v)

    def test_slot_bound(self, monkeypatch):
        """For each shape, the largest prime whose k products fit one 64-bit
        slot takes the packed path and matches the plain loops with every
        entry p - 1, its largest sum; the next prime takes the plain path."""
        rng = random.Random("slot bound")
        packs = recorded_packs(monkeypatch)
        for r, k, m in shapes(rng):
            for p, packed in ((largest_packed_prime(k), True), (next_prime(largest_packed_prime(k)), False)):
                field = GF(p)
                for entry in (lambda: rng.randrange(p), lambda: p - 1):
                    rows = [[entry() for _ in range(k)] for _ in range(r)]
                    cols = [[entry() for _ in range(k)] for _ in range(m)]
                    square = [[entry() for _ in range(k)] for _ in range(k)]
                    packs.clear()
                    assert field.product(rows, cols) == plain_product(field, rows, cols)
                    op = field.operator(square)
                    assert [op(v) for v in cols] == [plain_operator(field, square)(v) for v in cols]
                    big = r * m >= fields._PACKED_ENTRIES, k * k >= fields._PACKED_ENTRIES
                    assert len(packs) == (sum(big) if packed else 0)


def with_chain(field, parts, rng):
    """The block companion of a random chain of the given degrees (cyclic
    for one part, derogatory for more), conjugated by 4n transvections
    I + e*E_ij, e = +-1."""
    p = field.characteristic
    factors = [rand_monic(field, parts[-1], rng)]
    for part in reversed(parts[:-1]):
        factors.insert(0, factors[0] * rand_monic(field, part - factors[0].degree, rng))
    rows = [list(row) for row in assemble_rnf_matrix(RationalNormalForm(factors))._rows]
    n = len(rows)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((1, p - 1))
        rows[i] = [(x + e * y) % p for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = (row[j] - e * row[i]) % p
    return Matrix(field, rows)


def with_plain_kernels(monkeypatch, a):
    """rnf_transform(a) with PrimeField.product and operator forced to the
    plain loops."""
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "product", plain_product)
        patch.setattr(PrimeField, "operator", plain_operator)
        return rnf_transform(a)


class TestTransformOnPlainKernels:
    """(R, T, chain) are the same with the packed kernels and with the
    plain loops, n = 32 to 64.  Derogatory matrices stop at n = 32 over
    GF(10007), where the k[X] diagonalization of their chain, which runs
    on neither kernel, takes 12 s at n = 64."""

    @pytest.mark.parametrize("p", [2, 3, 10007])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_dense(self, p, n, monkeypatch):
        field = GF(p)
        rng = random.Random(f"dense/{p}/{n}")
        a = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert rnf_transform(a) == with_plain_kernels(monkeypatch, a)

    @pytest.mark.parametrize("p, parts", [
        (2, (64,)), (3, (48,)), (10007, (64,)),
        (2, (32, 16, 8, 8)), (3, (32, 16, 8, 8)), (2, (24, 12, 8, 4)), (3, (20, 20, 4, 4)),
        (10007, (16, 8, 4, 4)), (10007, (12, 12, 8))], ids=str)
    def test_chain(self, p, parts, monkeypatch):
        field = GF(p)
        a = with_chain(field, parts, random.Random(f"chain/{p}/{parts}"))
        packed = rnf_transform(a)
        assert tuple(f.degree for f in packed[2]) == parts
        assert packed == with_plain_kernels(monkeypatch, a)

