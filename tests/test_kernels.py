"""The packed GF(p) kernels against the plain loops they replace: the
products and operators of ``fields`` (``PrimeField.product`` and
``PrimeField.operator``) and the packed row reduction of ``matrix``
(``_Span``, alone and through ``_echelon`` and ``det``), on random shapes
at and around the slot bound k*(p-1)**2 < 2**64 and on both sides of each
narrower slot width, and through ``rnf_transform`` and ``intertwiners``
with every kernel forced back to the plain loops.  The full
``rnf --verify`` output, T included, of matrices at n = 16 to 40 is
pinned by digest."""

import hashlib
import random
from math import isqrt

import pytest

import matcanon.fields as fields
import matcanon.matrix as matrix
from matcanon import GF, Matrix, PairPoint, intertwiners, rnf_transform
from matcanon.cli import main
from matcanon.fields import PrimeField, _is_prime
from matcanon.fileio import format_matrix
from matcanon.rnf import RationalNormalForm, assemble_rnf_matrix

from helpers import rand_invertible, rand_matrix, rand_monic


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
    """A list that gets the slot width of each call of fields._pack."""
    packs, pack = [], fields._pack
    monkeypatch.setattr(fields, "_pack", lambda lines, layout: packs.append(layout[0]) or pack(lines, layout))
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


def plain_reductions(patch):
    """Turn off the packing of matrix._Span."""
    patch.setattr(matrix, "_packs", lambda field, n: False)


def with_plain_kernels(monkeypatch, compute, *args):
    """compute(*args) with PrimeField.product and operator forced to the
    plain loops and _Span to its plain reduction."""
    with monkeypatch.context() as patch:
        patch.setattr(PrimeField, "product", plain_product)
        patch.setattr(PrimeField, "operator", plain_operator)
        plain_reductions(patch)
        return compute(*args)


class TestTransformOnPlainKernels:
    """(R, T, chain) are the same with the packed kernels and reductions
    and with the plain loops, n = 32 to 64.  Derogatory matrices stop at n = 32 over
    GF(10007), where the k[X] diagonalization of their chain, which runs
    on neither kernel, takes 12 s at n = 64."""

    @pytest.mark.parametrize("p", [2, 3, 10007])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_dense(self, p, n, monkeypatch):
        field = GF(p)
        rng = random.Random(f"dense/{p}/{n}")
        a = Matrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert rnf_transform(a) == with_plain_kernels(monkeypatch, rnf_transform, a)

    @pytest.mark.parametrize("p, parts", [
        (2, (64,)), (3, (48,)), (10007, (64,)),
        (2, (32, 16, 8, 8)), (3, (32, 16, 8, 8)), (2, (24, 12, 8, 4)), (3, (20, 20, 4, 4)),
        (10007, (16, 8, 4, 4)), (10007, (12, 12, 8))], ids=str)
    def test_chain(self, p, parts, monkeypatch):
        field = GF(p)
        a = with_chain(field, parts, random.Random(f"chain/{p}/{parts}"))
        packed = rnf_transform(a)
        assert tuple(f.degree for f in packed[2]) == parts
        assert packed == with_plain_kernels(monkeypatch, rnf_transform, a)


def recorded_lines(monkeypatch):
    """A list that gets the slot width of each line that matrix packs."""
    lines, line = [], matrix._line
    monkeypatch.setattr(matrix, "_line", lambda values, layout: lines.append(layout[0]) or line(values, layout))
    return lines


def span_trace(field, vectors):
    """The steps returned for each vector added in turn to a _Span, and its
    pivots, rows and made."""
    span = matrix._Span(field)
    steps = [span.add(list(v)) for v in vectors]
    return steps, span.pivots, span.rows, span.made


def span_inputs(p, n, rng):
    """Sequences of vectors of length n to add to a span: random residues,
    Krylov iterates, every entry p - 1, every entry p - 1 but one 1, and
    zero vectors and sums of earlier vectors among random ones."""
    rand = [[rng.randrange(p) for _ in range(n)] for _ in range(n + 2)]
    a, v = [[rng.randrange(p) for _ in range(n)] for _ in range(n)], [1] + [0] * (n - 1)
    krylov = [v]
    for _ in range(n + 1):
        krylov.append([sum(x * y for x, y in zip(row, krylov[-1])) % p for row in a])
    top = [[p - 1] * n for _ in range(3)]
    near_top = [[1 if j == k else p - 1 for j in range(n)] for k in range(n)] + [[p - 1] * n]
    mixed = [[0] * n, rand[0], rand[1], [0] * n,
             [(x + y) % p for x, y in zip(rand[0], rand[1])]] + rand[2:] + [[(x - y) % p for x, y in zip(rand[2], rand[0])]]
    return [rand, krylov, top, near_top, mixed]


def echelon_trace(field, rows):
    """(pivots, rows) of _echelon, checked to be a row echelon form with
    each row 1 at its pivot column and the input rows left as they were."""
    copy = [list(row) for row in rows]
    pivots, echelon = matrix._echelon(field, rows)
    assert rows == copy and pivots == sorted(set(pivots))
    assert all(row[c] == 1 and not any(row[:c]) for c, row in zip(pivots, echelon))
    return pivots, echelon


def echelon_inputs(p, rng):
    """Matrices for _echelon: 1 x k, k x 1, wide, tall and square, random,
    of rank r < min(rows, cols), all p - 1, p - 1 off a zero diagonal,
    and zero leading columns and a zero row."""
    def rand(r, c):
        return [[rng.randrange(p) for _ in range(c)] for _ in range(r)]

    def rank(r, c, k):
        return plain_product(GF(p), rand(r, k), list(zip(*rand(k, c))))

    return [rand(1, 1), rand(1, 30), rand(30, 1), rand(5, 5), rand(5, 12), rand(8, 40), rand(12, 5),
           rand(40, 8), rand(24, 24), rand(33, 33), rank(12, 12, 4), rank(8, 30, 5), rank(30, 8, 6),
           rank(24, 24, 23), [[p - 1] * 16 for _ in range(16)],
           [[0 if i == j else p - 1 for j in range(12)] for i in range(12)],
           [[0] * 3 + row for row in rand(10, 9)] + [[0] * 12]]


class TestPackedReductions:
    """_Span on packed lines against its plain loop: the same steps,
    pivots, rows and made, for vectors added in turn and for the echelon
    forms of _echelon, and the same ranks, kernels, determinants and
    inverses."""

    @pytest.mark.parametrize("p", [2, 3, 10007])
    def test_span_matches_plain_loop(self, p, monkeypatch):
        field = GF(p)
        rng = random.Random(f"span/{p}")
        lines = recorded_lines(monkeypatch)
        for n in (1, 2, 4, 5, 8, 24, 40):
            for vectors in span_inputs(p, n, rng):
                lines.clear()
                packed = span_trace(field, vectors)
                assert bool(lines) == (n * n >= fields._PACKED_ENTRIES)
                with monkeypatch.context() as patch:
                    plain_reductions(patch)
                    assert packed == span_trace(field, vectors)

    def test_span_slot_bound(self, monkeypatch):
        """The largest prime p with (n+1)*(p-1)**2 < 2**64 reduces vectors
        of n entries on packed lines, n updates at most, and matches the
        plain loop; the next prime takes the plain loop."""
        rng = random.Random("span slot bound")
        lines = recorded_lines(monkeypatch)
        for n in (5, 8, 24, 40):
            p = largest_packed_prime(n + 1)
            for q, packed in ((p, True), (next_prime(p), False)):
                field = GF(q)
                for vectors in span_inputs(q, n, rng):
                    lines.clear()
                    got = span_trace(field, vectors)
                    assert bool(lines) == packed
                    with monkeypatch.context() as patch:
                        plain_reductions(patch)
                        assert got == span_trace(field, vectors)

    @pytest.mark.parametrize("p", [2, 3, 10007])
    def test_echelon_matches_plain_loop(self, p, monkeypatch):
        field = GF(p)
        rng = random.Random(f"forward/{p}")
        lines = recorded_lines(monkeypatch)
        for rows in echelon_inputs(p, rng):
            lines.clear()
            got = echelon_trace(field, rows)
            assert bool(lines) == (len(rows[0]) ** 2 >= fields._PACKED_ENTRIES)
            with monkeypatch.context() as patch:
                plain_reductions(patch)
                assert got == echelon_trace(field, rows)
            assert all(0 <= x < p for row in got[1] for x in row)

    def test_echelon_slot_bound(self, monkeypatch):
        """A row of c entries takes at most c updates: the largest prime p
        with (c+1)*(p-1)**2 < 2**64 takes the packed path and matches the
        plain loop; the next prime takes the plain loop."""
        rng = random.Random("forward slot bound")
        lines = recorded_lines(monkeypatch)
        for r, c in ((5, 5), (5, 40), (24, 24), (40, 8)):
            p = largest_packed_prime(c + 1)
            for q, packed in ((p, True), (next_prime(p), False)):
                field = GF(q)
                for rows in ([[rng.randrange(q) for _ in range(c)] for _ in range(r)],
                             [[q - 1] * c for _ in range(r)],
                             [[1 if i == j else q - 1 for j in range(c)] for i in range(r)]):
                    lines.clear()
                    got = echelon_trace(field, rows)
                    assert bool(lines) == packed
                    with monkeypatch.context() as patch:
                        plain_reductions(patch)
                        assert got == echelon_trace(field, rows)

    @pytest.mark.parametrize("p", [2, 3, 10007, largest_packed_prime(24)])
    def test_matrix_routines_match_plain_loop(self, p, monkeypatch):
        """rank, det, inverse and rank_and_kernel, square n = 5 to 24, of
        full rank and rank-deficient, and wide and tall kernels."""
        field = GF(p)
        rng = random.Random(f"routines/{p}")
        cases = [rand_invertible(field, n, rng) for n in (5, 8, 24)]
        cases += [rand_matrix(field, n, rng, k) * rand_matrix(field, k, rng, n) for n, k in ((6, 3), (24, 20))]
        cases += [rand_matrix(field, 6, rng, 30), rand_matrix(field, 30, rng, 6), Matrix.zeros(field, 8, 8)]
        for m in cases:
            got = [m.rank(), m.rank_and_kernel()]
            if m.is_square:
                got += [m.det(), m.inverse() if m.is_invertible() else None]
            with monkeypatch.context() as patch:
                plain_reductions(patch)
                want = [m.rank(), m.rank_and_kernel()]
                if m.is_square:
                    want += [m.det(), m.inverse() if m.is_invertible() else None]
            assert got == want


def hom_cases(field):
    """The pairs of tests/test_pairs.py TestRelationByRelation over GF(p):
    zero and scalar pairs at n = 8 and 12, three copies of a random pair of
    size 4, (diag(1..n), random) at n = 12 and 16, two random pairs of
    size 8, and P (+) R conjugated against P, sizes 5 + 3 and 5."""
    rng = random.Random(f"hom/{field}")

    def pair(n):
        return PairPoint(rand_matrix(field, n, rng), rand_matrix(field, n, rng))

    out = []
    for n in (8, 12):
        zero, one = Matrix.zeros(field, n, n), Matrix.identity(field, n)
        out += [(PairPoint(zero, zero),) * 2, (PairPoint(one.scale(2), one.scale(3)),) * 2]
    p = pair(4)
    out.append((p.direct_sum(p).direct_sum(p),) * 2)
    for n in (12, 16):
        diagonal = Matrix(field, [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
        m = PairPoint(diagonal, rand_matrix(field, n, rng))
        out.append((m, m))
    out.append((pair(8), pair(8)))
    p = pair(5)
    m = p.direct_sum(pair(3)).conjugated_by(rand_invertible(field, 8, rng))
    out += [(m, p), (p, m)]
    return out


class TestHomOnPlainKernels:
    """Every Hom basis is the same with the packed kernels and reductions
    and with the plain loops."""

    @pytest.mark.parametrize("p", [2, 3, 10007])
    def test_relation_by_relation_cases(self, p, monkeypatch):
        for m, m2 in hom_cases(GF(p)):
            assert intertwiners(m, m2) == with_plain_kernels(monkeypatch, intertwiners, m, m2)


def narrowest_width(bound: int) -> int:
    """The narrowest of the slot widths 8, 16, 32 and 64 that holds bound."""
    return next(w for w in (8, 16, 32, 64) if bound < 1 << w)


# (p, k, width): k the products a slot sums (the inner dimension of a
# product, the columns of an operator), on both sides of each width limit
# k*(p-1)**2 < 2**w, and the largest prime below 2**32, whose one product
# fills a 64-bit slot.  With every entry p - 1, GF(2) at k = 255 fills a
# byte slot.
PRODUCT_WIDTHS = [(2, 40, 8), (2, 255, 8), (2, 256, 16), (3, 63, 8), (3, 64, 16), (7, 7, 8), (7, 8, 16), (251, 1, 16), (251, 2, 32),
                  (10007, 42, 32), (10007, 43, 64), (4294967291, 1, 64)]
# (p, n, width) for spans of vectors of n entries, whose slots reach
# (p-1) + n*(p-1)**2.
SPAN_WIDTHS = [(2, 40, 8), (3, 63, 8), (3, 64, 16), (7, 6, 8), (7, 7, 16), (113, 5, 16), (113, 6, 32),
               (10007, 42, 32), (10007, 43, 64)]


class TestSlotWidths:
    """Each packed kernel takes the narrowest slot that holds its largest
    sum, and matches the plain loops on both sides of each width limit,
    with random entries and with every entry p - 1."""

    @pytest.mark.parametrize("p, k, width", PRODUCT_WIDTHS, ids=str)
    def test_product_and_operator(self, p, k, width, monkeypatch):
        assert narrowest_width(k * (p - 1) ** 2) == width
        field = GF(p)
        rng = random.Random(f"widths/{p}/{k}")
        packs = recorded_packs(monkeypatch)
        for entry in (lambda: rng.randrange(p), lambda: p - 1):
            rows = [[entry() for _ in range(k)] for _ in range(3)]
            cols = [[entry() for _ in range(k)] for _ in range(9)]
            packs.clear()
            assert field.product(rows, cols) == plain_product(field, rows, cols)
            assert field.product(cols, rows) == plain_product(field, cols, rows)
            tall = [[entry() for _ in range(k)] for _ in range(24)]
            op = field.operator(tall)
            assert [op(v) for v in rows] == [plain_operator(field, tall)(v) for v in rows]
            assert packs == [width] * 3

    @pytest.mark.parametrize("p, n, width", SPAN_WIDTHS, ids=str)
    def test_span_echelon_and_det(self, p, n, width, monkeypatch):
        assert narrowest_width(p - 1 + n * (p - 1) ** 2) == width
        field = GF(p)
        rng = random.Random(f"span widths/{p}/{n}")
        lines = recorded_lines(monkeypatch)
        for vectors in span_inputs(p, n, rng):
            got = [span_trace(field, vectors), echelon_trace(field, vectors)]
            if len(vectors) == n:
                got.append(Matrix(field, vectors).det())
            assert lines and set(lines) == {width}
            lines.clear()
            with monkeypatch.context() as patch:
                plain_reductions(patch)
                want = [span_trace(field, vectors), echelon_trace(field, vectors)]
                if len(vectors) == n:
                    want.append(Matrix(field, vectors).det())
            assert got == want and not lines


def rnf_verify_digest(capsys, tmp_path, a: Matrix) -> str:
    """The SHA-256 of the full output of ``rnf --format json --verify``."""
    path = tmp_path / "a.mat"
    path.write_text(format_matrix(a))
    assert main(["rnf", str(path), "--format", "json", "--verify"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def pinned_matrix(p, kind, n):
    """A dense matrix (entries -9..9) or a matrix with the chain of the
    given degrees (:func:`with_chain`), n x n over GF(p)."""
    rng = random.Random(f"pinned/{p}/{kind}/{n}")
    if kind == "dense":
        return Matrix(GF(p), [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    assert sum(kind) == n
    return with_chain(GF(p), kind, rng)


class TestPinnedTransforms:
    """The output of ``rnf --verify``, T included, is the one of the 64-bit
    slots that every packed kernel had before the slots were sized to
    their bounds: dense (all cyclic), cyclic and derogatory matrices at
    n = 16 to 48 over GF(2) and GF(3) (byte slots), GF(7) (16-bit) and
    GF(10007) (32-bit, and 64-bit at n = 48)."""

    @pytest.mark.parametrize("p, kind, n, digest", [
    (2, 'dense', 32, "055d0a64e4dae98e7420f01ce26ef21b832be7ced36fce1c9bb37ed8659ad17e"),
    (2, (40,), 40, "64f113be08083a27f507f1916dc8ada9bdc83dea5156c28fbafce66eff069b10"),
    (2, (16, 8, 8, 4), 36, "235308bde1e2ebe73bbd20f11ba016e528e3c0c0d3ec0682613ebdb611a2d5e3"),
    (3, 'dense', 32, "dd4043dd80bd2456c4ae94935f6896f150dd9383580253e90f501894474787f7"),
    (3, (36,), 36, "13189a04cc0afe1b3f1cd3f7b2f2ce0ce2fe0057a525a1f620830af66e70eb38"),
    (3, (12, 12, 8, 4), 36, "50029f11b8df65d13371c82f632b09e2b3e83774e47ecdf7707cb6934a2377b5"),
    (7, 'dense', 24, "0083997c02e6df9bdee12cf74890370d6038ffedf8c9a65a2d23d486e30bd126"),
    (7, (10, 8, 4, 2), 24, "d0f6e29ac5f40f7e8dfca1d4c17c20b8f2a7cc1f1d4373df655df8b4add6d403"),
    (10007, 'dense', 16, "9664047c53ded1b4e48a37146b95fdd59ea0998432d43dacaffa2b17da322e06"),
    (10007, 'dense', 32, "a16babf6b88bc7b3c5d3e347c92d1f27138882bf142cf29b34ac7fe5c2455804"),
    (10007, 'dense', 48, "6a41be18bfbecf27ccbbfae6190e4fc62c3e6344f0e47551faee1b59402708aa"),
    (10007, (40,), 40, "d02f5cc287d77dd7cdda2df27093e266ff7691d0c7854515c96b09a6443a2fc4"),
    (10007, (12, 8, 4, 4), 28, "f404ac4879c6d1c3953fce576549f8004d916641f22ded5d07b82ae135d13daf"),
    ], ids=lambda x: str(x)[:12].replace(" ", ""))
    def test_rnf_verify_output(self, p, kind, n, digest, capsys, tmp_path):
        assert rnf_verify_digest(capsys, tmp_path, pinned_matrix(p, kind, n)) == digest
