"""Exact matrix algebra: products, inverses, rank/kernel, block assembly."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

import matcanon.matrix
from matcanon import (
    GF,
    QQ,
    BasisFailure,
    DimensionMismatch,
    EmptyInput,
    FieldMismatch,
    Matrix,
    NonSquare,
    SingularMatrix,
    block_diagonal,
)
from matcanon.fields import _is_prime
from matcanon.matrix import (
    _hadamard_bits, _modular_lift, _prime, _rational_reconstruction, _reconstruction_bound,
)

from helpers import (
    leibniz_det,
    permutation_sign,
    rand_invertible,
    rand_matrix,
    rand_scalar_raw,
    reference_inverse,
    reference_rank_and_kernel,
    submatrix,
)


class TestBasics:
    def test_multiplication(self):
        a = Matrix(QQ, [[1, 2], [3, 4]])
        b = Matrix(QQ, [[0, 1], [1, 0]])
        assert a * b == Matrix(QQ, [[2, 1], [4, 3]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Matrix(QQ, [[1, 2]]) * Matrix(QQ, [[1, 2]])

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Matrix(QQ, [[1]]) * Matrix(GF(5), [[1]])

    def test_trace_and_transpose(self):
        a = Matrix(GF(7), [[1, 2], [3, 4]])
        assert a.trace() == GF(7)(5)
        assert a.transpose() == Matrix(GF(7), [[1, 3], [2, 4]])

    def test_power(self):
        n = Matrix(QQ, [[0, 0], [1, 0]])
        assert n ** 2 == Matrix.zeros(QQ, 2, 2)
        assert n ** 0 == Matrix.identity(QQ, 2)

    def test_negation(self):
        a = Matrix(GF(7), [[1, 0], [3, 6]])
        assert -a == Matrix(GF(7), [[6, 0], [4, 1]])
        assert a + (-a) == Matrix.zeros(GF(7), 2, 2)

    def test_negative_power_inverts(self):
        # Oracle by hand: the shear [[1, 1], [0, 1]] has inverse [[1, -1], [0, 1]].
        a = Matrix(QQ, [[1, 1], [0, 1]])
        assert a ** -1 == Matrix(QQ, [[1, -1], [0, 1]])
        assert a ** -3 == Matrix(QQ, [[1, -3], [0, 1]])
        with pytest.raises(SingularMatrix):
            Matrix(QQ, [[1, 2], [2, 4]]) ** -1

    def test_nonsquare_trace(self):
        with pytest.raises(NonSquare):
            Matrix(QQ, [[1, 2]]).trace()

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix(QQ, [[1, 2], [3]])


class TestInverse:
    def test_identity(self):
        ident = Matrix.identity(QQ, 4)
        assert ident.inverse() == ident

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix(QQ, [[1, 2], [2, 4]]).inverse()

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
    def test_inverse_times_self(self, field):
        rng = random.Random(3)
        for n in range(1, 9):
            a = rand_invertible(field, n, rng)
            assert a.inverse() * a == Matrix.identity(field, n)
            assert a * a.inverse() == Matrix.identity(field, n)


class TestRankKernel:
    def test_zero_matrix(self):
        rank, kernel = Matrix.zeros(QQ, 3, 3).rank_and_kernel()
        assert rank == 0 and len(kernel) == 3

    def test_rank_one_kernel(self):
        # Oracle by hand: x + 2y = 0 with y free gives (-2, 1).
        rank, kernel = Matrix(QQ, [[1, 2], [2, 4]]).rank_and_kernel()
        assert rank == 1
        assert len(kernel) == 1
        assert kernel[0] == Matrix(QQ, [[-2], [1]])

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(3)])
    def test_kernel_annihilates(self, field):
        rng = random.Random(17)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            a = rand_matrix(field, nrows, rng, ncols)
            rank, kernel = a.rank_and_kernel()
            assert rank + len(kernel) == ncols
            for v in kernel:
                assert (a * v).is_zero()

    def test_full_rank_empty_kernel(self):
        rank, kernel = Matrix.identity(GF(5), 4).rank_and_kernel()
        assert rank == 4 and kernel == []


class TestBlockDiagonal:
    def test_single_block(self):
        b = Matrix(QQ, [[1, 2], [3, 4]])
        assert block_diagonal([b]) == b

    def test_two_scalars(self):
        assert block_diagonal([Matrix(QQ, [[1]]), Matrix(QQ, [[2]])]) == Matrix(QQ, [[1, 0], [0, 2]])

    def test_anchor_positions(self):
        # Blocks of sizes (5, 3, 2, 2) must anchor at rows 0, 5, 8, 10.
        sizes = (5, 3, 2, 2)
        blocks = [Matrix(QQ, [[7] * s for _ in range(s)]) for s in sizes]
        big = block_diagonal(blocks)
        assert big.nrows == 12
        anchors = []
        offset = 0
        for s in sizes:
            anchors.append(offset)
            offset += s
        assert anchors == [0, 5, 8, 10]
        for anchor, s in zip(anchors, sizes):
            block = submatrix(big, anchor, anchor + s, anchor, anchor + s)
            assert block == Matrix(QQ, [[7] * s for _ in range(s)])
        # everything off the blocks is zero
        for i in range(12):
            for j in range(12):
                inside = any(a <= i < a + s and a <= j < a + s for a, s in zip(anchors, sizes))
                if not inside:
                    assert big[i, j].is_zero()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            block_diagonal([])

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            block_diagonal([Matrix(QQ, [[1]]), Matrix(GF(5), [[1]])])


class TestDeterminant:
    def test_known_value(self):
        assert Matrix(QQ, [[1, 2], [3, 4]]).det() == QQ(-2)

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(10):
            a = rand_matrix(GF(7), 3, rng)
            b = rand_matrix(GF(7), 3, rng)
            assert (a * b).det() == a.det() * b.det()

    def test_invertibility_flag(self):
        assert Matrix(QQ, [[2]]).is_invertible()
        assert not Matrix(QQ, [[1, 1], [1, 1]]).is_invertible()


# 2**62 - 57 is above 2**32, so its spans run the plain loop.
ELIM_FIELDS = [GF(2), GF(3), GF(10007), GF(2 ** 62 - 57), QQ]


def elimination_cases(field, seed, max_n=5):
    """Zero, random and rank-deficient matrices of the shapes elimination
    meets: tall 2N x N (the intertwiner systems), wide N x 2N, square, 1 x 1."""
    rng = random.Random(seed)
    shapes = [(1, 1)]
    for n in range(1, max_n + 1):
        shapes += [(2 * n, n), (n, 2 * n), (n, n)]
    for nrows, ncols in shapes:
        yield Matrix.zeros(field, nrows, ncols)
        yield rand_matrix(field, nrows, rng, ncols)
        k = rng.randint(1, min(nrows, ncols))
        yield rand_matrix(field, nrows, rng, k) * rand_matrix(field, k, rng, ncols)


@pytest.mark.parametrize("field", ELIM_FIELDS, ids=str)
class TestAgainstGaussJordan:
    """The echelon form of a span with back substitution against full
    Gauss-Jordan."""

    def test_rank_and_kernel_basis(self, field):
        for seed in range(4):
            for a in elimination_cases(field, seed):
                rank, kernel = a.rank_and_kernel()
                ref_rank, ref_basis = reference_rank_and_kernel(a)
                assert rank == ref_rank == a.rank()
                assert [v.column_raw(0) for v in kernel] == ref_basis

    def test_det_and_invertibility(self, field):
        for seed in range(4):
            for a in elimination_cases(field, seed):
                if a.is_square:
                    det = leibniz_det(a)
                    assert a.det().value == det
                    assert a.is_invertible() == (not field.is_zero(det))

    def test_det_of_permutation_matrices(self, field):
        signs = set()
        for n in range(1, 6):
            for perm in permutations(range(n)):
                p = Matrix(field, [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])
                sign = permutation_sign(perm)
                signs.add(sign)
                assert p.det() == field(sign)
        assert signs == {1, -1}

    def test_inverse(self, field):
        for seed in range(4):
            for a in elimination_cases(field, seed):
                if not a.is_square:
                    continue
                ref = reference_inverse(a)
                if ref is None:
                    assert not a.is_invertible()
                    with pytest.raises(SingularMatrix):
                        a.inverse()
                else:
                    assert a.inverse() == ref


def rand_nonzero(field, rng):
    while True:
        x = rand_scalar_raw(field, rng)
        if not field.is_zero(x):
            return x


def plu(field, n, rng, singular):
    """(P*L*U, sign(P) times the product of the diagonal of U): P a random
    permutation matrix, L random unit lower triangular and U random upper
    triangular with a nonzero diagonal, one entry of it 0 if singular."""
    zero, one = field.zero, field.one
    perm = rng.sample(range(n), n)
    diagonal = [rand_nonzero(field, rng) for _ in range(n)]
    if singular:
        diagonal[rng.randrange(n)] = zero
    p = Matrix(field, [[one if j == perm[i] else zero for j in range(n)] for i in range(n)])
    lower = Matrix(field, [[rand_scalar_raw(field, rng) if j < i else one if j == i else zero
                            for j in range(n)] for i in range(n)])
    upper = Matrix(field, [[rand_scalar_raw(field, rng) if j > i else diagonal[i] if j == i else zero
                            for j in range(n)] for i in range(n)])
    det = one if permutation_sign(perm) > 0 else field.neg(one)
    for x in diagonal:
        det = field.mul(det, x)
    return p * lower * upper, det


DET_CASES = [(field, n) for field in ELIM_FIELDS[:4] for n in (8, 16, 24, 40)] + [(QQ, n) for n in (4, 8, 12)]


class TestDetBeyondLeibniz:
    """det past the Leibniz range, where its sign comes from the order in
    which the span found its pivots: P*L*U has det sign(P) times the
    product of the diagonal of U, and an anti-diagonal matrix the sign of
    the reversal times the product of its entries."""

    @pytest.mark.parametrize("field, n", DET_CASES, ids=str)
    def test_plu(self, field, n):
        rng = random.Random(f"plu/{field}/{n}")
        for singular in (False, False, True):
            a, det = plu(field, n, rng, singular)
            assert a.det().value == det
            if not singular:
                assert a.inverse() * a == Matrix.identity(field, n)

    @pytest.mark.parametrize("field, n", DET_CASES, ids=str)
    def test_anti_diagonal(self, field, n):
        rng = random.Random(f"anti-diagonal/{field}/{n}")
        entries = [rand_nonzero(field, rng) for _ in range(n)]
        a = Matrix(field, [[entries[i] if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])
        det = field.one if permutation_sign(range(n - 1, -1, -1)) > 0 else field.neg(field.one)
        for x in entries:
            det = field.mul(det, x)
        assert a.det().value == det


def modular_primes_used(monkeypatch, a):
    """rank_and_kernel of a, and the indices of the primes it reduced
    modulo: those of the sequence for its column count (``_prime(i,
    a.ncols)``)."""
    used = []

    def recording(i, width=None):
        assert width == a.ncols
        used.append(i)
        return _prime(i, width)

    monkeypatch.setattr(matcanon.matrix, "_prime", recording)
    return a.rank_and_kernel(), used


def assert_matches_reference(a):
    rank, kernel = a.rank_and_kernel()
    ref_rank, ref_basis = reference_rank_and_kernel(a)
    assert rank == ref_rank == a.rank()
    assert [v.column_raw(0) for v in kernel] == ref_basis
    assert all(type(x) is Fraction for v in kernel for x in v.column_raw(0))


class TestModularRankKernel:
    """Rank and kernel over Q run modulo primes; the results must be those
    of exact Gauss-Jordan elimination, including for unlucky primes.  The
    lift of a matrix with c columns runs modulo _prime(i, c), so each
    unlucky input is built from the primes of its own column count."""

    @pytest.mark.parametrize("width", [1, 4, 64, 576])
    def test_packed_prime_sequence(self, width):
        """The primes of a lift of that width: the largest p with
        (width+1)*(p-1)**2 < 2**64, decreasing, none skipped, so that the
        spans, products and operators of that width pack."""
        primes = [_prime(i, width) for i in range(6)]
        assert all(_is_prime(p) for p in primes)
        assert all(p > q for p, q in zip(primes, primes[1:]))
        assert not any(_is_prime(q) for q in range(primes[-1] + 1, primes[0]) if q not in primes)
        above = primes[0] + 1
        while not _is_prime(above):
            above += 1
        assert (width + 1) * (primes[0] - 1) ** 2 < 2 ** 64 <= (width + 1) * (above - 1) ** 2
        assert all(GF(p)._slot_terms > width for p in primes)

    def test_unlucky_prime_drops_the_rank(self, monkeypatch):
        p0 = _prime(0, 2)
        a = Matrix(QQ, [[p0, 0], [0, 1]])
        (rank, kernel), used = modular_primes_used(monkeypatch, a)
        assert (rank, kernel) == (2, [])
        assert used == [0, 1]
        p0 = _prime(0, 3)
        b = Matrix(QQ, [[p0, 0, p0], [1, 1, 1], [2, 2, 2]])
        (rank, kernel), used = modular_primes_used(monkeypatch, b)
        assert rank == 2 and used[:2] == [0, 1]
        assert_matches_reference(b)

    def test_unlucky_prime_shifts_the_pivots(self, monkeypatch):
        p0 = _prime(0, 2)
        a = Matrix(QQ, [[p0, 1]])
        (rank, kernel), used = modular_primes_used(monkeypatch, a)
        assert rank == 1
        assert kernel == [Matrix(QQ, [[Fraction(-1, p0)], [1]])]
        assert used[0] == 0 and len(used) > 1
        assert_matches_reference(a)

    def test_unlucky_prime_after_a_good_one_is_skipped(self, monkeypatch):
        # -1/p1 needs three good primes; p1 comes second and moves the pivot,
        # so it must be skipped without discarding p0.
        p1 = _prime(1, 2)
        a = Matrix(QQ, [[p1, 1]])
        (rank, kernel), used = modular_primes_used(monkeypatch, a)
        assert rank == 1 and kernel == [Matrix(QQ, [[Fraction(-1, p1)], [1]])]
        assert used == [0, 1, 2, 3]

    def test_two_unlucky_primes(self, monkeypatch):
        # det = p0 * p1: both first primes lose a pivot; the third is good.
        p0, p1 = _prime(0, 3), _prime(1, 3)
        a = Matrix(QQ, [[p0, 0, 0], [0, p1, 0], [1, 1, 1]])
        assert leibniz_det(a) == p0 * p1
        (rank, kernel), used = modular_primes_used(monkeypatch, a)
        assert (rank, kernel) == (3, []) and used == [0, 1, 2]
        # With one more column the rank stays 3 modulo p0 and p1 but the
        # pivots move right; -1/p0 and -1/p1 need several good primes.
        p0, p1 = _prime(0, 4), _prime(1, 4)
        b = Matrix(QQ, [[p0, 0, 0, 1], [0, p1, 0, 1], [0, 0, 1, 1]])
        (rank, kernel), used = modular_primes_used(monkeypatch, b)
        assert rank == 3 and used[:2] == [0, 1] and len(used) > 3
        assert kernel == [Matrix(QQ, [[Fraction(-1, p0)], [Fraction(-1, p1)], [-1], [1]])]

    def test_large_entries_need_several_primes(self, monkeypatch):
        rng = random.Random(29)
        big = 1 << 200
        for nrows, ncols, k in ((4, 6, 3), (6, 4, 3), (5, 5, 4)):
            left = Matrix(QQ, [[rng.randint(-big, big) for _ in range(k)] for _ in range(nrows)])
            right = Matrix(QQ, [[rng.randint(-big, big) for _ in range(ncols)] for _ in range(k)])
            a = left * right
            (rank, _), used = modular_primes_used(monkeypatch, a)
            assert rank == k and len(used) > 2
            assert_matches_reference(a)

    def test_hilbert_matrix(self, monkeypatch):
        # The kernel of [H | I] for the 12 x 12 Hilbert matrix H is spanned
        # by the columns of -H^-1 over e_j, whose entries reach 2^50.
        n = 12
        a = Matrix(QQ, [[Fraction(1, i + j + 1) for j in range(n)] + [int(i == j) for j in range(n)]
                        for i in range(n)])
        (rank, kernel), used = modular_primes_used(monkeypatch, a)
        assert rank == n and len(kernel) == n and len(used) > 1
        assert_matches_reference(a)
        h = submatrix(a, 0, n, 0, n)
        assert Matrix.from_columns(QQ, [v.column_raw(0)[:n] for v in kernel]) == -h.inverse()

    @pytest.mark.parametrize("n", [32, 48])
    def test_beyond_brute_force(self, n):
        """Full and half rank at n = 32 and 48, entries with denominators
        1 to 9, against exact Gauss-Jordan elimination."""
        rng = random.Random(f"rank/{n}")
        full = rand_matrix(QQ, n, rng)
        half = rand_matrix(QQ, n, rng, n // 2) * rand_matrix(QQ, n // 2, rng, n)
        for a, rank in ((full, n), (half, n // 2)):
            assert a.rank() == rank
            assert_matches_reference(a)

    def test_mixed_denominators_and_shapes(self):
        rng = random.Random(31)
        for nrows, ncols in ((1, 1), (1, 5), (5, 1), (3, 9), (9, 3), (8, 8), (12, 6), (6, 12)):
            assert_matches_reference(Matrix.zeros(QQ, nrows, ncols))
            dens = [rng.choice((1, 2, 3, 7, 10, 1 << 40, 10 ** 15 + 37)) for _ in range(ncols)]
            a = Matrix(QQ, [[Fraction(rng.randint(-99, 99), d) for d in dens] for _ in range(nrows)])
            assert_matches_reference(a)
            k = rng.randint(1, min(nrows, ncols))
            assert_matches_reference(rand_matrix(QQ, nrows, rng, k) * submatrix(a, 0, k, 0, ncols))


class TestModularLift:
    """The one driver of computations over Q modulo primes, on a synthetic
    computation whose runs take one of two decisions."""

    values = {
        "a": [Fraction(3 ** 45, 7), Fraction(-1, 2)],  # needs five primes of width 1
        "b": [Fraction(-5 ** 30, 11)],  # needs five primes of width 1
    }

    def test_each_key_combines_its_own_primes(self):
        # Primes alternate between the keys; the fourth prime is unusable.
        seen, accepted = [], []

        def image(p):
            i = len(seen)
            seen.append(p)
            if i == 3:
                return None
            key = "ab"[i % 2]
            return key, [x.numerator * pow(x.denominator, -1, p) % p for x in self.values[key]]

        def accept(key, values, bound):
            accepted.append((len(seen), key, values, bound))
            return key if key == "b" and values == self.values[key] else None

        guards = []  # read once, when the second prime is needed
        assert _modular_lift(image, accept, lambda: guards.append(len(seen)) or 1000, 1) == "b"
        assert len(seen) == 12 and guards == [1]
        primes = {"a": seen[0::2], "b": [seen[1]] + seen[5::2]}
        for key in "ab":
            calls = [(count, values, bound) for count, k, values, bound in accepted if k == key]
            # Right from the fifth prime of the key on, never before.
            assert [count for count, values, _ in calls if values == self.values[key]] == (
                [9, 11] if key == "a" else [12])
            modulus = 1
            for p in primes[key]:
                modulus *= p
            assert calls[-1][2] == _reconstruction_bound(modulus)

    def test_hadamard_bits_pass_the_old_limit(self):
        """2**_hadamard_bits(factors) is above 4*H^6, H^2 the product of the
        factors, the limit the primes were compared with, and at most 3 bits
        a factor above it, on random factors, the empty list included."""
        rng = random.Random(5)
        for count in [0] * 5 + [rng.randrange(1, 8) for _ in range(100)]:
            factors = [rng.randrange(1, 1 << rng.randrange(1, 200)) for _ in range(count)]
            limit, bits = 4 * prod(factors) ** 3, _hadamard_bits(factors)
            assert limit < 1 << bits <= limit << 3 * max(1, count)
        assert _hadamard_bits([0, 5]) == _hadamard_bits([1, 5]) and _hadamard_bits([]) == _hadamard_bits([1])
        bits = _hadamard_bits([(1 << 1000) + 1] * 1000)  # H^2 of about a million bits
        assert 4 * ((1 << 1000) + 1) ** 3000 < 1 << bits and bits == 3 * 1001 * 1000 + 2

    def test_limit_raises(self):
        seen = []

        def image(p):
            seen.append(p)
            return "a", [1]

        bits = (_prime(0, 1) * _prime(1, 1)).bit_length()  # passed once a third prime is tried
        with pytest.raises(BasisFailure):
            _modular_lift(image, lambda key, values, bound: None, lambda: bits, 1)
        assert seen == [_prime(0, 1), _prime(1, 1), _prime(2, 1)]

    @staticmethod
    def _lifts(monkeypatch, width, values, bits):
        """Run one key with the given true values on the primes of a width,
        up to a guard of the given bits; return the primes tried, the modulus
        of each lift and the result (None for BasisFailure)."""
        seen, moduli = [], []

        def image(p):
            seen.append(p)
            return "a", [x.numerator * pow(x.denominator, -1, p) % p for x in values]

        def reconstruction(residues, m):
            moduli.append(m)
            return _rational_reconstruction(residues, m)

        monkeypatch.setattr(matcanon.matrix, "_rational_reconstruction", reconstruction)
        try:
            result = _modular_lift(image, lambda key, lifted, bound: key if lifted == values else None,
                                   lambda: bits, width)
        except BasisFailure:
            result = None
        return seen, moduli, result

    @pytest.mark.parametrize("width", [1, 64])
    def test_lifts_are_spaced_by_bits(self, monkeypatch, width):
        """Each lift has at least a tenth more bits of modulus than the one
        before, and comes at the first prime that gives them."""
        values = [Fraction(3 ** 200, 7), Fraction(-1, 5 ** 90)]
        seen, moduli, result = self._lifts(monkeypatch, width, values, 10 ** 6)
        products = [prod(seen[:k]) for k in range(1, len(seen) + 1)]
        assert result == "a" and len(seen) > 16 and len(moduli) < len(seen)
        assert moduli[0] == seen[0] and moduli[-1] == products[-1]
        for before, after in zip(moduli, moduli[1:]):
            due = before.bit_length() + before.bit_length() // 10
            assert after.bit_length() >= due > products[products.index(after) - 1].bit_length()

    def test_guard_lifts_what_is_left(self, monkeypatch):
        """A key whose values first reconstruct at a prime after which its
        schedule does not lift them is lifted there once the guard is met."""
        products = [prod(_prime(i, 1) for i in range(k)) for k in range(1, 31)]
        # The schedule, from a run whose values never reconstruct.
        _, moduli, _ = self._lifts(monkeypatch, 1, [Fraction(3 ** 2000)], products[-1].bit_length() - 1)
        count = next(k for k in range(17, 30) if products[k - 1] not in moduli)
        m = products[count - 1]
        values = [Fraction(_reconstruction_bound(m))]  # no smaller modulus gives it
        seen, moduli, result = self._lifts(monkeypatch, 1, values, m.bit_length() - 1)
        assert result == "a" and len(seen) == count and moduli[-1] == m
        assert m not in moduli[:-1] and all(x < m for x in moduli[:-1])
