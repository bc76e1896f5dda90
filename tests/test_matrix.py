"""Exact matrix algebra: products, inverses, rank/kernel, block assembly."""

import random

import pytest

from matcanon import (
    GF,
    QQ,
    DimensionMismatch,
    EmptyInput,
    FieldMismatch,
    Matrix,
    NonSquare,
    SingularMatrix,
    block_diagonal,
)

from helpers import rand_invertible, rand_matrix


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
            assert big.submatrix(anchor, anchor + s, anchor, anchor + s) == Matrix(QQ, [[7] * s for _ in range(s)])
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
