"""Field arithmetic, canonical forms, and square roots."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from matcanon import GF, QQ, DivisionByZero, FieldMismatch, MatcanonError, NotPrime, ParseError, sqrt_if_exists
from matcanon.fields import _is_prime


def brute_force_roots(p, x):
    """Oracle: all square roots of x modulo p by exhaustive search."""
    return sorted(r for r in range(p) if r * r % p == x % p)


class TestScalarArithmetic:
    def test_rational_add(self):
        assert QQ("1/2") + QQ("1/3") == QQ("5/6")

    def test_prime_field_inverse(self):
        assert GF(7)(3).inverse() == GF(7)(5)
        assert GF(7)(3) * GF(7)(5) == GF(7)(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            QQ(1) / QQ(0)
        with pytest.raises(DivisionByZero):
            GF(5)(0).inverse()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            QQ(1) + GF(5)(1)

    def test_sub_neg_div(self):
        assert QQ("2/3") - QQ("1/6") == QQ("1/2")
        assert -GF(7)(3) == GF(7)(4)
        assert GF(7)(6) / GF(7)(2) == GF(7)(3)

    def test_mixed_int_arithmetic(self):
        assert GF(5)(3) + 4 == GF(5)(2)
        assert 2 * QQ("1/2") == QQ(1)

    def test_reflected_sub_and_div(self):
        assert 3 - QQ("1/2") == QQ("5/2")
        assert 3 - GF(5)(4) == GF(5)(4)
        assert 1 / QQ("-2/3") == QQ("-3/2")
        assert 1 / GF(7)(3) == GF(7)(5)
        with pytest.raises(DivisionByZero):
            1 / GF(7)(0)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
    def test_division_is_product_with_inverse(self, field):
        for a in range(-3, 4):
            for b in (-2, -1, 1, 3):
                assert field(a) / field(b) == field(a) * field(b).inverse()
        for divide in (lambda: field(2) / 0, lambda: 2 / field(0)):
            with pytest.raises(DivisionByZero, match="^inverse of zero$"):
                divide()


class TestCanonicalForm:
    def test_rationals_lowest_terms(self):
        s = QQ(Fraction(4, 6))
        assert s.value.numerator == 2 and s.value.denominator == 3

    def test_rationals_positive_denominator(self):
        s = QQ("3/-6")
        assert s.value == Fraction(-1, 2) and s.value.denominator == 2

    def test_residues_canonical(self):
        assert GF(7)(-1).value == 6
        assert GF(7)(23).value == 2

    def test_float_rejected(self):
        from matcanon import ParseError
        with pytest.raises(ParseError):
            QQ(0.5)

    def test_primality_checked(self):
        with pytest.raises(NotPrime):
            GF(6)
        with pytest.raises(NotPrime):
            GF(1)
        assert issubclass(NotPrime, MatcanonError) and issubclass(NotPrime, ValueError)
        assert GF(2).characteristic == 2
        assert GF(7919).characteristic == 7919

    def test_strong_pseudoprimes_rejected(self):
        psi12 = 318665857834031151167461  # 399165290221 * 798330580441
        psi13 = 3317044064679887385961981
        assert not _is_prime(psi12)
        for n in (psi12, psi13):
            with pytest.raises(NotPrime):
                GF(n)

    def test_large_prime_accepted(self):
        assert GF(2**61 - 1).characteristic == 2**61 - 1

    def test_characteristic_query(self):
        assert QQ.characteristic == 0
        assert GF(13).characteristic == 13

    @pytest.mark.parametrize("words", [
        [],
        ["0", "-0", "+0", "7", "-12", "+40"],
        ["9" * 80, "-" + "9" * 80, "+" + "1" + "0" * 40],
        ["1", "-2/3", "4", "5/-10", "-0/7"],
        ["1/2"],
    ])
    def test_rational_words_as_canon(self, words):
        got = QQ.canon_words(words)
        assert got == [QQ.canon(w) for w in words]
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "1_000", "0x10", "+", "\u0663", "", "9" * 5000])
    def test_bad_rational_words_as_canon(self, bad):
        """The first bad word is reported, as canon reports it."""
        with pytest.raises(ParseError) as expected:
            QQ.canon(bad)
        for words in ([bad], ["1", bad, "2"], ["3", "1/2", bad], [bad, "1.5"]):
            with pytest.raises(ParseError) as got:
                QQ.canon_words(words)
            assert str(got.value) == str(expected.value)


class TestSquareRoots:
    def test_perfect_square_rational(self):
        roots = sqrt_if_exists(QQ(4))
        assert roots == (QQ(2), QQ(-2))

    def test_rational_fraction_root(self):
        roots = sqrt_if_exists(QQ("9/16"))
        assert roots == (QQ("3/4"), QQ("-3/4"))

    def test_rational_no_root(self):
        assert sqrt_if_exists(QQ(2)) is None
        assert sqrt_if_exists(QQ(-1)) is None

    def test_gf7_residue(self):
        # Oracle first: 3^2 = 2 and 4^2 = 2 mod 7.
        assert brute_force_roots(7, 2) == [3, 4]
        assert sqrt_if_exists(GF(7)(2)) == (GF(7)(3), GF(7)(4))

    def test_gf7_non_residue(self):
        assert brute_force_roots(7, 3) == []
        assert sqrt_if_exists(GF(7)(3)) is None

    def test_zero_single_root(self):
        assert sqrt_if_exists(QQ(0)) == (QQ(0),)
        assert sqrt_if_exists(GF(5)(0)) == (GF(5)(0),)

    def test_char_two_roots_coincide(self):
        assert sqrt_if_exists(GF(2)(1)) == (GF(2)(1),)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 101])
    def test_matches_brute_force(self, p):
        field = GF(p)
        for x in range(p):
            expected = brute_force_roots(p, x)
            got = sqrt_if_exists(field(x))
            if not expected:
                assert got is None
            else:
                assert sorted(r.value for r in got) == sorted(set(expected))
                assert got[0].value == min(expected)


@st.composite
def rational_scalars(draw):
    num = draw(st.integers(-50, 50))
    den = draw(st.integers(1, 30))
    return QQ(Fraction(num, den))


@st.composite
def prime_scalars(draw):
    field = GF(draw(st.sampled_from([2, 3, 5, 7, 13])))
    return field(draw(st.integers(0, field.characteristic - 1)))


class TestScalarProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(rational_scalars(), prime_scalars()))
    def test_square_then_root(self, x):
        roots = sqrt_if_exists(x * x)
        assert roots is not None
        assert x in roots or -x in roots

    @settings(max_examples=60, deadline=None)
    @given(rational_scalars(), rational_scalars())
    def test_rationals_stay_reduced(self, a, b):
        from math import gcd
        for value in (a + b, a - b, a * b):
            frac = value.value
            assert frac.denominator > 0
            assert gcd(frac.numerator, frac.denominator) == 1

    @settings(max_examples=60, deadline=None)
    @given(prime_scalars(), prime_scalars())
    def test_residues_stay_canonical(self, a, b):
        if a.field != b.field:
            return
        p = a.field.characteristic
        for value in (a + b, a - b, a * b, -a):
            assert 0 <= value.value < p

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(rational_scalars(), prime_scalars()))
    def test_inverse_roundtrip(self, x):
        if x.is_zero():
            return
        assert x * x.inverse() == x.field(1)


MERSENNE_61 = 2 ** 61 - 1


class TestRowPrimitives:
    """Field.dot, Field.submul and Field.product against the
    one-operation-at-a-time loop."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(10007), GF(MERSENNE_61)], ids=str)
    def test_empty_inputs(self, field):
        zero = field.dot([], [])
        assert zero == field.zero and type(zero) is type(field.zero)
        assert field.submul([], field.one, []) == []

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 10007, MERSENNE_61]), st.data())
    def test_prime_field_matches_loop(self, p, data):
        field = GF(p)
        residues = st.integers(0, p - 1)
        n = data.draw(st.integers(0, 12))
        xs = data.draw(st.lists(residues, min_size=n, max_size=n))
        ys = data.draw(st.lists(residues, min_size=n, max_size=n))
        f = data.draw(residues)
        acc = field.zero
        for x, y in zip(xs, ys):
            acc = field.add(acc, field.mul(x, y))
        dot = field.dot(xs, ys)
        assert dot == acc and 0 <= dot < p
        out = field.submul(xs, f, ys)
        assert out == [field.sub(x, field.mul(f, y)) for x, y in zip(xs, ys)]
        assert all(0 <= v < p for v in out)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rationals_match_loop(self, data):
        fractions = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 50))
        n = data.draw(st.integers(0, 10))
        xs = data.draw(st.lists(fractions, min_size=n, max_size=n))
        ys = data.draw(st.lists(fractions, min_size=n, max_size=n))
        f = data.draw(fractions)
        acc = QQ.zero
        for x, y in zip(xs, ys):
            acc = QQ.add(acc, QQ.mul(x, y))
        dot = QQ.dot(xs, ys)
        assert dot == acc and isinstance(dot, Fraction)
        assert QQ.submul(xs, f, ys) == [x - f * y for x, y in zip(xs, ys)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rational_product_matches_triple_loop(self, data):
        """QQ.product of rows and columns against the Fraction triple loop,
        on shapes from 1 x n and n x 1 up, with zero rows and columns,
        integer-only entries, negative entries and small, mixed and large
        denominators."""
        denominators = data.draw(st.sampled_from([
            st.just(1), st.integers(1, 12), st.integers(1, 2 ** 80),
            st.sampled_from([1, 3, 2 ** 64 + 13, 10 ** 30 + 57])]))
        entries = st.one_of(st.just(Fraction(0)), st.builds(
            Fraction, st.integers(-10 ** 20, 10 ** 20), denominators))
        nrows, inner, ncols = (data.draw(st.integers(1, 6)) for _ in range(3))

        def vectors(count):
            return [data.draw(st.one_of(st.just([Fraction(0)] * inner),
                                        st.lists(entries, min_size=inner, max_size=inner)))
                    for _ in range(count)]

        rows, cols = vectors(nrows), vectors(ncols)
        expected = []
        for row in rows:
            out = []
            for col in cols:
                acc = Fraction(0)
                for x, y in zip(row, col):
                    acc += x * y
                out.append(acc)
            expected.append(out)
        got = QQ.product(rows, cols)
        assert got == expected
        assert all(type(x) is Fraction for out in got for x in out)
        assert QQ.dot(rows[0], cols[0]) == expected[0][0]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 10007, MERSENNE_61]), st.data())
    def test_prime_field_product_matches_dot(self, p, data):
        field = GF(p)
        inner = data.draw(st.integers(1, 6))
        vector = st.lists(st.integers(0, p - 1), min_size=inner, max_size=inner)
        rows = data.draw(st.lists(vector, min_size=1, max_size=5))
        cols = data.draw(st.lists(vector, min_size=1, max_size=5))
        assert field.product(rows, cols) == [[field.dot(r, c) for c in cols] for r in rows]

    def test_near_word_size_modulus(self):
        p = MERSENNE_61
        field = GF(p)
        xs, ys = [p - 1] * 4, [p - 2] * 4
        assert field.dot(xs, ys) == 4 * 2 % p
        assert field.submul(xs, p - 1, ys) == [(p - 1 - (p - 1) * (p - 2)) % p] * 4
