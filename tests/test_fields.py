"""Field arithmetic, canonical forms, and square roots."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from matcanon import GF, QQ, DivisionByZero, FieldMismatch, sqrt_if_exists
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
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)
        assert GF(2).characteristic == 2
        assert GF(7919).characteristic == 7919

    def test_strong_pseudoprimes_rejected(self):
        psi12 = 318665857834031151167461  # 399165290221 * 798330580441
        psi13 = 3317044064679887385961981
        assert not _is_prime(psi12)
        for n in (psi12, psi13):
            with pytest.raises(ValueError):
                GF(n)

    def test_large_prime_accepted(self):
        assert GF(2**61 - 1).characteristic == 2**61 - 1

    def test_characteristic_query(self):
        assert QQ.characteristic == 0
        assert GF(13).characteristic == 13


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
