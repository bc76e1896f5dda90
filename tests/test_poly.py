"""Polynomial arithmetic: division with remainder, products, normal forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from matcanon import GF, QQ, DivisionByZero, EmptyInput, FieldMismatch, Polynomial, product

from helpers import rand_monic


def P(field, *coeffs):
    return Polynomial(field, coeffs)


class TestDivmod:
    def test_exact_factorization(self):
        q, r = divmod(P(QQ, -1, 0, 1), P(QQ, -1, 1))  # (X^2-1) / (X-1)
        assert q == P(QQ, 1, 1) and r.is_zero()

    def test_gf2_with_remainder(self):
        f, g = P(GF(2), 1, 1, 1), P(GF(2), 1, 1)
        q, r = divmod(f, g)
        assert q == P(GF(2), 0, 1) and r == P(GF(2), 1)
        assert q * g + r == f

    def test_self_division(self):
        f = P(QQ, 3, -2, 1)
        q, r = divmod(f, f)
        assert q == P(QQ, 1) and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(P(QQ, 1, 1), Polynomial(QQ))

    def test_low_degree_numerator(self):
        q, r = divmod(P(QQ, 5), P(QQ, 0, 1))
        assert q.is_zero() and r == P(QQ, 5)

    def test_floordiv_is_the_quotient(self):
        f, g = P(GF(2), 1, 1, 1), P(GF(2), 1, 1)
        assert f // g == P(GF(2), 0, 1)
        assert P(QQ, -1, 0, 1) // P(QQ, -1, 1) == P(QQ, 1, 1)


class TestProduct:
    def test_difference_of_squares(self):
        assert product([P(QQ, -1, 1), P(QQ, 1, 1)]) == P(QQ, -1, 0, 1)

    def test_power_of_x(self):
        x = Polynomial.x(QQ)
        assert product([x] * 4) == Polynomial.x_power(QQ, 4)

    def test_gf2_expansion(self):
        # Oracle by hand: (X^2+1)*X = X^3+X; (X^3+X)(X^2+X+1) = X^5+X^4+X^2+X.
        got = product([P(GF(2), 1, 0, 1), P(GF(2), 0, 1), P(GF(2), 1, 1, 1)])
        assert got == P(GF(2), 0, 1, 1, 0, 1, 1)
        assert got.degree == 5
        for point in (0, 1):  # evaluation cross-check at every GF(2) point
            expected = (point * point + 1) * point * (point * point + point + 1) % 2
            assert got(point) == GF(2)(expected)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            product([])

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            product([P(QQ, 1, 1), P(GF(5), 1, 1)])

    def test_power(self):
        # Oracle by hand: (X + 1)^3 = X^3 + 3X^2 + 3X + 1, and X^3 + 1 over GF(3).
        assert P(QQ, 1, 1) ** 3 == P(QQ, 1, 3, 3, 1)
        assert P(GF(3), 1, 1) ** 3 == P(GF(3), 1, 0, 0, 1)
        assert P(QQ, 2, 5) ** 0 == P(QQ, 1)
        assert Polynomial(QQ) ** 2 == Polynomial(QQ)

    def test_negative_power_refused(self):
        with pytest.raises(ValueError):
            P(QQ, 1, 1) ** -1

    def test_monic_times_monic_is_monic(self):
        rng = random.Random(11)
        for _ in range(20):
            f = rand_monic(GF(5), rng.randint(1, 4), rng)
            g = rand_monic(GF(5), rng.randint(1, 4), rng)
            h = f * g
            assert h.is_monic()
            assert h.degree == f.degree + g.degree


@st.composite
def polys(draw, allow_zero=True):
    field = draw(st.sampled_from([QQ, GF(2), GF(5), GF(7)]))
    degree = draw(st.integers(0, 5))
    if field.characteristic:
        coeffs = draw(st.lists(st.integers(0, field.characteristic - 1),
                               min_size=degree + 1, max_size=degree + 1))
    else:
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=degree + 1, max_size=degree + 1))
    p = Polynomial(field, coeffs)
    if not allow_zero and p.is_zero():
        return Polynomial(field, coeffs[:-1] + [1])
    return p


class TestDivmodProperty:
    @settings(max_examples=120, deadline=None)
    @given(polys(), polys(allow_zero=False))
    def test_quotient_remainder_law(self, f, g):
        if f.field != g.field:
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    @settings(max_examples=80, deadline=None)
    @given(polys(allow_zero=False), polys(allow_zero=False))
    def test_degree_additivity(self, f, g):
        if f.field != g.field:
            return
        assert (f * g).degree == f.degree + g.degree


class TestEvaluation:
    def test_horner_matches_direct(self):
        f = P(QQ, 2, -3, 0, 1)  # X^3 - 3X + 2
        assert f(QQ(2)) == QQ(2 ** 3 - 3 * 2 + 2)
        assert f(0) == QQ(2)

    def test_monic_flags(self):
        assert P(QQ, -1, 1).is_monic()
        assert not P(QQ, 1, 2).is_monic()
        assert not Polynomial(QQ).is_monic()
        assert Polynomial(QQ).degree == -1
