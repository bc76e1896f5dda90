"""Polynomial arithmetic: division with remainder, products, normal forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matcanon import GF, QQ, DivisionByZero, EmptyInput, FieldMismatch, Polynomial, product

from helpers import rand_monic


# A prime above 2**32: products of two residues exceed 64 bits.
MERSENNE_61 = 2 ** 61 - 1


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
    field = draw(st.sampled_from([QQ, GF(2), GF(5), GF(7), GF(10007), GF(MERSENNE_61)]))
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


def _value(field, x):
    """x as a raw value: a residue in [0, p), or a Fraction over Q."""
    p = field.characteristic
    return x % p if p else Fraction(x)


def _reduced(field, coeffs):
    """Schoolbook reference: each coefficient reduced on its own, trailing
    zeros stripped."""
    out = [_value(field, c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _inverse(field, a):
    p = field.characteristic
    return pow(a, -1, p) if p else 1 / Fraction(a)


def _ref_mul(field, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _reduced(field, out)


def _ref_divmod(field, f, g):
    """Long division that reduces after every step, unlike the kernel."""
    r, dg = list(f), len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for k in reversed(range(len(q))):
        q[k] = c = _value(field, r[k + dg] * _inverse(field, g[-1]))
        for j, b in enumerate(g):
            r[k + j] = _value(field, r[k + j] - c * b)
    return _reduced(field, q), _reduced(field, r)


def _rand_raw(field, degree, rng):
    """A canonical raw polynomial of the given degree (-1 for zero), about
    a third of its lower coefficients zero."""
    p = field.characteristic

    def nonzero():
        return rng.randrange(1, p) if p else Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                                                      rng.randint(1, 9))

    lower = [nonzero() if rng.random() < 2 / 3 else field.zero for _ in range(degree)]
    return lower + [nonzero()] if degree >= 0 else []


def _assert_canonical(field, f):
    p = field.characteristic
    assert isinstance(f, list)
    assert not f or f[-1], "a trailing zero (zero is [])"
    if p:
        assert all(type(c) is int and 0 <= c < p for c in f)
    else:
        assert all(type(c) is Fraction for c in f)


KERNEL_FIELDS = [QQ, GF(2), GF(7), GF(10007), GF(MERSENNE_61)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
class TestPolyOpsKernel:
    """Every PolyOps member against a schoolbook reference on ints and
    Fractions, over Q and over small, word-size and above-2**32 primes."""

    def test_members_match_reference(self, field):
        ops, rng = field.poly_ops(), random.Random(27)
        for _ in range(60):
            f = _rand_raw(field, rng.randint(-1, 7), rng)
            g = _rand_raw(field, rng.randint(-1, 7), rng)
            s = _rand_raw(field, 0, rng)[0]
            before = (list(f), list(g))
            padded = list(zip(f + [0] * len(g), g + [0] * len(f)))
            expected = {
                "add": _reduced(field, [a + b for a, b in padded]),
                "sub": _reduced(field, [a - b for a, b in padded]),
                "neg": _reduced(field, [-c for c in f]),
                "mul": _ref_mul(field, f, g),
                "scale": _reduced(field, [c * s for c in f]),
            }
            got = {"add": ops.add(f, g), "sub": ops.sub(f, g), "neg": ops.neg(f),
                   "mul": ops.mul(f, g), "scale": ops.scale(f, s)}
            if g:
                expected["divmod"] = _ref_divmod(field, f, g)
                expected["monic"] = _reduced(field, [c * _inverse(field, g[-1]) for c in g])
                got["divmod"], got["monic"] = ops.divmod(f, g), ops.monic(g)
            assert got == expected
            for value in got.values():
                for poly in value if isinstance(value, tuple) else (value,):
                    _assert_canonical(field, poly)
            assert (f, g) == before, "the kernel changed its arguments"

    def test_cancellation_is_the_zero_list(self, field):
        ops = field.poly_ops()
        f = _rand_raw(field, 5, random.Random(5))
        assert ops.sub(f, f) == [] and ops.add(f, ops.neg(f)) == []

    def test_scale_by_zero_and_by_p(self, field):
        ops, p = field.poly_ops(), field.characteristic
        f = _rand_raw(field, 4, random.Random(3))
        assert ops.scale(f, field.zero) == []
        if p:
            assert ops.scale(f, p) == []
            assert ops.scale(f, p + 1) == f

    def test_divmod_low_degree(self, field):
        ops, rng = field.poly_ops(), random.Random(9)
        f, g = _rand_raw(field, 2, rng), _rand_raw(field, 4, rng)
        q, r = ops.divmod(f, g)
        assert q == [] and r == f and r is not f
        _assert_canonical(field, r)

    def test_zero_divisor_refused(self, field):
        ops = field.poly_ops()
        with pytest.raises(DivisionByZero):
            ops.divmod(_rand_raw(field, 3, random.Random(1)), [])
        with pytest.raises(DivisionByZero):
            ops.monic([])


# Every nonzero element of GF(2) is 1, so it has no non-monic divisor.
@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), GF(MERSENNE_61)], ids=repr)
def test_divmod_by_non_monic(field):
    ops, rng, p = field.poly_ops(), random.Random(13), field.characteristic
    g = _rand_raw(field, 3, rng)[:-1] + [p - 1 if p else Fraction(-7, 3)]
    for degree in range(3, 9):
        f = _rand_raw(field, degree, rng)
        q, r = ops.divmod(f, g)
        assert (q, r) == _ref_divmod(field, f, g)
        assert ops.add(ops.mul(q, g), r) == f and len(r) < len(g)
