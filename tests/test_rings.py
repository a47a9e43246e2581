from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckesym.rings import (
    GF,
    QQ,
    ZZ,
    QuotientExtension,
    UnsupportedRingError,
    is_prime,
    xgcd,
)

import oracles


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g >= 0
    assert x * a + y * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


@pytest.mark.parametrize("n", [2, 3, 5, 97, 561, 1105, 2047, 7919, 2**31 - 1, 10**9 + 7])
def test_is_prime_known_values(n):
    import sympy

    assert is_prime(n) == sympy.isprime(n)


def test_prime_field_ops():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.of_int(-1) == 6
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf_requires_prime():
    with pytest.raises(UnsupportedRingError):
        GF(6)


def test_rationals_and_integers():
    assert QQ.of_int(3) == Fraction(3)
    assert QQ.div(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    assert ZZ.mul(6, 7) == 42
    assert not ZZ.is_field and QQ.is_field


def test_quotient_extension_golden_ratio():
    # x^2 - x - 1, the minimal polynomial of 2*cos(pi/5)
    R = QuotientExtension(QQ, (-1, -1, 1))
    lam = R.generator()
    # lam^2 = lam + 1
    assert R.mul(lam, lam) == R.add(lam, R.one)
    # lam * (lam - 1) = 1 for the golden ratio
    assert R.mul(lam, R.sub(lam, R.one)) == R.one


def test_quotient_extension_over_z_zero_divisor():
    R = QuotientExtension(ZZ, (-2, 0, 1))  # Z[x]/(x^2-2)
    lam = R.generator()
    assert R.mul(lam, lam) == R.of_int(2)


@pytest.mark.parametrize(
    "base,minpoly",
    [
        (GF(2), [1, 1, 1]),  # F_4: no extension of F_p
        (QQ, [Fraction(-1, 2), 0, 1]),  # sqrt(1/2): no non-integral minimal polynomial
        (ZZ, [1, 2]),  # not monic
    ],
    ids=["F4", "sqrt-half", "not-monic"],
)
def test_quotient_extension_refuses_other_bases_and_polynomials(base, minpoly):
    with pytest.raises(UnsupportedRingError):
        QuotientExtension(base, minpoly)


def test_quotient_extension_has_no_division():
    R = QuotientExtension(QQ, (-1, -1, 1))
    with pytest.raises(UnsupportedRingError):
        R.inv(R.generator())
    with pytest.raises(UnsupportedRingError):
        R.div(R.one, R.generator())


@settings(max_examples=60)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_extension_ring_axioms_sample(a0, a1, b0, b1):
    R = QuotientExtension(QQ, (-1, -1, 1))
    x = R.from_coeffs([Fraction(a0), Fraction(a1)])
    y = R.from_coeffs([Fraction(b0), Fraction(b1)])
    assert R.mul(x, y) == R.mul(y, x)
    assert R.add(x, y) == R.add(y, x)
    assert R.mul(x, R.add(y, R.one)) == R.add(R.mul(x, y), x)


@pytest.mark.parametrize("n,expected", [(3, (-1, 1)), (4, (-2, 0, 1)), (5, (-1, -1, 1)), (6, (-3, 0, 1))])
def test_minpoly_small_cases_match_oracle(n, expected):
    assert oracles.minpoly_2cos_pi_over(n) == expected
