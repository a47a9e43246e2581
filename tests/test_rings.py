import pathlib
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import heckesym
from heckesym.rings import (
    GF,
    QQ,
    ZZ,
    PrimeField,
    QuotientExtension,
    UnsupportedRingError,
    is_prime,
    multiplication_rows,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
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


# -- polynomials -------------------------------------------------------------

POLY_RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F3": GF(3), "F7": GF(7)}


def _trim(ring, a):
    a = list(a)
    while a and ring.is_zero(a[-1]):
        a.pop()
    return a


def _sympy(ring, a):
    """a as a sympy Poly over Q, or over F_p in the symmetric residues."""
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(a)] or [0]
    if isinstance(ring, PrimeField):
        return sympy.Poly([int(c) for c in coeffs], x, modulus=ring.p)
    return sympy.Poly(coeffs, x, domain="QQ")


def _ours(ring, poly):
    """A sympy Poly back as a trimmed coefficient list over the ring."""
    out = []
    for c in reversed(poly.all_coeffs()):
        c = sympy.Rational(c)
        out.append(ring.of_int(int(c)) if c.q == 1 else Fraction(int(c.p), int(c.q)))
    return _trim(ring, out)


@st.composite
def ring_polynomials(draw):
    """(ring, a, b, c, e): a and c of up to 7 coefficients, b of 1 to 4
    whose last is a unit (1 or -1 over Z), and an exponent e."""
    name = draw(st.sampled_from(sorted(POLY_RINGS)))
    ring = POLY_RINGS[name]

    def poly(lo, hi):
        return [ring.of_int(x) for x in draw(st.lists(st.integers(-5, 5), min_size=lo, max_size=hi))]

    a, b, c = poly(0, 7), poly(0, 3), poly(0, 7)
    units = [1, -1] if ring is ZZ else [x for x in range(-5, 6) if not ring.is_zero(ring.of_int(x))]
    b.append(ring.of_int(draw(st.sampled_from(units))))
    return ring, a, b, c, draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(ring_polynomials())
def test_polynomial_arithmetic_matches_sympy(case):
    ring, a, b, c, e = case
    q, r = poly_divmod(ring, a, b)
    qb = poly_mul(ring, q, b)
    total = [ring.add(x, y) for x, y in zip(qb + [ring.zero] * len(a), r + [ring.zero] * len(qb))]
    assert _trim(ring, total) == _trim(ring, a)
    assert len(r) < len(b) and r == _trim(ring, r)
    want_q, want_r = _sympy(ring, a).div(_sympy(ring, b))
    assert (_trim(ring, q), r) == (_ours(ring, want_q), _ours(ring, want_r))
    # a^e mod b, one product at a time
    power = poly_divmod(ring, [ring.one], b)[1]
    for _ in range(e):
        power = poly_divmod(ring, poly_mul(ring, power, a), b)[1]
    assert poly_powmod(ring, a, e, b) == power
    if ring.is_field:
        g, want = poly_gcd(ring, a, c), _sympy(ring, a).gcd(_sympy(ring, c))
        assert g == ([] if want.is_zero else _ours(ring, want.monic()))
        assert not g or g[-1] == ring.one


@settings(max_examples=100, deadline=None)
@given(ring_polynomials())
def test_multiplication_rows_are_the_shifted_products(case):
    ring, a, b, _c, _e = case
    g = b + [ring.one]  # monic of degree >= 1
    m = len(g) - 1
    a = poly_divmod(ring, a, g)[1]
    a += [ring.zero] * (m - len(a))
    rows = multiplication_rows(ring, a, g)
    assert len(rows) == m
    for i, row in enumerate(rows):
        want = poly_divmod(ring, poly_mul(ring, [ring.zero] * i + [ring.one], a), g)[1]
        assert _trim(ring, row) == want and len(row) == m


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.data())
def test_native_extension_product_is_the_polynomial_remainder(base, low, data):
    m = low + [1]
    R = QuotientExtension(base, m)
    elements = st.lists(st.integers(-6, 6), min_size=len(low), max_size=len(low))
    a, b = (R.from_coeffs(data.draw(elements)) for _ in range(2))
    want = poly_divmod(base, poly_mul(base, a, b), [base.of_int(x) for x in m])[1]
    assert list(R.mul(a, b)) == want + [base.zero] * (R.degree - len(want))


def test_polynomial_arithmetic_lives_in_rings():
    # rings is the one module that defines polynomial arithmetic
    helper = re.compile(r"^\s*def (_poly_\w*|_multiplication|_mul_rows)\b", re.M)
    for path in pathlib.Path(heckesym.__file__).parent.glob("*.py"):
        if path.name != "rings.py":
            assert not helper.search(path.read_text()), path.name
