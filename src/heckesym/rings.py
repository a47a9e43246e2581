"""Exact coefficient rings: Z, Q, prime fields, integral monic extensions of Z and Q.

Ring elements are plain Python values (int, Fraction, tuple of base
elements); a ring object supplies the arithmetic. Everything is exact and
immutable; nothing in this module touches floating point.

Polynomials are coefficient lists, low to high, and their arithmetic over
any of these rings is the poly_* functions and multiplication_rows here.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class UnsupportedRingError(ValueError):
    """An operation was asked of a ring that lacks the needed structure."""


class ShapeError(ValueError):
    """Matrix/vector shapes or element domains do not line up."""


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ExactRing:
    """Base class; subclasses fix the element representation and supply
    zero, one, add, sub, mul, neg, of_int and is_zero."""

    kind = "abstract"
    is_field = False

    def inv(self, a):
        raise UnsupportedRingError("%s has no division" % self.kind)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return "<ring %s>" % self.kind


class IntegerRing(ExactRing):
    kind = "integers"
    zero = 0
    one = 1
    # the builtins themselves: 2x2 integer matrices run through these
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    # integer numerators are the integers themselves, over denominator one
    from_numerators = staticmethod(lambda nums, d=1: nums)

    def of_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def is_negative(self, a):
        return a < 0

    def inv(self, a):
        """The inverse of a unit, 1 or -1."""
        if a in (1, -1):
            return a
        raise UnsupportedRingError("%r is not a unit of the integers" % (a,))


class RationalField(ExactRing):
    kind = "rationals"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def of_int(self, n):
        return Fraction(n)

    def from_numerators(self, nums, d=1):
        """The Fractions n / d for integers n, all zeros one shared zero."""
        zero = self.zero
        if d == 1:
            return [Fraction(n) if n else zero for n in nums]
        return [Fraction(n, d) if n else zero for n in nums]

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def is_negative(self, a):
        return a < 0


class PrimeField(ExactRing):
    """F_p with elements the canonical representatives 0..p-1."""

    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise UnsupportedRingError("modulus %r is not prime" % (p,))
        self.p = p
        self.kind = "fp:%d" % p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def of_int(self, n):
        return n % self.p

    def from_numerators(self, nums, d=1):
        """The residues of n / d for integers n, d prime to p."""
        p, s = self.p, pow(d, -1, self.p)
        return [n * s % p for n in nums]

    def is_zero(self, a):
        return a % self.p == 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


class QuotientExtension(ExactRing):
    """base[x] / (m(x)) for a monic m with integer coefficients, such as the
    minimal polynomial of 2cos(pi/n); elements are coefficient tuples.

    The base ring is Z or Q, and there is no division: over Q[x]/(m) linalg
    eliminates fraction-free (adjugate pivots). The methods here are the
    element arithmetic. linalg runs the matrix products on integer
    coefficients instead (integer_minpoly), and over Q its eliminations and
    presentations too (integers), and the integers leave through the base
    ring's from_numerators."""

    def __init__(self, base, minpoly):
        if not isinstance(base, (IntegerRing, RationalField)):
            raise UnsupportedRingError("extension base must be Z or Q")
        self.base = base
        minpoly = [base.of_int(c) if isinstance(c, int) else c for c in minpoly]
        if len(minpoly) < 2:
            raise ShapeError("minimal polynomial must have degree >= 1")
        if minpoly[-1] != base.one:
            raise UnsupportedRingError("minimal polynomial must be monic")
        if any(c.denominator != 1 for c in minpoly):
            raise UnsupportedRingError("minimal polynomial must have integer coefficients")
        self.degree = len(minpoly) - 1
        # m on ints (low -> high), and Z[x]/(m): the elements with integer
        # coefficients, which linalg and the weight actions compute on
        self.integer_minpoly = tuple(c.numerator for c in minpoly)
        self.integers = (self if isinstance(base, IntegerRing)
                         else QuotientExtension(ZZ, self.integer_minpoly))
        self.kind = "extension(%s, deg %d)" % (base.kind, self.degree)
        self.is_field = base.is_field
        self.zero = (base.zero,) * self.degree
        self.one = tuple([base.one] + [base.zero] * (self.degree - 1))

    def from_coeffs(self, coeffs):
        coeffs = [self.base.of_int(c) if isinstance(c, int) else c for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = poly_divmod(self.base, coeffs, self.integer_minpoly)[1]
        return tuple(coeffs + [self.base.zero] * (self.degree - len(coeffs)))

    def generator(self):
        return self.from_coeffs([0, 1])

    def add(self, a, b):
        return tuple([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return tuple([x - y for x, y in zip(a, b)])

    def neg(self, a):
        return tuple([-x for x in a])

    def mul(self, a, b):
        # reduced inline, faster than poly_divmod; base.zero keeps Fractions over Q
        m, k = self.integer_minpoly, self.degree
        prod = [self.base.zero] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                for j in range(k):
                    prod[top - k + j] -= c * m[j]
        return tuple(prod[:k])

    def of_int(self, n):
        return tuple([self.base.of_int(n)] + [self.base.zero] * (self.degree - 1))

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        # a method of its own, since perfbench/tracing.py counts its calls
        raise UnsupportedRingError("no division in %s" % self.kind)

    def is_negative(self, a):
        for c in a:
            if c:
                return c < 0
        return False

    def __eq__(self, other):
        return (
            isinstance(other, QuotientExtension)
            and type(other.base) is type(self.base)
            and other.base.kind == self.base.kind
            and other.integer_minpoly == self.integer_minpoly
        )

    def __hash__(self):
        return hash(("ext", self.base.kind, self.integer_minpoly))


ZZ = IntegerRing()
QQ = RationalField()


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# polynomials: coefficient lists, low -> high, over a ring
# ---------------------------------------------------------------------------


def _trim(ring, a):
    while a and ring.is_zero(a[-1]):
        a.pop()
    return a


def poly_mul(ring, f, g):
    """The product of f and g."""
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not ring.is_zero(a):
            for j, b in enumerate(g):
                out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return out


def poly_divmod(ring, a, b):
    """(q, r) with a = q b + r and r shorter than b, its trailing zeros
    dropped, for b whose last coefficient is a unit of the ring."""
    a, inv, n = list(a), ring.inv(b[-1]), len(b) - 1
    q = [ring.zero] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = ring.mul(a[i + n], inv)
        if not ring.is_zero(c):
            for j, x in enumerate(b):
                a[i + j] = ring.sub(a[i + j], ring.mul(c, x))
    return q, _trim(ring, a[:n])


def poly_gcd(ring, a, b):
    """The monic gcd of a and b over a field ([] when both are zero)."""
    a, b = _trim(ring, list(a)), _trim(ring, list(b))
    while b:
        a, b = b, poly_divmod(ring, a, b)[1]
    return [ring.mul(c, ring.inv(a[-1])) for c in a] if a else a


def poly_powmod(ring, a, e, f):
    """a^e mod f by square-and-multiply, for f as in poly_divmod."""
    out, a = poly_divmod(ring, [ring.one], f)[1], poly_divmod(ring, a, f)[1]
    while e:
        if e & 1:
            out = poly_divmod(ring, poly_mul(ring, out, a), f)[1]
        e >>= 1
        if e:
            a = poly_divmod(ring, poly_mul(ring, a, a), f)[1]
    return out


def multiplication_rows(ring, a, g):
    """The matrix rows of multiplication by a on ring[x]/(g), g monic of
    degree m and a of m coefficients: row i is x^i a mod g, the row above
    it times x, reduced."""
    rows = [list(a)]
    for _ in range(len(g) - 2):
        top, row = rows[-1][-1], [ring.zero] + rows[-1][:-1]
        if not ring.is_zero(top):
            row = [ring.sub(x, ring.mul(top, c)) for x, c in zip(row, g)]
        rows.append(row)
    return rows
