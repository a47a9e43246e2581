"""Exact coefficient rings: Z, Q, prime fields, monic quotient extensions.

Ring elements are plain Python values (int, Fraction, tuple of base
elements); a ring object supplies the arithmetic. Everything is exact and
immutable; nothing in this module touches floating point.
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
    """Base class; subclasses fix the element representation."""

    kind = "abstract"
    is_field = False
    char = 0

    # -- arithmetic on plain element values ------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def of_int(self, n):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero

    def inv(self, a):
        raise UnsupportedRingError("%s has no division" % self.kind)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_negative(self, a):
        """Used only to pick a canonical sign for projective classes."""
        return False

    def element_str(self, a):
        return str(a)

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

    def of_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def is_negative(self, a):
        return a < 0


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

    def element_str(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else "%d/%d" % (a.numerator, a.denominator)


class PrimeField(ExactRing):
    """F_p with elements the canonical representatives 0..p-1."""

    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise UnsupportedRingError("modulus %r is not prime" % (p,))
        self.p = p
        self.kind = "fp:%d" % p
        self.char = p
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

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


class QuotientExtension(ExactRing):
    """base[x] / (m(x)) for a monic m; elements are coefficient tuples.

    The base ring is Z, Q, or a prime field. Division is available when the
    base is a field and the denominator is coprime to m (always, when m is
    irreducible)."""

    def __init__(self, base, minpoly, var="x"):
        if not isinstance(base, (IntegerRing, RationalField, PrimeField)):
            raise UnsupportedRingError("extension base must be Z, Q, or a prime field")
        self.base = base
        minpoly = [base.of_int(c) if isinstance(c, int) else c for c in minpoly]
        if len(minpoly) < 2:
            raise ShapeError("minimal polynomial must have degree >= 1")
        if minpoly[-1] != base.one:
            raise UnsupportedRingError("minimal polynomial must be monic")
        self.minpoly = tuple(minpoly)
        self.degree = len(minpoly) - 1
        self.var = var
        self.kind = "extension(%s, deg %d)" % (base.kind, self.degree)
        self.is_field = base.is_field
        self.char = base.char
        self.zero = (base.zero,) * self.degree
        self.one = tuple([base.one] + [base.zero] * (self.degree - 1))

    def _rem(self, coeffs):
        """Remainder modulo the monic minimal polynomial, base-ring exact."""
        base, m = self.base, self.minpoly
        dm = self.degree
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, dm - 1, -1):
            c = coeffs[i]
            if not base.is_zero(c):
                coeffs[i] = base.zero
                for j in range(dm):
                    coeffs[i - dm + j] = base.sub(coeffs[i - dm + j], base.mul(c, m[j]))
        return coeffs[:dm]

    def from_coeffs(self, coeffs):
        coeffs = [self.base.of_int(c) if isinstance(c, int) else c for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = self._rem(coeffs)
        coeffs = list(coeffs) + [self.base.zero] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def generator(self):
        return self.from_coeffs([0, 1])

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        prod = [base.zero] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if not base.is_zero(ai):
                for j, bj in enumerate(b):
                    prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        red = self._rem(prod)
        return tuple(red + [base.zero] * (self.degree - len(red)))

    def of_int(self, n):
        return tuple([self.base.of_int(n)] + [self.base.zero] * (self.degree - 1))

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def inv(self, a):
        if not self.is_field:
            raise UnsupportedRingError("no division in %s" % self.kind)
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0 in %s" % self.kind)
        # extended Euclid against the minimal polynomial, over the base field
        base = self.base
        r0, r1 = list(self.minpoly), self._trim(a)
        s0, s1 = [], [base.one]
        while r1:
            q, r = self._divmod(r0, r1)
            r0, r1 = r1, r
            qs1 = self._poly_mul_base(q, s1)
            s0, s1 = s1, self._trim(
                [base.sub(x, y) for x, y in self._zip_pad_base(s0, qs1)]
            )
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor in %s" % self.kind)
        c = base.inv(r0[0])
        return self.from_coeffs([base.mul(ci, c) for ci in s0])

    def _trim(self, c):
        n = len(c)
        while n and self.base.is_zero(c[n - 1]):
            n -= 1
        return list(c[:n])

    def _poly_mul_base(self, a, b):
        base = self.base
        if not a or not b:
            return []
        out = [base.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not base.is_zero(ai):
                for j, bj in enumerate(b):
                    out[i + j] = base.add(out[i + j], base.mul(ai, bj))
        return self._trim(out)

    def _zip_pad_base(self, a, b):
        n = max(len(a), len(b))
        a = list(a) + [self.base.zero] * (n - len(a))
        b = list(b) + [self.base.zero] * (n - len(b))
        return zip(a, b)

    def _divmod(self, num, den):
        base = self.base
        num = list(num)
        dq = len(num) - len(den)
        if dq < 0:
            return [], self._trim(num)
        lead = base.inv(den[-1])
        q = [base.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            c = base.mul(num[i + len(den) - 1], lead)
            q[i] = c
            if not base.is_zero(c):
                for j, dj in enumerate(den):
                    num[i + j] = base.sub(num[i + j], base.mul(c, dj))
        return self._trim(q), self._trim(num)

    def is_negative(self, a):
        for c in a:
            if c:
                return c < 0
        return False

    def element_str(self, a):
        parts = []
        for i, c in enumerate(a):
            if not c:
                continue
            cs = self.base.element_str(c)
            if i == 0:
                parts.append(cs)
            else:
                mono = self.var if i == 1 else "%s^%d" % (self.var, i)
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append("-" + mono)
                else:
                    parts.append("%s*%s" % (cs, mono))
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, QuotientExtension)
            and type(other.base) is type(self.base)
            and other.base.kind == self.base.kind
            and other.minpoly == self.minpoly
        )

    def __hash__(self):
        return hash(("ext", self.base.kind, self.minpoly))


ZZ = IntegerRing()
QQ = RationalField()


def GF(p):
    return PrimeField(p)
