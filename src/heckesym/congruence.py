"""Congruence subgroups of the modular group (signature n = 3).

Cosets of Gamma_0(N) carry labels from P^1(Z/N); cosets of the plus-minus
image of Gamma_1(N) carry pairs (c, d) mod N with gcd(c, d, N) = 1, taken
up to simultaneous negation. A coset is the bottom row of any of its
representatives, and right multiplication acts on that row. A label is the
least pair of its orbit, and a pair finds it by normalisation: a scalar
carries c to the least first entry of the orbit (gcd(c, N) in P^1(Z/N), the
lesser of c and -c up to sign), and the scaled d is looked up among that
entry's labels (Cremona, Algorithms for Modular Elliptic Curves, ch. 2;
Stein, Modular Forms, ch. 8). So a gamma0 table costs about N times the
number of divisors of N, not N^2, and a gamma1 table is linear in its index.
Every label is backed by an exact lift to SL_2(Z), so the induced-module
cocycles are honest integer matrices (signs included), not just projective
classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import InternalInvariantError
from .rings import ZZ, UnsupportedRingError, xgcd
from .triangle import (
    TriangleSubgroup,
    mat2_det,
    mat2_identity,
    mat2_inv_det_one,
    mat2_mul,
    mat2_neg,
    sigma_matrix,
    tau_matrix,
)


# sigma and tau of the modular group: lambda = 2cos(pi/3) = 1, so tau has
# order 6 in SL_2(Z), order 3 projectively
_LETTERS = {"s": sigma_matrix(ZZ), "t": tau_matrix(ZZ, 1)}


def apply_moebius(A, x):
    """A acting on P^1(Q); x is a Fraction or None for infinity."""
    a, b, c, d = A
    if x is None:
        return None if c == 0 else Fraction(a, c)
    num = a * x + b
    den = c * x + d
    return None if den == 0 else Fraction(num, den)


# ---------------------------------------------------------------------------
# projective line over Z/N and (c,d)-pair labels
# ---------------------------------------------------------------------------


def _coset_tables(N, kind):
    """(labels, scale) for the pairs (c, d) mod N with gcd(c, d, N) = 1, up
    to scaling by the units of Z/N ("gamma0") or by -1 ("gamma1"). Each
    orbit is labelled by its least pair. Its first entry is the least
    multiple u * c, u a scalar: gcd(c, N) (0 when N divides c) for gamma0,
    the lesser of c and -c for gamma1. scale[c] is (table, u) for that u,
    and table[u * d % N] is the index of the label of (c, d). Per first
    entry the d are walked upward, and each new one labels its orbit under
    the scalars fixing that entry, so the labels come out sorted and the
    tables hold about N times the number of divisors of N entries."""
    units = [u for u in range(N) if gcd(u, N) == 1] if kind == "gamma0" else (1, -1)
    tables, scale = {}, []
    for c in range(N):
        if kind == "gamma1":
            u = 1 if c <= -c % N else -1
        else:
            # u * c = g mod N for the units u = (c/g)^-1 mod N/g
            g = gcd(c, N)
            u = pow(c // g, -1, N // g)
            while gcd(u, N) != 1:
                u += N // g
        scale.append((tables.setdefault(u * c % N, {}), u))
    labels = []
    for first in sorted(tables):
        table = tables[first]
        fixing = [w for w in units if (w - 1) * first % N == 0]
        for d in range(N):
            if d not in table and gcd(first, d, N) == 1:
                for w in fixing:
                    table[w * d % N] = len(labels)
                labels.append((first, d))
    return labels, scale


def lift_to_sl2(c, d, N):
    """A matrix in SL_2(Z) with bottom row congruent to (c, d) mod N and
    determinant exactly 1. Deterministic; (0,1) lifts to the identity and
    (c,1) to a lower-triangular matrix."""
    if gcd(gcd(c, d), N) != 1:
        raise ValueError("(%d, %d) is not a projective point mod %d" % (c, d, N))
    if N == 1:
        return mat2_identity(ZZ)
    c %= N
    d %= N
    if (c, d) == (0, 1):
        return mat2_identity(ZZ)
    if d == 1:
        return (1, 0, c, 1)
    if c == 0:
        c = N
    dd = d
    cap = d + N * (c + 1)
    while gcd(c, dd) != 1:
        dd += N
        if dd > cap:
            raise InternalInvariantError("no coprime shift found for the lift")
    g, x, y = xgcd(c, dd)
    # y*dd + x*c = 1, so (y, -x; c, dd) has determinant one
    return (y, -x, c, dd)


# ---------------------------------------------------------------------------
# coset tables
# ---------------------------------------------------------------------------


class CongruenceCosets:
    """Coset table for a congruence subgroup, with exact lifts.

    kind "gamma0": labels are P^1(Z/N) points, the group is the projective
    image of Gamma_0(N). kind "gamma1": labels are (c,d) pairs modulo
    negation, the group is the projective image of Gamma_1(N).

    Besides the coset-table interface it shares with modsym.PermCosets
    (n, mu, twist, weight_variant, label, subgroup), it carries the cusp
    arithmetic the Hecke operators and path conversion need. Cocycles are
    exact integer matrices, so the weight action keeps their signs.
    """

    weight_variant = "plus-minus-one"

    def __init__(self, N, kind):
        if N < 1:
            raise ValueError("level must be positive")
        if kind not in ("gamma0", "gamma1"):
            raise ValueError(kind)
        self.N = N
        self.kind = kind
        self.n = 3
        self.labels, self._scale = _coset_tables(N, kind)
        self.mu = len(self.labels)
        self.lifts = [lift_to_sl2(c, d, N) for c, d in self.labels]
        s = tuple(self._act_perm(i, _LETTERS["s"]) for i in range(self.mu))
        t = tuple(self._act_perm(i, _LETTERS["t"]) for i in range(self.mu))
        self.subgroup = TriangleSubgroup(3, s, t)
        self._inv_lifts = [mat2_inv_det_one(ZZ, m) for m in self.lifts]

    def coset_of(self, c, d):
        """Index of the coset with bottom row (c, d) mod N: the pair scaled
        to its label's first entry, then looked up there."""
        N = self.N
        table, u = self._scale[c % N]
        try:
            return table[u * d % N]
        except KeyError:
            raise InternalInvariantError(
                "row (%d, %d) is not coprime to the level" % (c, d)
            )

    def coset_of_matrix(self, g):
        return self.coset_of(g[2], g[3])

    def _act_perm(self, i, g):
        c, d = self.labels[i]
        a, b, cc, dd = g
        return self.coset_of(c * a + d * cc, c * b + d * dd)

    def act(self, i, g):
        """Right action on coset i by g in SL_2(Z): returns (j, gamma) with
        gamma = lift_i * g * lift_j^{-1}, an exact element of the subgroup.

        For "gamma1" the pair labels only determine gamma up to sign, and we
        normalize into Gamma_1(N) proper (diagonal = 1 mod N, not -1). That
        choice is multiplicative, so the twisted action matrices of sigma
        and tau have honest orders 2 and 3 in every weight, odd included."""
        lifted = mat2_mul(ZZ, self.lifts[i], g)
        j = self.coset_of_matrix(lifted)
        gamma = mat2_mul(ZZ, lifted, self._inv_lifts[j])
        return j, self._normalize_member(gamma)

    def _normalize_member(self, gamma):
        if gamma[2] % self.N:
            raise InternalInvariantError("cocycle not congruent to upper triangular")
        if self.kind == "gamma1":
            if (gamma[0] - gamma[3]) % self.N:
                raise InternalInvariantError("cocycle not plus-minus unipotent")
            if (gamma[0] - 1) % self.N:
                gamma = mat2_neg(ZZ, gamma)
                if (gamma[0] - 1) % self.N:
                    raise InternalInvariantError("cocycle diagonal is not a unit sign")
        return gamma

    def twist(self, i, letter):
        """(j, cocycle) for coset i under the letter; the cocycle is the
        inverse of the Schreier element, which multiplies the coefficient."""
        return self.twist_by(i, _LETTERS[letter])

    def twist_by(self, i, g):
        """The same as twist for any g in SL_2(Z)."""
        j, gamma = self.act(i, g)
        return j, mat2_inv_det_one(ZZ, gamma)

    def label(self):
        return "%s:%d" % (self.kind, self.N)

    def symbol_cocycle(self, g):
        """For a determinant-1 integer matrix g, the pair (j, gamma) with
        gamma = lift_j * g^(-1) in the subgroup. This rewrites the modular
        symbol {g.0, g.oo} as the coset-j generator twisted by gamma."""
        j = self.coset_of_matrix(g)
        gamma = mat2_mul(ZZ, self.lifts[j], mat2_inv_det_one(ZZ, g))
        return j, self._normalize_member(gamma)

    def __repr__(self):
        return "CongruenceCosets(N=%d, %s, mu=%d)" % (self.N, self.kind, self.mu)


def gamma0_cosets(N):
    return CongruenceCosets(N, "gamma0")


def gamma1_cosets(N):
    return CongruenceCosets(N, "gamma1")


def require_congruence(cosets, what):
    """Refuse `what` (Hecke operators, path conversion, matrix right
    actions) unless the coset table carries congruence cusp arithmetic."""
    if not isinstance(cosets, CongruenceCosets):
        raise UnsupportedRingError(
            "%s need the cusp arithmetic of a congruence coset table" % what
        )


# ---------------------------------------------------------------------------
# continued-fraction paths between cusps
# ---------------------------------------------------------------------------


def convergent_segments(x):
    """Unimodular chain from infinity to the rational x.

    Returns [(g, +1), ...] with each g in SL_2(Z); the k-th segment runs
    from the (k-1)-st convergent of x to the k-th (starting at infinity),
    via the matrix with the two convergents as columns, second column
    negated whenever that is needed to fix the determinant."""
    segs = []
    p_back, q_back = 0, 1  # convergent -2
    p_prev, q_prev = 1, 0  # convergent -1, the cusp at infinity
    # Euclid on the lowest-terms pair: the remainder rem = num / den has
    # integer part num // den, and the next one is den / (num % den)
    num, den = x.numerator, x.denominator
    while True:
        a, r = divmod(num, den)
        p = a * p_prev + p_back
        q = a * q_prev + q_back
        g = (p, p_prev, q, q_prev)
        det = mat2_det(ZZ, g)
        if det == -1:
            g = (p, -p_prev, q, -q_prev)
        elif det != 1:
            raise InternalInvariantError("convergent matrix not unimodular")
        segs.append((g, 1))
        if r == 0:
            return segs
        num, den = den, r
        p_back, q_back, p_prev, q_prev = p_prev, q_prev, p, q


def _path_from_zero(x):
    """Chain from 0 to x (Fraction or None for infinity)."""
    if x is None:
        return [(mat2_identity(ZZ), 1)]
    if x == 0:
        return []
    return [(mat2_identity(ZZ), 1)] + convergent_segments(x)


def continued_fraction_path(alpha, beta):
    """A list of (g, sign) with sum sign * {g.0, g.oo} = {alpha, beta}.

    Endpoints are Fractions or None for infinity. Adjacent segments that
    cancel (same matrix, opposite sign) are removed."""
    chain = [(g, -s) for g, s in reversed(_path_from_zero(alpha))]
    chain += _path_from_zero(beta)
    out = []
    for g, s in chain:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return out


# ---------------------------------------------------------------------------
# diamond operators
# ---------------------------------------------------------------------------


def diamond_matrix(d, N):
    """An SL_2(Z) lift of diag(d^-1, d) mod N, for d a unit mod N."""
    if gcd(d, N) != 1:
        raise UnsupportedRingError("diamond requires a unit mod the level")
    return lift_to_sl2(0, d, N)
