"""Hecke triangle groups and their finite-index subgroups.

The group of signature n is generated by an order-2 element sigma and an
order-n element tau; projectively it is the free product Z/2 * Z/n. We fix
the matrix realizations

    sigma = [[0, -1], [1, 0]],    tau = [[lam, -1], [1, 0]],

with lam = 2*cos(pi/n), and set T = tau*sigma (a translation by lam up to
sign). For n = 3 this is the modular group with lam = 1.

A finite-index subgroup is described by the permutation action of sigma
and tau on its cosets. Everything combinatorial (cusps, elliptic classes,
genus, coset representative words) happens at the permutation level; exact
matrices live over Z[lam].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .rings import ZZ, QuotientExtension, ShapeError
from .linalg import InternalInvariantError


class InvalidSubgroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the field generated by lam = 2 cos(pi/n)
# ---------------------------------------------------------------------------


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(m):
    """Coefficients (low -> high) of the m-th cyclotomic polynomial,
    computed by exact division of z^m - 1 by the proper divisors' factors."""
    if m < 1:
        raise ShapeError("m >= 1")
    if m not in _CYCLOTOMIC_CACHE:
        poly = [-1] + [0] * (m - 1) + [1]  # z^m - 1
        for d in range(1, m):
            if m % d == 0:
                poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
        _CYCLOTOMIC_CACHE[m] = tuple(poly)
    return list(_CYCLOTOMIC_CACHE[m])


def _poly_divide_exact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise InternalInvariantError("inexact polynomial division")
        q[i] = c // den[-1]
        if q[i]:
            for j, dcoef in enumerate(den):
                num[i + j] -= q[i] * dcoef
    if any(num):
        raise InternalInvariantError("inexact polynomial division")
    return q


def lambda_minimal_polynomial(n):
    """Minimal polynomial of 2*cos(pi/n) over Q, integer coefficients
    low -> high, monic. Obtained by folding the palindromic cyclotomic
    polynomial of order 2n through z^k + z^-k -> C_k(x)."""
    if n < 3:
        raise ShapeError("signature n >= 3")
    phi = cyclotomic_polynomial(2 * n)
    d = len(phi) - 1
    if d % 2 or phi != phi[::-1]:
        raise InternalInvariantError("cyclotomic polynomial of order 2n not palindromic")
    half = d // 2
    # C_k with C_0 = 2, C_1 = x, C_k = x*C_{k-1} - C_{k-2}
    cheb = [[2], [0, 1]]
    for _ in range(2, half + 1):
        prev, prev2 = cheb[-1], cheb[-2]
        nxt = [0] + prev
        nxt = [a - b for a, b in zip(nxt, prev2 + [0] * (len(nxt) - len(prev2)))]
        cheb.append(nxt)
    out = [0] * (half + 1)
    out[0] += phi[half]
    for k in range(1, half + 1):
        c = phi[half + k]
        if c:
            for j, x in enumerate(cheb[k]):
                out[j] += c * x
    if out[-1] != 1:
        raise InternalInvariantError("folded polynomial not monic")
    return tuple(out)


def integral_lambda_ring(n):
    """(ring, lam) with lam = 2*cos(pi/n) living in Z or Z[x]/(minpoly)."""
    if n == 3:
        return ZZ, 1
    R = QuotientExtension(ZZ, lambda_minimal_polynomial(n), var="lam")
    return R, R.generator()


def rational_lambda_ring(n):
    from .rings import QQ
    from fractions import Fraction

    if n == 3:
        return QQ, Fraction(1)
    R = QuotientExtension(QQ, lambda_minimal_polynomial(n), var="lam")
    return R, R.generator()


def lambda_roots_mod_p(n, p):
    """Sorted roots of the minimal polynomial of lam in F_p (may be empty)."""
    poly = lambda_minimal_polynomial(n)
    return sorted(
        x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p == 0
    )


# ---------------------------------------------------------------------------
# 2x2 matrices as 4-tuples (a, b, c, d) over an exact ring; the congruence
# cosets and the Hecke representatives use them over ZZ
# ---------------------------------------------------------------------------


def mat2_identity(ring):
    return (ring.one, ring.zero, ring.zero, ring.one)


def mat2_mul(ring, A, B):
    a, b, c, d = A
    e, f, g, h = B
    add, mul = ring.add, ring.mul
    return (
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
    )


def mat2_det(ring, A):
    a, b, c, d = A
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def mat2_inv_det_one(ring, A):
    """Inverse of a determinant-1 matrix (the adjugate)."""
    a, b, c, d = A
    return (d, ring.neg(b), ring.neg(c), a)


def mat2_neg(ring, A):
    return tuple(ring.neg(x) for x in A)


def mat2_pow(ring, A, e):
    out = mat2_identity(ring)
    base = A
    if e < 0:
        base = mat2_inv_det_one(ring, A)
        e = -e
    while e:
        if e & 1:
            out = mat2_mul(ring, out, base)
        e >>= 1
        if e:
            base = mat2_mul(ring, base, base)
    return out


def psl_canonical(ring, A):
    """Fix the sign so the first nonzero of (a, b, c, d) is positive."""
    for x in A:
        if not ring.is_zero(x):
            if ring.is_negative(x):
                return mat2_neg(ring, A)
            return A
    return A


def sigma_matrix(ring):
    one, zero = ring.one, ring.zero
    return (zero, ring.neg(one), one, zero)


def tau_matrix(ring, lam):
    one, zero = ring.one, ring.zero
    return (lam, ring.neg(one), one, zero)


def word_matrix(ring, lam, word):
    """Evaluate a word, a tuple of ('s', e) / ('t', e) pairs."""
    M = mat2_identity(ring)
    S = sigma_matrix(ring)
    Tau = tau_matrix(ring, lam)
    for letter, e in word:
        base = S if letter == "s" else Tau
        M = mat2_mul(ring, M, mat2_pow(ring, base, e))
    return M


def word_inverse(word):
    return tuple((letter, -e) for letter, e in reversed(word))


def reduce_word(n, word):
    """Normal form in Z/2 * Z/n: alternating s / t^e blocks, exponents
    reduced mod 2 resp. mod n, empty blocks dropped."""
    out = []
    for letter, e in word:
        e %= 2 if letter == "s" else n
        if e == 0:
            continue
        if out and out[-1][0] == letter:
            prev = out.pop()
            e = (prev[1] + e) % (2 if letter == "s" else n)
            if e == 0:
                continue
        out.append((letter, e))
    return tuple(out)


# ---------------------------------------------------------------------------
# subgroups from permutations
# ---------------------------------------------------------------------------


def _perm_cycles(perm):
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return cycles


def _compose(p, q):
    """i -> q[p[i]] (apply p first)."""
    return tuple(q[p[i]] for i in range(len(p)))


@dataclass(frozen=True)
class EllipticClass:
    kind: str  # "sigma" or "tau"
    coset: int  # representative coset (least in its cycle)
    cycle: tuple  # the generator's coset cycle through `coset`
    power: int  # stabilizer is conjugate to <gen^power>
    order: int  # order of the stabilizer in the projective group


@dataclass(frozen=True)
class CuspClass:
    coset: int
    cycle: tuple

    @property
    def width(self):
        return len(self.cycle)


class TriangleSubgroup:
    """Finite-index subgroup given by coset permutations of sigma and tau.

    Cosets are numbered 0..mu-1 with 0 the subgroup itself; s[i] and t[i]
    are the cosets reached by right multiplication.
    """

    def __init__(self, n, s, t):
        s, t = tuple(s), tuple(t)
        if n < 3:
            raise InvalidSubgroupError("signature n must be >= 3")
        mu = len(s)
        if len(t) != mu or mu == 0:
            raise InvalidSubgroupError("permutation lengths differ or are zero")
        for perm in (s, t):
            if sorted(perm) != list(range(mu)):
                raise InvalidSubgroupError("not a permutation of 0..mu-1")
        if _compose(s, s) != tuple(range(mu)):
            raise InvalidSubgroupError("sigma permutation must square to the identity")
        pw = tuple(range(mu))
        for _ in range(n):
            pw = _compose(pw, t)
        if pw != tuple(range(mu)):
            raise InvalidSubgroupError("tau permutation must have order dividing n")
        self.n = n
        self.s = s
        self.t = t
        self.mu = mu
        self.perm_T = _compose(t, s)  # T = tau*sigma acts by t then s
        self._words = None
        self._rep_cache = {}
        self._word_cache = {}  # (ring, word) -> matrix; one-letter words in the library
        if len(self._reachable()) != mu:
            raise InvalidSubgroupError("permutation action is not transitive")

    @classmethod
    def level_one(cls, n):
        return cls(n, (0,), (0,))

    def _reachable(self):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in (self.s[i], self.t[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    # -- combinatorics ---------------------------------------------------
    def apply_letter(self, i, letter, e=1):
        if letter == "s":
            return self.s[i] if e % 2 else i
        e %= self.n
        for _ in range(e):
            i = self.t[i]
        return i

    def apply_word(self, i, word):
        for letter, e in word:
            i = self.apply_letter(i, letter, e)
        return i

    def cusp_classes(self):
        cycles = sorted(_perm_cycles(self.perm_T), key=min)
        return [CuspClass(coset=min(c), cycle=c) for c in cycles]

    def elliptic_classes(self):
        out = []
        for i in range(self.mu):
            if self.s[i] == i:
                out.append(EllipticClass("sigma", i, (i,), 1, 2))
        for cyc in sorted(_perm_cycles(self.t), key=min):
            ell = len(cyc)
            if ell < self.n:
                if self.n % ell:
                    raise InternalInvariantError("tau cycle length does not divide n")
                out.append(EllipticClass("tau", min(cyc), cyc, ell, self.n // ell))
        return out

    def genus(self):
        cs = len(_perm_cycles(self.s))
        ct = len(_perm_cycles(self.t))
        cT = len(_perm_cycles(self.perm_T))
        chi = cs + ct + cT - self.mu
        if chi % 2:
            raise InternalInvariantError("odd Euler characteristic")
        g = (2 - chi) // 2
        if g < 0:
            raise InternalInvariantError("negative genus")
        return g

    # -- representatives -------------------------------------------------
    def coset_words(self):
        """Schreier words: coset_words()[i] sends coset 0 to coset i.

        Breadth-first, edges tried in the order sigma, tau, tau^2, ...,
        tau^(n-1), lowest coset index first, so the tree is canonical.
        """
        if self._words is None:
            edges = [("s", 1)] + [("t", e) for e in range(1, self.n)]
            words = [None] * self.mu
            words[0] = ()
            queue = [0]
            while queue:
                i = queue.pop(0)
                for letter, e in edges:
                    j = self.apply_letter(i, letter, e)
                    if words[j] is None:
                        words[j] = words[i] + ((letter, e),)
                        queue.append(j)
            self._words = words
        return self._words

    def rep_matrices(self, ring, lam):
        """Exact coset representative matrices over the given lam ring."""
        if ring not in self._rep_cache:
            words = self.coset_words()
            self._rep_cache[ring] = [word_matrix(ring, lam, w) for w in words]
        return self._rep_cache[ring]

    def cocycle_matrix(self, ring, lam, i, word):
        """The subgroup element r_i * g * r_{i.g}^-1 for g given as a word,
        PSL-sign-canonicalized. Raises if it does not land in the subgroup
        (permutation check)."""
        reps = self.rep_matrices(ring, lam)
        j = self.apply_word(i, word)
        key = (ring, tuple(word))
        g = self._word_cache.get(key)
        if g is None:
            g = self._word_cache[key] = word_matrix(ring, lam, word)
        M = mat2_mul(ring, mat2_mul(ring, reps[i], g), mat2_inv_det_one(ring, reps[j]))
        return psl_canonical(ring, M), j

    def cocycle_word(self, i, word):
        """Same cocycle as a reduced word in sigma, tau."""
        words = self.coset_words()
        j = self.apply_word(i, word)
        w = words[i] + tuple(word) + word_inverse(words[j])
        return reduce_word(self.n, w), j

    def __repr__(self):
        return "TriangleSubgroup(n=%d, index=%d)" % (self.n, self.mu)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def subgroup_to_dict(group):
    return {"n": group.n, "mu": group.mu, "s": list(group.s), "t": list(group.t)}


def subgroup_from_dict(data):
    """Subgroup from {"n", "s", "t"}; an optional "mu" must match len(s)."""
    try:
        n = int(data["n"])
        s, t = list(data["s"]), list(data["t"])
        mu = int(data.get("mu", len(s)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSubgroupError("expected keys n, s, t (and optionally mu)") from exc
    if mu != len(s):
        raise InvalidSubgroupError("mu does not match the permutation length")
    return TriangleSubgroup(n, s, t)


def save_subgroup(group, path):
    with open(path, "w") as fh:
        json.dump(subgroup_to_dict(group), fh, sort_keys=True)
        fh.write("\n")


def load_subgroup(path):
    with open(path) as fh:
        return subgroup_from_dict(json.load(fh))
