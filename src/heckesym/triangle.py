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
from functools import partial

from .rings import GF, ZZ, QuotientExtension, ShapeError, poly_divmod, poly_gcd, poly_powmod
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
                poly, rest = poly_divmod(ZZ, poly, cyclotomic_polynomial(d))
                if rest:
                    raise InternalInvariantError("inexact polynomial division")
        _CYCLOTOMIC_CACHE[m] = tuple(poly)
    return list(_CYCLOTOMIC_CACHE[m])


_LAMBDA_MINPOLY_CACHE = {}
_LAMBDA_ROOTS_CACHE = {}


def lambda_minimal_polynomial(n):
    """Minimal polynomial of 2*cos(pi/n) over Q, integer coefficients
    low -> high, monic, computed once per n. Obtained by folding the
    palindromic cyclotomic polynomial of order 2n through
    z^k + z^-k -> C_k(x)."""
    if n < 3:
        raise ShapeError("signature n >= 3")
    if n in _LAMBDA_MINPOLY_CACHE:
        return _LAMBDA_MINPOLY_CACHE[n]
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
    out = _LAMBDA_MINPOLY_CACHE[n] = tuple(out)
    return out


def integral_lambda_ring(n):
    """(ring, lam) with lam = 2*cos(pi/n) living in Z or Z[x]/(minpoly)."""
    if n == 3:
        return ZZ, 1
    R = QuotientExtension(ZZ, lambda_minimal_polynomial(n))
    return R, R.generator()


def rational_lambda_ring(n):
    from .rings import QQ
    from fractions import Fraction

    if n == 3:
        return QQ, Fraction(1)
    R = QuotientExtension(QQ, lambda_minimal_polynomial(n))
    return R, R.generator()


def lambda_roots_mod_p(n, p):
    """Sorted roots of the minimal polynomial of lam in F_p (may be empty),
    as a new list; _search_lambda_roots runs once per (n, p), unless p is
    prime to 2n and not +-1 mod 2n: lam = z + 1/z, z a primitive 2n-th root
    of unity, and Frobenius fixes lam just when it sends z to z^(+-1)."""
    if (n, p) not in _LAMBDA_ROOTS_CACHE:
        split = (2 * n) % p == 0 or p % (2 * n) in (1, 2 * n - 1)
        _LAMBDA_ROOTS_CACHE[n, p] = tuple(_search_lambda_roots(n, p)) if split else ()
    return list(_LAMBDA_ROOTS_CACHE[n, p])


def _search_lambda_roots(n, p):
    """The sorted roots of lambda_roots_mod_p: those of g = gcd(f, x^p - x),
    the product of the distinct linear factors of f mod p, with x^p taken by
    square-and-multiply mod f; g is split by the equal-degree step of
    Cantor-Zassenhaus (Cohen, A Course in Computational Algebraic Number
    Theory, 3.4), with random shifts from a fixed seed. Time grows with log p."""
    import random

    F = GF(p)
    f = [F.of_int(c) for c in lambda_minimal_polynomial(n)]
    if p == 2:
        return [x for x in (0, 1) if sum(c * x**i for i, c in enumerate(f)) % 2 == 0]
    h = poly_powmod(F, [0, 1], p, f) + [0, 0]
    h[1] = F.sub(h[1], 1)
    rng, roots, todo = random.Random(p), [], [poly_gcd(F, f, h)]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(F.neg(g[0]))
        elif len(g) > 2:
            while True:
                # (x + a)^((p-1)/2) - 1 vanishes at the roots r of g with
                # r + a a nonzero square, about half of them
                h = poly_powmod(F, [rng.randrange(p), 1], (p - 1) // 2, g) + [0]
                h[0] = F.sub(h[0], 1)
                h = poly_gcd(F, g, h)
                if 1 < len(h) < len(g):
                    todo += [h, poly_divmod(F, g, h)[0]]
                    break
    return sorted(roots)


# ---------------------------------------------------------------------------
# 2x2 matrices as 4-tuples (a, b, c, d) over an exact ring; the congruence
# cosets and the Hecke rows use them over ZZ
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


def mat2_pow(ring, A, e, mul=None):
    """A^e by square-and-multiply, with `mul` the 2x2 product over the ring
    (mat2_mul by default); a negative e inverts the determinant-1 A first."""
    mul = mul or partial(mat2_mul, ring)
    out = mat2_identity(ring)
    if e < 0:
        A, e = mat2_inv_det_one(ring, A), -e
    while e:
        if e & 1:
            out = mul(out, A)
        e >>= 1
        if e:
            A = mul(A, A)
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
        # t^n = 1 exactly when every cycle length of t divides n
        if any(n % len(cycle) for cycle in _perm_cycles(t)):
            raise InvalidSubgroupError("tau permutation must have order dividing n")
        self.n = n
        self.s = s
        self.t = t
        self.mu = mu
        self.perm_T = _compose(t, s)  # T = tau*sigma acts by t then s
        self._zlam = None  # (Z[lam], lam), built on first read
        self._words = None
        self._tree = None
        self._rep_cache = []
        self._word_cache = {}  # word -> matrix; one-letter words in the library
        if len(self._reachable()) != mu:
            raise InvalidSubgroupError("permutation action is not transitive")

    @classmethod
    def level_one(cls, n):
        return cls(n, (0,), (0,))

    def _lambda_ring(self):
        if self._zlam is None:
            self._zlam = integral_lambda_ring(self.n)
        return self._zlam

    # Z[lam], the ring of the cocycles (Z for n = 3), and lam in it, built on
    # first read: the minimal polynomial costs time quadratic in n
    ring = property(lambda self: self._lambda_ring()[0])
    lam = property(lambda self: self._lambda_ring()[1])

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
            tree = []  # (j, i, edge) in discovery order: words[j] = words[i] + (edge,)
            queue = [0]
            for i in queue:
                for letter, e in edges:
                    j = self.apply_letter(i, letter, e)
                    if words[j] is None:
                        words[j] = words[i] + ((letter, e),)
                        tree.append((j, i, (letter, e)))
                        queue.append(j)
            self._words, self._tree = words, tree
        return self._words

    def mul(self, A, B):
        """A * B for 2x2 matrices over Z[lam] (4-tuples of the coefficient
        tuples the weight module reads): each entry sums its two polynomial
        products as plain integers and is reduced by the minimal polynomial
        once. For n = 3 the entries are ints and this is mat2_mul over Z."""
        if self.n == 3:
            return mat2_mul(ZZ, A, B)
        m = self.ring.integer_minpoly
        k = len(m) - 1
        a, b, c, d = A
        e, f, g, h = B
        out = []
        for pairs in (((a, e), (b, g)), ((a, f), (b, h)), ((c, e), (d, g)), ((c, f), (d, h))):
            acc = [0] * (2 * k - 1)
            for x, y in pairs:
                for i, xi in enumerate(x):
                    if xi:
                        for j, yj in enumerate(y):
                            acc[i + j] += xi * yj
            for top in range(2 * k - 2, k - 1, -1):
                t = acc[top]
                if t:
                    for j in range(k):
                        acc[top - k + j] -= t * m[j]
            out.append(tuple(acc[:k]))
        return tuple(out)

    def word_matrix(self, word):
        """The matrix over Z[lam] of a word, a tuple of ('s', e) / ('t', e)
        pairs, kept per word (letter powers by mat2_pow)."""
        M = self._word_cache.get(word)
        if M is None:
            ring = self.ring
            if len(word) == 1:
                (letter, e), = word
                base = sigma_matrix(ring) if letter == "s" else tau_matrix(ring, self.lam)
                M = mat2_pow(ring, base, e, self.mul)
            else:
                M = mat2_identity(ring)
                for step in word:
                    M = self.mul(M, self.word_matrix((step,)))
            self._word_cache[word] = M
        return M

    def rep_matrices(self):
        """Exact coset representative matrices over Z[lam], built on the
        first call: each coset's is its breadth-first parent's times one
        letter power."""
        if not self._rep_cache:
            self.coset_words()
            reps = [None] * self.mu
            reps[0] = mat2_identity(self.ring)
            for j, i, edge in self._tree:
                reps[j] = self.mul(reps[i], self.word_matrix((edge,)))
            self._rep_cache.extend(reps)
        return self._rep_cache

    def cocycle_matrix(self, i, word):
        """The subgroup element r_i * g * r_{i.g}^-1 over Z[lam] for g given
        as a word, PSL-sign-canonicalized, with the coset i.g."""
        ring, mul = self.ring, self.mul
        reps = self.rep_matrices()
        j = self.apply_word(i, word)
        M = mul(mul(reps[i], self.word_matrix(tuple(word))), mat2_inv_det_one(ring, reps[j]))
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
    """Subgroup from {"n", "s", "t"}; an optional "mu" must match len(s).
    Every value is an integer (a list of them for s and t)."""
    try:
        n, s, t = data["n"], list(data["s"]), list(data["t"])
        mu = data.get("mu", len(s))
    except (KeyError, TypeError) as exc:
        raise InvalidSubgroupError("expected keys n, s, t (and optionally mu)") from exc
    if any(type(x) is not int for x in [n, mu, *s, *t]):
        raise InvalidSubgroupError("n, mu and the entries of s and t must be integers")
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
