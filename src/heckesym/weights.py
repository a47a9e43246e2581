"""Coefficient modules for weight k.

V is the space of homogeneous polynomials of degree k-2 in X, Y over a
ring R, with basis X^a Y^(k-2-a) for a = 0..k-2. A 2x2 matrix
g = [[a, b], [c, d]] acts on the left by

    (g.P)(X, Y) = P(dX - bY, -cX + aY),

which is substitution of the adjugate; for determinant one this is
P(g^{-1}(X, Y)), and the rule stays multiplicative for any determinant,
which is exactly what Hecke operators need. Action matrices follow the
row convention of linalg: row a holds the coefficients of g applied to
the a-th basis monomial, so the matrix of gh is M_h * M_g.

A module serves the cocycles of one signature n, whose entries are ints
or coefficient tuples over Z[lambda] with lambda = 2cos(pi/n). They are
read as the integers they are: over Q and the extensions Z[lambda] and
Q(lambda) the action is built on them directly, and over Z and F_p each
entry becomes one ring element first. The image of lambda in the
coefficient ring is checked when the module is built: 1 for n = 3, the
generator of the extension, or a root of its minimal polynomial in F_p.

Two variants control how much of the matrix sign matters. "projective"
requires even weight, where -identity acts trivially and cocycles only
need to be right up to sign. "plus-minus-one" keeps exact signs and
accepts any weight >= 2; it is the right choice for congruence cosets,
whose cocycles are exact integer matrices.
"""

from __future__ import annotations

from .linalg import Matrix
from .rings import ZZ, PrimeField, QuotientExtension, RationalField, UnsupportedRingError, poly_mul
from .triangle import lambda_minimal_polynomial, lambda_roots_mod_p


def lambda_image_in(ring, n):
    """The element of `ring` that plays the role of 2*cos(pi/n).

    For n = 3 this is 1 in any ring. Otherwise the ring must contain a
    root of the minimal polynomial of lambda: a quotient extension whose
    generator is such a root (Z[lambda], or Q(lambda) from --ring lambda),
    or a prime field where the polynomial has a root."""
    if n == 3:
        return ring.one
    if isinstance(ring, QuotientExtension):
        # both polynomials are monic and lambda's is irreducible, so the
        # generator is a root exactly when they are equal
        if ring.integer_minpoly == lambda_minimal_polynomial(n):
            return ring.generator()
        raise UnsupportedRingError(
            "extension generator is not a root of the lambda minimal polynomial"
        )
    if isinstance(ring, PrimeField):
        roots = lambda_roots_mod_p(n, ring.p)
        if roots:
            return roots[0]
        raise UnsupportedRingError(
            "the minimal polynomial of lambda for n=%d has no root mod %d; "
            "use --ring lambda or a prime where it splits" % (n, ring.p)
        )
    raise UnsupportedRingError("ring %s does not contain lambda for n=%d" % (ring.kind, n))


class WeightModule:
    """Homogeneous polynomials of degree k-2 with the adjugate action, for
    cocycles over Z[lambda] of one signature n."""

    def __init__(self, ring, k, variant="projective", n=3):
        if k < 2:
            raise UnsupportedRingError("weight must be >= 2")
        if variant == "projective":
            if k % 2:
                raise UnsupportedRingError(
                    "odd weight needs exact matrix signs; the projective "
                    "variant only supports even weight"
                )
        elif variant != "plus-minus-one":
            raise ValueError("unknown variant %r" % (variant,))
        self.ring = ring
        self.k = k
        self.variant = variant
        self.n = n
        self.dim = k - 1
        # taken now, so a ring without lambda is refused before any cocycle
        # (and Z[lambda] with it) is built
        self._lam = lambda_image_in(ring, n) if self.dim > 1 else None
        self._matrix_cache = {}
        # weight 2: every matrix acts as the identity, one per module (over
        # Q with its integer form in place)
        self._one = None
        if self.dim == 1:
            self._one = (Matrix.from_integers([[1]]) if isinstance(ring, RationalField)
                         else Matrix.identity(ring, 1))

    def action_matrix(self, mat):
        """Matrix of the left action of a 2x2 matrix (4-tuple, entries ints
        or Z[lambda] tuples); row a holds the image of the a-th basis
        monomial."""
        out = self._matrix_cache.get(mat)
        if out is None:
            out = self._action_matrix(mat)
            if len(self._matrix_cache) < 4096:
                self._matrix_cache[mat] = out
        return out

    def _action_matrix(self, mat):
        R = self.ring
        if self.dim == 1:
            return self._one
        # the entries are integral: the Z[lambda] tuples of an extension
        # (whose generator is lambda) and the ints of Q (which holds lambda
        # only for n = 3) build the action on integers, kept as the matrix's
        # integer form; over Z and F_p lambda is an int
        if isinstance(R, QuotientExtension):
            Z = R.integers
            ints = [Z.of_int(x) if isinstance(x, int) else x for x in mat]
            return Matrix.from_integers(_action_rows(Z, *ints, self.k), R)
        if isinstance(R, RationalField):
            return Matrix.from_integers(_action_rows(ZZ, *mat, self.k))
        lam = self._lam
        entries = [R.of_int(x if isinstance(x, int) else sum(c * lam**i for i, c in enumerate(x)))
                   for x in mat]
        return Matrix(R, _action_rows(R, *entries, self.k))


def _action_rows(R, a, b, c, d, k):
    """Rows of the action of [[a, b], [c, d]] (entries of R) in weight k."""
    k2 = k - 2
    # (dX - bY)^i and (-cX + aY)^i as X-degree coefficient lists
    u = [R.neg(b), d]
    v = [a, R.neg(c)]
    pu = [[R.one]]
    pv = [[R.one]]
    for _ in range(k2):
        pu.append(poly_mul(R, pu[-1], u))
        pv.append(poly_mul(R, pv[-1], v))
    return [poly_mul(R, pu[i], pv[k2 - i]) for i in range(k - 1)]


def norm(action, order):
    """1 + h + ... + h^(order - 1) for the matrix h of an action (row
    convention); an identity action (every one in weight 2) gives
    order * 1 without a product."""
    ring = action.ring
    ident = Matrix.identity(ring, action.nrows)
    if order > 1 and action == ident:
        return ident.scale(ring.of_int(order))
    total, power = ident, action
    for i in range(1, order):
        total = total.add(power)
        if i < order - 1:
            power = power.mul(action)
    return total
