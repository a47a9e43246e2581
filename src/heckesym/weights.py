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
or coefficient tuples over Z[lambda] with lambda = 2cos(pi/n); the image
of lambda in the coefficient ring is found on first use.

Two variants control how much of the matrix sign matters. "projective"
requires even weight, where -identity acts trivially and cocycles only
need to be right up to sign. "plus-minus-one" keeps exact signs and
accepts any weight >= 2; it is the right choice for congruence cosets,
whose cocycles are exact integer matrices.
"""

from __future__ import annotations

from .linalg import FPModule, Matrix, RowBasis, left_kernel
from .rings import GF, ZZ, PrimeField, QuotientExtension, RationalField, UnsupportedRingError
from .triangle import lambda_minimal_polynomial, lambda_roots_mod_p


def lambda_image_in(ring, n):
    """The element of `ring` that plays the role of 2*cos(pi/n).

    For n = 3 this is 1 in any ring. Otherwise the ring must contain a
    root of the minimal polynomial of lambda: a quotient extension whose
    generator is such a root, or a prime field where the polynomial has a
    linear factor."""
    if n == 3:
        return ring.one
    poly = lambda_minimal_polynomial(n)
    if isinstance(ring, QuotientExtension):
        g = ring.generator()
        acc = ring.zero
        power = ring.one
        for c in poly:
            acc = ring.add(acc, ring.mul(ring.of_int(c), power))
            power = ring.mul(power, g)
        if ring.is_zero(acc):
            return g
        raise UnsupportedRingError(
            "extension generator is not a root of the lambda minimal polynomial"
        )
    if isinstance(ring, PrimeField):
        roots = lambda_roots_mod_p(n, ring.p)
        if roots:
            return roots[0]
        raise UnsupportedRingError(
            "lambda for n=%d has no image in F_%d; use the quotient extension"
            % (n, ring.p)
        )
    raise UnsupportedRingError("ring %s does not contain lambda for n=%d" % (ring.kind, n))


def lambda_splitting_field_mod_p(n, p):
    """(ring, lam) in characteristic p: F_p itself when the minimal
    polynomial of lambda has a root, else F_p[x]/(least irreducible factor)."""
    F = GF(p)
    if n == 3:
        return F, F.one
    roots = lambda_roots_mod_p(n, p)
    if roots:
        return F, roots[0]
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(lambda_minimal_polynomial(n))), x, modulus=p)
    factors = sorted(
        (f.degree(), [int(c) % p for c in reversed(f.all_coeffs())])
        for f, _ in poly.factor_list()[1]
    )
    modulus = factors[0][1]
    R = QuotientExtension(F, modulus, var="lam")
    return R, R.generator()


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
        self._lam = None
        self._matrix_cache = {}

    def convert_scalar(self, x):
        """Map an entry of a cocycle matrix (an int, or a coefficient tuple
        over Z[lambda]) into the coefficient ring."""
        if isinstance(x, int):
            return self.ring.of_int(x)
        if self._lam is None:
            self._lam = lambda_image_in(self.ring, self.n)
        acc = self.ring.zero
        power = self.ring.one
        for c in x:
            acc = self.ring.add(acc, self.ring.mul(self.ring.of_int(c), power))
            power = self.ring.mul(power, self._lam)
        return acc

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
            return Matrix.identity(R, 1)
        entries = [self.convert_scalar(x) for x in mat]
        if isinstance(R, RationalField):
            # Q holds lambda only for n = 3, where it is 1: the matrix is
            # integral, so is its action, built on ints and kept as such
            return Matrix.from_integers(_action_rows(ZZ, *(x.numerator for x in entries), self.k))
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
        pu.append(_poly_mul(R, pu[-1], u))
        pv.append(_poly_mul(R, pv[-1], v))
    return [_poly_mul(R, pu[i], pv[k2 - i]) for i in range(k - 1)]


def _poly_mul(R, f, g):
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not R.is_zero(a):
            for j, b in enumerate(g):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
    return out


def local_term(ring, action, order):
    """The quotient (invariants of h) / (norm of h applied to V), presented
    on a basis of the invariants; `action` is the matrix of h on V (row
    convention) and `order` the order of h. This measures the local
    obstruction at an elliptic point with stabilizer generated by h."""
    ident = Matrix.identity(ring, action.nrows)
    norm = ident
    power = action
    for _ in range(order - 1):
        norm = norm.add(power)
        power = power.mul(action)
    inv_rows = left_kernel(action.sub(ident))
    basis = RowBasis(inv_rows)
    relations = [basis.express(row) for row in norm.rows]
    return FPModule(ring, inv_rows.nrows, Matrix(ring, relations, inv_rows.nrows))
