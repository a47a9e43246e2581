"""Coefficient modules for weight k.

V is the space of homogeneous polynomials of degree k-2 in X, Y over a
ring R, with basis X^a Y^(k-2-a) for a = 0..k-2. A 2x2 matrix
g = [[a, b], [c, d]] acts on the left by

    (g.P)(X, Y) = P(dX - bY, -cX + aY),

which is substitution of the adjugate; for determinant one this is
P(g^{-1}(X, Y)), and the rule stays multiplicative for any determinant,
which is exactly what Hecke operators need. Action matrices use the
column convention: column a holds the coefficients of g applied to the
a-th basis monomial.

Two variants control how much of the matrix sign matters. "projective"
requires even weight, where -identity acts trivially and cocycles only
need to be right up to sign. "plus-minus-one" keeps exact signs and
accepts any weight >= 2; it is the right choice for congruence cosets,
whose cocycles are exact integer matrices.
"""

from __future__ import annotations

from .linalg import FPModule, InternalInvariantError, Matrix, RowBasis, left_kernel
from .rings import GF, PrimeField, QuotientExtension, UnsupportedRingError
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
    """Homogeneous polynomials of degree k-2 with the adjugate action."""

    def __init__(self, ring, k, variant="projective"):
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
        self.dim = k - 1
        self._lam_cache = {}
        self._matrix_cache = {}

    def convert_scalar(self, x, n=3):
        """Map an entry of a cocycle matrix (an int, or a coefficient tuple
        over Z[lambda] for signature n) into the coefficient ring."""
        if isinstance(x, int):
            return self.ring.of_int(x)
        lam = self._lam_for(n)
        acc = self.ring.zero
        power = self.ring.one
        for c in x:
            acc = self.ring.add(acc, self.ring.mul(self.ring.of_int(c), power))
            power = self.ring.mul(power, lam)
        return acc

    def _lam_for(self, n):
        if n not in self._lam_cache:
            self._lam_cache[n] = lambda_image_in(self.ring, n)
        return self._lam_cache[n]

    def action_matrix(self, mat, n=3):
        """Matrix of the left action of a 2x2 matrix (4-tuple, entries ints
        or Z[lambda] tuples), columns = images of basis monomials."""
        key = (mat, n)
        out = self._matrix_cache.get(key)
        if out is None:
            out = self._action_matrix(mat, n)
            if len(self._matrix_cache) < 4096:
                self._matrix_cache[key] = out
        return out

    def _action_matrix(self, mat, n):
        R = self.ring
        if self.dim == 1:
            return Matrix.identity(R, 1)
        a, b, c, d = (self.convert_scalar(x, n) for x in mat)
        k2 = self.k - 2
        # (dX - bY)^i and (-cX + aY)^i as X-degree coefficient lists
        u = [R.neg(b), d]
        v = [a, R.neg(c)]
        pu = [[R.one]]
        pv = [[R.one]]
        for _ in range(k2):
            pu.append(_lin_mul(R, pu[-1], u))
            pv.append(_lin_mul(R, pv[-1], v))
        rows = [[R.zero] * self.dim for _ in range(self.dim)]
        for alpha in range(self.dim):
            col = _poly_mul(R, pu[alpha], pv[k2 - alpha])
            for beta in range(self.dim):
                rows[beta][alpha] = col[beta]
        return Matrix(R, rows)

    def action_for(self, cocycle, n=3):
        return self.action_matrix(cocycle.matrix, n)

    def norm_matrix(self, mat, order, n=3):
        """Sum of the action of mat^j for j = 0..order-1, where `order` is
        the projective order of mat. Raises if mat^order does not act as
        plus or minus the identity."""
        A = self.action_matrix(mat, n)
        out = Matrix.identity(self.ring, self.dim)
        power = A
        for _ in range(order - 1):
            out = out.add(power)
            power = power.mul(A)
        ident = Matrix.identity(self.ring, self.dim)
        if power != ident and power != ident.scale(self.ring.of_int(-1)):
            raise ValueError("matrix does not have projective order %d" % order)
        if self.variant == "projective" and power != ident:
            raise InternalInvariantError(
                "even-weight action of a full twist must be trivial"
            )
        return out


def _lin_mul(R, poly, lin):
    """Multiply an X-degree coefficient list by the linear form
    lin[0]*Y + lin[1]*X (both homogeneous)."""
    out = [R.zero] * (len(poly) + 1)
    for i, c in enumerate(poly):
        if not R.is_zero(c):
            out[i] = R.add(out[i], R.mul(c, lin[0]))
            out[i + 1] = R.add(out[i + 1], R.mul(c, lin[1]))
    return out


def _poly_mul(R, f, g):
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not R.is_zero(a):
            for j, b in enumerate(g):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
    return out


class GenericWeightModule:
    """A coefficient module given by explicit generator matrices.

    The action is evaluated through words in sigma and tau, so modules
    with no polynomial structure can ride the same induced-module
    machinery. Only the projective free-product relations are checked."""

    def __init__(self, ring, n, mat_sigma, mat_tau):
        if mat_sigma.nrows != mat_sigma.ncols or mat_tau.nrows != mat_tau.ncols:
            raise ValueError("generator matrices must be square")
        if mat_sigma.nrows != mat_tau.nrows:
            raise ValueError("generator matrices must have equal size")
        self.ring = ring
        self.n = n
        self.dim = mat_sigma.nrows
        ident = Matrix.identity(ring, self.dim)
        if mat_sigma.mul(mat_sigma) != ident:
            raise ValueError("sigma matrix must square to the identity")
        power = ident
        self._tau_powers = [ident]
        for _ in range(n):
            power = power.mul(mat_tau)
            self._tau_powers.append(power)
        if power != ident:
            raise ValueError("tau matrix must have order dividing n")
        self._sigma = mat_sigma

    def action_word(self, word):
        out = Matrix.identity(self.ring, self.dim)
        for letter, e in word:
            if letter == "s":
                if e % 2:
                    out = out.mul(self._sigma)
            else:
                out = out.mul(self._tau_powers[e % self.n])
        return out

    def action_for(self, cocycle, n=None):
        if cocycle.word is None:
            raise UnsupportedRingError(
                "generic modules need word cocycles; congruence cosets only "
                "carry matrices"
            )
        return self.action_word(cocycle.word)


def local_term(ring, action, order):
    """The quotient (invariants of h) / (norm of h applied to V), presented
    on a basis of the invariants; `action` is the matrix of h on V and
    `order` the order of h. This measures the local obstruction at an
    elliptic point with stabilizer generated by h."""
    ident = Matrix.identity(ring, action.nrows)
    norm = ident
    power = action
    for _ in range(order - 1):
        norm = norm.add(power)
        power = power.mul(action)
    inv_rows = left_kernel(action.sub(ident).transpose())
    basis = RowBasis(inv_rows)
    relations = [basis.express(col) for col in norm.transpose().rows]
    return FPModule(ring, inv_rows.nrows, Matrix(ring, relations, inv_rows.nrows))
