"""Independent cross-checks used by the test suite.

Each function here recomputes a quantity by a route disjoint from the
library's own implementation (sympy symbolics, brute-force enumeration,
classical closed formulas). Tests compare library output against these.
"""

from fractions import Fraction
from math import gcd

import sympy


def minpoly_2cos_pi_over(n):
    """Minimal polynomial of 2*cos(pi/n) over Q via sympy, as an int tuple
    (low -> high), normalized monic with integer coefficients."""
    x = sympy.Symbol("x")
    p = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), x)
    coeffs = list(reversed(sympy.Poly(p, x).all_coeffs()))
    return tuple(int(c) for c in coeffs)


def projective_line_size(N):
    """|P^1(Z/N)| by brute enumeration of orbits under unit scaling."""
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    seen = set()
    count = 0
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1:
                continue
            if (c, d) in seen:
                continue
            count += 1
            for u in units:
                seen.add((u * c % N, u * d % N))
    return count


def brute_p1_classes(N):
    """All orbits of {(c,d) : gcd(c,d,N)=1} under unit scaling, each as a
    frozenset. Independent of any canonical-representative rule."""
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    orbits = []
    seen = set()
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1 or (c, d) in seen:
                continue
            orb = frozenset((u * c % N, u * d % N) for u in units)
            seen.update(orb)
            orbits.append(orb)
    return orbits


def gamma1_pair_count(N):
    """Number of (c,d) mod N with gcd(c,d,N)=1, modulo (c,d) ~ (-c,-d)."""
    pairs = [
        (c, d)
        for c in range(N)
        for d in range(N)
        if gcd(gcd(c, d), N) == 1
    ]
    seen = set()
    count = 0
    for c, d in pairs:
        if (c, d) in seen:
            continue
        seen.add((c, d))
        seen.add((-c % N, -d % N))
        count += 1
    return count


def classical_cusp_form_dimension(N, k, group="gamma0"):
    """dim S_k(Gamma_0(N)) (or Gamma_1) for even k >= 2 via the standard
    genus / elliptic-point / cusp count formulas, computed from scratch."""
    if k % 2 or k < 2:
        raise ValueError("even weight >= 2 only")
    mu, eps2, eps3, cusps, genus = gamma_invariants(N, group)
    if k == 2:
        return genus
    # dim = (k-1)(g-1) + floor(k/4)*eps2 + floor(k/3)*eps3 + (k/2 - 1)*cusps
    return (k - 1) * (genus - 1) + (k // 4) * eps2 + (k // 3) * eps3 + (k // 2 - 1) * cusps


def eisenstein_dimension_gamma0(N, k):
    """dim E_k(Gamma_0(N)) for even k >= 2: one series per cusp, minus one
    in weight 2 (the total residue constraint)."""
    if k % 2 or k < 2:
        raise ValueError("even weight >= 2 only")
    cusps = gamma_invariants(N, "gamma0")[3]
    return cusps - 1 if k == 2 else cusps


def modular_symbol_dimension_gamma0(N, k):
    """Expected dimension over Q of the full symbol space for Gamma_0(N):
    twice the cusp form dimension plus the Eisenstein dimension."""
    return 2 * classical_cusp_form_dimension(N, k) + eisenstein_dimension_gamma0(N, k)


def odd_weight_dims_gamma1(N, k):
    """(2 * dim S_k, dim E_k) for Gamma_1(N), odd k >= 3, N >= 4 (so the
    group is torsion-free and -1 is absent). Cusps split into regular and
    irregular ones; only N = 4 has an irregular cusp (the class of 1/2),
    which contributes to cusp forms but not to Eisenstein series."""
    if k % 2 == 0 or k < 3 or N < 4:
        raise ValueError("odd weight >= 3 and level >= 4 only")
    mu, eps2, eps3, cusps, genus = gamma_invariants(N, "gamma1")
    assert eps2 == 0 and eps3 == 0
    irregular = 1 if N == 4 else 0
    regular = cusps - irregular
    s = (
        (k - 1) * (genus - 1)
        + Fraction(k - 2, 2) * regular
        + Fraction(k - 1, 2) * irregular
    )
    assert s == int(s)
    return 2 * int(s), regular


def gamma_invariants(N, group):
    if group == "gamma0":
        mu = N
        for p in sorted(set(sympy.factorint(N))):
            mu = mu // p * (p + 1)
        # order-2 points: factor 1 at p=2; order-3 points: factor 0 at p=2
        eps2 = 0 if N % 4 == 0 else _prod(
            (1 if p == 2 else 1 + _legendre(-1, p)) for p in sympy.factorint(N)
        )
        eps3 = 0 if N % 9 == 0 else _prod(
            (0 if p == 2 else 1 + _legendre(-3, p)) for p in sympy.factorint(N)
        )
        cusps = sum(_phi(gcd(d, N // d)) for d in sympy.divisors(N))
    elif group == "gamma1":
        if N <= 2:
            return gamma_invariants(N, "gamma0")
        mu = N * N
        for p in sorted(set(sympy.factorint(N))):
            mu = mu // (p * p) * (p * p - 1)
        mu //= 2
        eps2 = 0
        eps3 = 0 if N != 3 else 1
        if N == 4:
            cusps = 3
        elif N == 3:
            cusps = 2
        else:
            cusps = sum(_phi(d) * _phi(N // d) for d in sympy.divisors(N)) // 2
    else:
        raise ValueError(group)
    genus = 1 + Fraction(mu, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1
    return mu, eps2, eps3, cusps, int(genus)


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def _phi(n):
    return int(sympy.totient(n))


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def ramanujan_tau(nmax):
    """tau(1..nmax) from the product q * prod (1-q^n)^24, pure power series."""
    prec = nmax + 1
    # eta^24: start with prod (1 - q^n)^24 truncated
    series = [0] * prec
    series[0] = 1
    for n in range(1, prec):
        for _ in range(24):
            # multiply by (1 - q^n)
            for i in range(prec - 1, n - 1, -1):
                series[i] -= series[i - n]
    tau = [0] * (nmax + 1)
    for i in range(1, nmax + 1):
        tau[i] = series[i - 1]
    return tau


def elliptic_point_count_x0_11(p):
    """#E(F_p) for y^2 + y = x^3 - x^2 - 10x - 20 by direct counting,
    including the point at infinity. Then a_p = p + 1 - #E(F_p)."""
    count = 1
    for x in range(p):
        rhs = (x * x * x - x * x - 10 * x - 20) % p
        for y in range(p):
            if (y * y + y - rhs) % p == 0:
                count += 1
    return count


def eta_product_coefficients(factors, nmax):
    """[a_1, ..., a_nmax] of the eta product prod_i eta(d_i z)^(r_i), for
    products whose leading power of q is exactly 1 (sum d_i r_i = 24).

    Pure integer power-series bookkeeping: the product of (1 - q^(d n))^r
    over n >= 1, truncated, shifted by the leading q. `factors` is a list
    of (d, r) pairs."""
    shift = sum(d * r for d, r in factors)
    if shift != 24:
        raise ValueError("eta product must start at q^1")
    series = [0] * nmax
    series[0] = 1
    for d, r in factors:
        for n in range(1, nmax):
            step = d * n
            if step >= nmax:
                break
            for _ in range(r):
                for i in range(nmax - 1, step - 1, -1):
                    series[i] -= series[i - step]
    return series


def legendre_symbol(a, p):
    return _legendre(a, p)


def sl2_charpoly(mat_rows):
    """Characteristic polynomial coefficients via sympy, low -> high."""
    M = sympy.Matrix(mat_rows)
    coeffs = sympy.Poly(M.charpoly().as_expr(), sympy.Symbol("lambda")).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def orbifold_genus(n, mu, elliptic_orders, num_cusps):
    """Genus from the orbifold Euler characteristic (Riemann-Hurwitz):

        2 - 2g = mu * (2 - n) / (2n) + sum_x (1 - 1/m_x) + #cusps

    for an index-mu subgroup of the (2, n, infinity) triangle group with
    elliptic points of orders m_x. Independent of the cell-count formula."""
    chi = Fraction(mu * (2 - n), 2 * n)
    chi += sum(1 - Fraction(1, m) for m in elliptic_orders)
    chi += num_cusps
    two_g = 2 - chi
    assert two_g.denominator == 1 and two_g.numerator % 2 == 0
    g = int(two_g) // 2
    assert g >= 0
    return g


def random_involution(mu, rng):
    """Uniform-ish random permutation with square = identity."""
    idx = list(range(mu))
    rng.shuffle(idx)
    perm = list(range(mu))
    while len(idx) >= 2:
        if rng.random() < 0.4:
            idx.pop()
            continue
        a, b = idx.pop(), idx.pop()
        perm[a], perm[b] = b, a
    return tuple(perm)


def random_order_n_perm(n, mu, rng):
    """Random permutation whose order divides n: random cycles with lengths
    drawn from the divisors of n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    idx = list(range(mu))
    rng.shuffle(idx)
    perm = list(range(mu))
    while idx:
        lengths = [d for d in divisors if d <= len(idx)]
        ell = rng.choice(lengths)
        cyc = [idx.pop() for _ in range(ell)]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


# ---------------------------------------------------------------------------
# textbook dense elimination over a field given by its operations
# ---------------------------------------------------------------------------


class RationalOps:
    """Q on Fractions."""

    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    @staticmethod
    def is_zero(a):
        return a == 0


class PrimeFieldOps:
    """F_p on residues 0..p-1, inverses by Fermat."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    @staticmethod
    def is_zero(a):
        return a == 0


class SimpleExtensionOps:
    """Q[x]/(m) for a monic irreducible m (integer coefficients, low ->
    high) on tuples of Fractions. The inverse of a solves b * a = 1 as a
    linear system over Q with dense_rref below."""

    def __init__(self, minpoly):
        self.m = [Fraction(c) for c in minpoly]
        self.d = len(minpoly) - 1
        self.zero = (Fraction(0),) * self.d
        self.one = (Fraction(1),) + (Fraction(0),) * (self.d - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(len(prod) - 1, self.d - 1, -1):
            c = prod[i]
            for j in range(self.d + 1):
                prod[i - self.d + j] -= c * self.m[j]
        return tuple(prod[: self.d])

    def inv(self, a):
        # row i of M is a * x^i; b * M = 1 means M^T b = e_0
        basis = [tuple(Fraction(int(i == j)) for j in range(self.d)) for i in range(self.d)]
        M = [self.mul(a, e) for e in basis]
        aug = [[M[i][r] for i in range(self.d)] + [Fraction(int(r == 0))] for r in range(self.d)]
        R, pivots = dense_rref(aug, RationalOps)
        assert pivots == list(range(self.d)), "not invertible"
        return tuple(row[-1] for row in R)

    def is_zero(self, a):
        return all(x == 0 for x in a)


def dense_rref(rows, F):
    """(nonzero rows of the reduced echelon form, pivot columns) by plain
    Gauss-Jordan: first nonzero entry down each column, scaled to one."""
    A = [list(r) for r in rows]
    ncols = len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(A)) if not F.is_zero(A[i][c])), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        s = F.inv(A[r][c])
        A[r] = [F.mul(s, x) for x in A[r]]
        for i in range(len(A)):
            if i != r and not F.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def dense_rank(rows, F):
    return len(dense_rref(rows, F)[1])


def dense_left_kernel(rows, F):
    """Reduced echelon basis of {x : x * A = 0}, from the free columns of
    the reduced form of the transpose."""
    n = len(rows)
    R, pivots = dense_rref([list(col) for col in zip(*rows)], F)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [F.zero] * n
        v[f] = F.one
        for row, c in zip(R, pivots):
            v[c] = F.sub(F.zero, row[f])
        basis.append(v)
    return dense_rref(basis, F)[0] if basis else []


def dense_quotient_coords(relations, vec, F):
    """Coordinates of vec in the quotient by the row span of `relations`:
    subtract vec[c] times the reduced echelon row at each pivot column c,
    then read the free (non-pivot) columns."""
    R, pivots = dense_rref(relations, F)
    v = list(vec)
    for row, c in zip(R, pivots):
        f = v[c]
        v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return [x for j, x in enumerate(v) if j not in pivots]


def dense_solve(rows, vec, F):
    """Coefficients c with c * rows == vec for independent rows, or None
    when vec is outside their span: Gauss-Jordan on rows^T c = vec."""
    n = len(rows)
    R, pivots = dense_rref([[r[j] for r in rows] + [x] for j, x in enumerate(vec)], F)
    if n in pivots:
        return None
    coeffs = [F.zero] * n
    for row, c in zip(R, pivots):
        coeffs[c] = row[n]
    return coeffs


def dense_product(A, B, ncols, F):
    """Rows of A * B by the textbook triple loop over a ring given by its
    operations, every term summed from F.zero; B has one row per column of
    A (possibly none) and ncols columns."""
    out = []
    for row in A:
        orow = []
        for j in range(ncols):
            acc = F.zero
            for k, a in enumerate(row):
                acc = F.add(acc, F.mul(a, B[k][j]))
            orow.append(acc)
        out.append(orow)
    return out


def weight_action_rows(k, mat):
    """Rows of the adjugate action of mat = (a, b, c, d) on homogeneous
    polynomials of degree k - 2, by sympy substitution: row i holds the
    coefficients of X^j Y^(k-2-j), j = 0..k-2, in P(dX - bY, -cX + aY) for
    P = X^i Y^(k-2-i). Entries of mat are sympy expressions (integers, or
    polynomials in a symbol); the coefficients come back expanded."""
    a, b, c, d = (sympy.sympify(x) for x in mat)
    X, Y = sympy.symbols("X Y")
    m = k - 2
    rows = []
    for i in range(m + 1):
        image = sympy.expand((d * X - b * Y) ** i * (-c * X + a * Y) ** (m - i))
        poly = sympy.Poly(image, X, Y)
        rows.append([sympy.expand(poly.coeff_monomial(X**j * Y ** (m - j))) for j in range(m + 1)])
    return rows
