"""Independent cross-checks used by the test suite.

Each function here recomputes a quantity by a route disjoint from the
library's own implementation (sympy symbolics, brute-force enumeration,
classical closed formulas). Tests compare library output against these.
"""

from fractions import Fraction
from math import gcd

import sympy

from heckesym import hecke
from heckesym.congruence import continued_fraction_path, diamond_matrix
from heckesym.linalg import Matrix, left_kernel, subquotient
from heckesym.modsym import PermCosets, cuspidal_subspace
from heckesym.rings import ZZ
from heckesym.triangle import mat2_identity, mat2_mul, mat2_pow, sigma_matrix, tau_matrix
from heckesym.weights import norm


def minpoly_2cos_pi_over(n):
    """Minimal polynomial of 2*cos(pi/n) over Q via sympy, as an int tuple
    (low -> high), normalized monic with integer coefficients."""
    x = sympy.Symbol("x")
    p = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), x)
    coeffs = list(reversed(sympy.Poly(p, x).all_coeffs()))
    return tuple(int(c) for c in coeffs)


def word_matrix(ring, lam, word):
    """Evaluate a word, a tuple of ('s', e) / ('t', e) pairs, through the
    generic mat2_mul over `ring`: one ring add and mul per entry product,
    independent of the subgroup's own Z[lambda] product."""
    M = mat2_identity(ring)
    S = sigma_matrix(ring)
    Tau = tau_matrix(ring, lam)
    for letter, e in word:
        base = S if letter == "s" else Tau
        M = mat2_mul(ring, M, mat2_pow(ring, base, e))
    return M


def elliptic_local_data(module):
    """(local terms, orbit sums) of the elliptic classes of an induced
    module, from each class's own stabilizer generator rather than the
    module's orbit walk: for a permutation table the subgroup element
    r_c g^l r_c^-1 of cocycle_matrix, for a congruence table the element
    lift_c g^l lift_c^-1 that the table's act gives, g the class's letter
    and l its cycle length. Its weight action h gives the local term
    V^h / N_h V, the h-fixed vectors modulo the image of the norm of h;
    each h-fixed coefficient placed at the class coset and carried around
    the class cycle by the dense right action of g gives one orbit sum, a
    dense ambient row."""
    cosets, ring, blk = module.cosets, module.ring, module.block
    terms, sums = [], []
    for cls in cosets.subgroup.elliptic_classes():
        letter = "s" if cls.kind == "sigma" else "t"
        if isinstance(cosets, PermCosets):
            gamma, j = cosets.subgroup.cocycle_matrix(cls.coset, ((letter, cls.power),))
        else:
            g = sigma_matrix(ZZ) if letter == "s" else tau_matrix(ZZ, 1)
            j, gamma = cosets.act(cls.coset, mat2_pow(ZZ, g, cls.power))
        assert j == cls.coset, "the stabilizer generator moves its coset"
        h = module.weight.action_matrix(gamma)
        fixed = left_kernel(h.sub(Matrix.identity(ring, blk)))
        terms.append(subquotient(fixed, norm(h, cls.order)))
        step = module.right_matrix(letter).act_on_row
        for v in fixed.rows:
            cur = [ring.zero] * module.rank
            cur[cls.coset * blk:(cls.coset + 1) * blk] = list(v)
            total = list(cur)
            for _ in range(cls.power - 1):
                cur = step(cur)
                total = [ring.add(a, b) for a, b in zip(total, cur)]
            sums.append(total)
    return terms, sums


def global_group_fixed_vectors(module):
    """Basis of M^G as one left kernel of [1 - sigma | 1 - tau] on the
    whole module, without the orbit walk."""
    return left_kernel(module.right_difference("s").hstack(module.right_difference("t")))


def roots_mod_p(poly, p):
    """Roots in F_p of an integer polynomial (low -> high) by trying every
    residue."""
    xs = range(p)
    values = [poly[-1]] * p
    for c in reversed(poly[:-1]):
        values = [v * x + c for x, v in zip(xs, values)]  # Horner, reduced at the end
    return [x for x, v in zip(xs, values) if v % p == 0]


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


def coset_labels(N, kind):
    """(labels, lookup) of the coset table of `kind` at level N, by walking
    all N^2 pairs (c, d) in lexicographic order: the first pair met in an
    orbit under scaling (by the units mod N for "gamma0", by -1 for
    "gamma1") is its label, and lookup sends every pair with
    gcd(c, d, N) = 1 to the index of its label."""
    units = [u for u in range(1, N + 1) if gcd(u, N) == 1] if kind == "gamma0" else (1, -1)
    labels, lookup = [], {}
    for c in range(N):
        for d in range(N):
            if (c, d) in lookup or gcd(c, d, N) != 1:
                continue
            for u in units:
                lookup[u * c % N, u * d % N] = len(labels)
            labels.append((c, d))
    return labels, lookup


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
    """base[x]/(m) for a monic m (coefficients low -> high) on coefficient
    tuples; the base is Q on Fractions, or F_p on residues when p is given,
    and m may have rational coefficients over Q. Products reduce x^i for
    i >= deg m one power at a time with m. The inverse of a solves b * a = 1
    as a linear system over the base with dense_rref below (m irreducible)."""

    def __init__(self, minpoly, p=None):
        self.base = B = RationalOps if p is None else PrimeFieldOps(p)
        self.m = [Fraction(c) if p is None else c % p for c in minpoly]
        self.d = len(minpoly) - 1
        self.zero = (B.zero,) * self.d
        self.one = (B.one,) + (B.zero,) * (self.d - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        B = self.base
        prod = [B.zero] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = B.add(prod[i + j], B.mul(x, y))
        for i in range(len(prod) - 1, self.d - 1, -1):
            c = prod[i]
            for j in range(self.d + 1):
                prod[i - self.d + j] = B.sub(prod[i - self.d + j], B.mul(c, self.m[j]))
        return tuple(prod[: self.d])

    def inv(self, a):
        # row i of M is a * x^i; b * M = 1 means M^T b = e_0
        B = self.base
        basis = [tuple(B.one if i == j else B.zero for j in range(self.d)) for i in range(self.d)]
        M = [self.mul(a, e) for e in basis]
        aug = [[M[i][r] for i in range(self.d)] + [B.one if r == 0 else B.zero]
               for r in range(self.d)]
        R, pivots = dense_rref(aug, B)
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


def dense_hnf(rows, ncols):
    """Row Hermite normal form of an integer matrix, zero rows last, by
    Euclid on whole rows: down each column, reduce every other entry below
    the current row modulo the one of least magnitude until one is left,
    make it positive, then bring the entries above it into [0, pivot)."""
    A = [list(r) for r in rows]
    top = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(top, len(A)) if A[i][c]]
            if len(nz) <= 1:
                break
            k = min(nz, key=lambda i: abs(A[i][c]))
            for i in nz:
                if i != k:
                    q = A[i][c] // A[k][c]
                    A[i] = [x - q * y for x, y in zip(A[i], A[k])]
        if not nz:
            continue
        A[top], A[nz[0]] = A[nz[0]], A[top]
        if A[top][c] < 0:
            A[top] = [-x for x in A[top]]
        for i in range(top):
            q = A[i][c] // A[top][c]
            A[i] = [x - q * y for x, y in zip(A[i], A[top])]
        top += 1
    return A


def hnf_by_scan(rows, ncols):
    """(H, U) as dict rows: the Hermite form with transform by the same
    xgcd steps as linalg.hermite_normal_form, but finding the rows that
    hold each column by scanning every row below the rank and every row
    above the pivot, with no index. Both must give identical H and U."""
    from heckesym.rings import xgcd

    def addmul(dst, q, src):
        for k, w in src.items():
            s = dst.get(k, 0) + q * w
            if s:
                dst[k] = s
            else:
                del dst[k]

    def combine(x, u, y, v):
        out = {k: x * w for k, w in u.items()} if x else {}
        if y:
            addmul(out, y, v)
        return out

    n = len(rows)
    tabs = ([{j: x for j, x in enumerate(r) if x} for r in rows], [{i: 1} for i in range(n)])
    H = tabs[0]
    rank = 0
    for c in range(ncols):
        nz = [r for r in range(rank, n) if c in H[r]]
        if not nz:
            continue
        r0 = nz[0]
        for r in nz[1:]:
            a, b = H[r0][c], H[r][c]
            g, x, y = xgcd(a, b)
            for tab in tabs:
                u, v = tab[r0], tab[r]
                if x != 1 or y:
                    tab[r0] = combine(x, u, y, v)
                tab[r] = combine(b // g, u, -(a // g), v)
        for tab in tabs:
            tab[rank], tab[r0] = tab[r0], tab[rank]
        if H[rank][c] < 0:
            for tab in tabs:
                tab[rank] = {k: -w for k, w in tab[rank].items()}
        p = H[rank][c]
        for r in range(rank):
            q = H[r].get(c, 0) // p
            if q:
                for tab in tabs:
                    addmul(tab[r], -q, tab[rank])
        rank += 1
    return tabs


def in_row_lattice(rows, ncols, vec):
    """Whether vec is an integer combination of rows: reduce it down the
    pivots of their Hermite form (dense_hnf) and see if nothing is left."""
    v = list(vec)
    for row in dense_hnf(rows, ncols):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            break
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


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


def power_kernel(mat, f, e):
    """Reduced echelon basis (dense rows) of the left kernel of f(mat)^e,
    for a square Matrix over Q or F_p and f given low -> high: f(mat) as
    the sum of c_i mat^i, its e-th power by dense products, and the kernel
    by dense_left_kernel, on RationalOps or PrimeFieldOps."""
    p = getattr(mat.ring, "p", None)
    F, n = (RationalOps if p is None else PrimeFieldOps(p)), mat.nrows
    rows = [list(r) for r in mat.rows]
    ident = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    value, power = [[F.zero] * n for _ in range(n)], ident
    for c in f:
        value = [[F.add(x, F.mul(c, y)) for x, y in zip(vr, pr)] for vr, pr in zip(value, power)]
        power = dense_product(power, rows, n, F)
    out = ident
    for _ in range(e):
        out = dense_product(out, value, n, F)
    return dense_left_kernel(out, F)


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


def induced_operators(cosets, weight):
    """The dense textbook matrices of s, t, T, Ds, Dt, DT, Ns and Nt on the
    module induced along a coset table, keyed by those names, assembled
    cell by cell with the ring's own operations: row i*b + a of a letter's
    action holds, in the block of the coset j that i goes to, row a of the
    weight action of the twist cocycle (b = weight.dim); T is t then s, the
    D's are the identity minus an action, and the N's sum the powers of a
    generator from the identity up to its order less one."""
    F = weight.ring
    mu, b = cosets.mu, weight.dim
    size = mu * b
    ident = [[F.one if r == c else F.zero for c in range(size)] for r in range(size)]

    def letter(name):
        out = [[F.zero] * size for _ in range(size)]
        for i in range(mu):
            j, cocycle = cosets.twist(i, name)
            block = weight.action_matrix(cocycle).rows
            for a in range(b):
                out[i * b + a][j * b:(j + 1) * b] = list(block[a])
        return out

    def combine(op, A, B):
        return [[op(x, y) for x, y in zip(r, s)] for r, s in zip(A, B)]

    ops = {"s": letter("s"), "t": letter("t")}
    ops["T"] = dense_product(ops["t"], ops["s"], size, F)
    for name in "stT":
        ops["D" + name] = combine(F.sub, ident, ops[name])
    for name, order in (("s", 2), ("t", cosets.n)):
        total, power = ident, ident
        for _ in range(order - 1):
            power = dense_product(power, ops[name], size, F)
            total = combine(F.add, total, power)
        ops["N" + name] = total
    return ops


def global_fixed_vectors(module, name):
    """The vectors fixed by "s", "t" or "T" as one kernel of the whole
    induced module: the left kernel of the identity minus the action."""
    from heckesym.linalg import left_kernel

    return left_kernel(module.right_difference(name))


def global_relations(module):
    """The Manin relations as both full norm matrices, sigma's on tau's:
    the norm rows at every coset."""
    return module.norm_matrix("s").stack(module.norm_matrix("t"))


def smith_diagonal(mat):
    """The Smith diagonal of an integer matrix, padded with zeros to its
    column count, by diagonalizing every row and column of its Hermite
    basis at once (no unit pivot split off first)."""
    from heckesym.linalg import _snf_core, hermite_basis

    a = _snf_core([dict(r) for r in hermite_basis(mat).sparse_rows()], mat.ncols)[0]
    diag = [a[i].get(i, 0) for i in range(len(a))]
    return tuple(diag + [0] * (mat.ncols - len(diag)))


def rank_dimensions(cosets, weight):
    """The dims numbers of the module induced along a coset table, by the
    nine global ranks of the textbook operators (induced_operators), each
    a dense_rank over the fraction field of the weight's ring: manin = R -
    rank [Ns; Nt], boundary = R - rank DT, eisenstein = rank [Ds; DT] -
    rank DT, h1 = 2R - rank Ns - rank Nt - rank [Ds | Dt], h1_par = R +
    rank DT - rank [Ns | Nt] - rank [Ds | Dt], surface_h1 = rank Ds +
    rank Dt - rank [Ds | Dt], and the cuspidal and parabolic surface parts
    less the Eisenstein part."""
    ring = weight.ring
    if hasattr(ring, "p"):
        F = PrimeFieldOps(ring.p)
    elif hasattr(ring, "integer_minpoly"):
        F = SimpleExtensionOps(ring.integer_minpoly)
    else:
        F = RationalOps  # Q, and Z read over Q
    ops = induced_operators(cosets, weight)
    R = len(ops["s"])

    def rank(*names, side=False):
        mats = [ops[n] for n in names]
        rows = [sum(parts, []) for parts in zip(*mats)] if side else sum(mats, [])
        return dense_rank(rows, F) if rows else 0

    r_dt, r_coboundary = rank("DT"), rank("Ds", "Dt", side=True)
    manin = R - rank("Ns", "Nt")
    eisenstein = rank("Ds", "DT") - r_dt
    surface = rank("Ds") + rank("Dt") - r_coboundary
    return {
        "manin": manin,
        "cuspidal": manin - eisenstein,
        "eisenstein": eisenstein,
        "boundary": R - r_dt,
        "h1": 2 * R - rank("Ns") - rank("Nt") - r_coboundary,
        "h1_par": R + r_dt - rank("Ns", "Nt", side=True) - r_coboundary,
        "surface_h1": surface,
        "surface_h1_par": surface - eisenstein,
    }


def segment_endpoints(g):
    """(g.0, g.oo) as Fractions, None for the cusp at infinity."""
    a, b, c, d = g
    start = None if d == 0 else Fraction(b, d)
    end = None if c == 0 else Fraction(a, c)
    return start, end


def hecke_representatives(p, N):
    """Determinant-p matrices for T_p (p coprime to N: p+1 of them) or
    U_p (p dividing N: p of them)."""
    reps = [(1, j, 0, p) for j in range(p)]
    if N % p:
        reps.append((p, 0, 0, 1))
    return reps


def hecke_rows_by_paths(space, p, rows):
    """Ambient rows {row: dense row} of T_p (U_p when p divides the level)
    on a congruence symbol space, by the double-coset construction on
    paths: each representative delta carries the coset-i path {lift_i.0,
    lift_i.oo} (x) v to {delta lift_i.0, delta lift_i.oo} (x) delta.v, and
    the translated path is cut into unimodular segments by continued
    fractions, each rewritten as a coset generator by symbol_cocycle.
    Everything runs on the ring's own elements.

    The representative with lower row (0, 1) is corrected on the left by
    an SL_2(Z) lift of diag(1/p, p) mod N, which builds the diamond twist of
    Gamma_1(N) into the sum (and changes nothing on Gamma_0(N))."""
    cosets, ring, weight = space.cosets, space.ring, space.weight
    blk = space.module.block
    reps = hecke_representatives(p, cosets.N)
    if len(reps) == p + 1:
        reps[-1] = mat2_mul(ZZ, diamond_matrix(p, cosets.N), reps[-1])
    out = {}
    for r in rows:
        i, a = divmod(r, blk)
        row = [ring.zero] * space.module.rank
        for delta in reps:
            image = weight.action_matrix(delta).rows[a]
            path = continued_fraction_path(*segment_endpoints(mat2_mul(ZZ, delta, cosets.lifts[i])))
            for seg, sign in path:
                j, gamma = cosets.symbol_cocycle(seg)
                piece = weight.action_matrix(gamma).act_on_row(image)
                op = ring.add if sign == 1 else ring.sub
                row[j * blk:(j + 1) * blk] = [op(x, y) for x, y in zip(row[j * blk:(j + 1) * blk], piece)]
        out[r] = row
    return out


def eigensystem_by_restriction(space, primes, subspace=None):
    """hecke.eigensystem by full restriction at every prime: T_p on the
    whole subspace from the Hecke rows at every free generator, then each
    block restricted, its charpoly taken and split into primary parts
    (hecke._split_block), with no Hecke field carried between primes."""
    hecke._require_eigen_space(space)
    if subspace is None:
        subspace = cuspidal_subspace(space)
    total = subspace.ambient_rows.nrows
    if total == 0:
        return []
    reduced = hecke._generator_coordinates(space.presentation, subspace)
    blocks = [(Matrix.identity(space.ring, total), {}, {}, True)]
    for p in primes:
        mp = hecke._restrict_on_generators(hecke.hecke_matrix(space, p), *reduced)
        blocks = [part for block in blocks for part in hecke._split_block(space.ring, p, space.weight.k, mp, block)]
    return hecke._eigenblocks(blocks, primes)
