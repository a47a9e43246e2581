"""Hecke operators, eigensystems, and q-expansion coefficients.

T_p acts on Manin symbols through Heilbronn matrices (Merel, Universal
Fourier expansions of modular forms, 1994; Cremona, Algorithms for Modular
Elliptic Curves, ch. 2): the symbol of coset (c, d) with coefficient v goes
to the sum, over Cremona's determinant-p matrices h, of the symbol of
(c, d) h with coefficient v acted on by adj h, and the terms whose row is
not a unit pair mod N drop out, which makes the sum U_p when p divides N.
This is the double-coset operator, diamond twist included on Gamma_1(N),
up to Manin relations: no translated path is cut into unimodular segments
by continued fractions, and no cocycle is checked per segment. The weight
action of adj h = [[d, -b], [-c, a]] substitutes h itself: P(X, Y) goes to
P(aX + bY, cX + dY), as in Merel's formula.

Callers over a field read only the rows of an operator at the free
generators of the presentation, so an operator assembles its ambient rows
when they are first read, one batch per read, and keeps them; its .ambient
matrix is built in full on first access.

Eigenvalue extraction factors characteristic polynomials over the base
field (the rationals or a prime field) and refines joint invariant blocks
prime by prime. Scalars are never extended silently: a block whose
polynomial has an irreducible factor of higher degree keeps that factor in
the report instead of sprouting fake eigenvalues.

Over Q a block's characteristic polynomial comes from residues
(linalg.charpoly_from_residues: charpoly modulo 62-bit primes, joined by
CRT), with its coefficients bounded through |eigenvalue of T_p| <=
1 + p^(k-1), which holds on cuspidal and Eisenstein symbols alike. The
primary decomposition certifies the result whatever the bound: when each
kernel of f(T_p)^e, over the irreducible factors f^e, has dimension
deg(f) * e and together they fill the block, the factors are exactly the
characteristic polynomial. A block that fails is split again with the
Fraction charpoly, and only a second failure is an internal error.
Eigensystems over F_p use charpoly alone. The kernels take no Fraction
matrix product: each is the end of a chain of left kernels of an integer
multiple of f(T_p) (_primary_parts). The hecke command's charpolys use
charpoly(T) = charpoly(T|S) * charpoly(T on V/S) for the invariant
cuspidal subspace S, so each Hessenberg runs on one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, sub

from .congruence import diamond_matrix, require_congruence
from .linalg import (
    FPMap,
    FPModule,
    IllDefinedMapError,
    InternalInvariantError,
    Matrix,
    NotInSpanError,
    RowBasis,
    charpoly,
    charpoly_from_residues,
    left_kernel,
)
from .modsym import cuspidal_subspace
from .rings import ZZ, PrimeField, RationalField, UnsupportedRingError, is_prime
from .triangle import mat2_det, mat2_identity, mat2_inv_det_one, mat2_mul
from .weights import _poly_mul


def sturm_bound(space):
    """Index n past which eigenform coefficients are determined: one more
    than weight * index / 12, with the index taken projectively."""
    return space.weight.k * space.cosets.mu // 12 + 1


@lru_cache(maxsize=32)
def _heilbronn(p):
    """Cremona's Heilbronn matrices of determinant p, as (a, b, c, d) for
    [[a, b], [c, d]] (Cremona, Algorithms for Modular Elliptic Curves, 2.4):
    [[1, 0], [0, p]], then for each |r| <= (p - 1) / 2 the matrices along a
    nearest-integer continued fraction of r / p. Built in time linear in
    the length of the list, which grows like p log p."""
    if p == 2:
        return ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))
    out = [(1, 0, 0, p)]
    for r in range(-(p - 1) // 2, (p - 1) // 2 + 1):
        x1, x2, y1, y2, a, b = p, -r, 0, 1, -p, r
        out.append((x1, x2, y1, y2))
        while b:
            # a / b rounded half away from zero
            q = (2 * abs(a) + abs(b)) // (2 * abs(b))
            q = q if (a < 0) == (b < 0) else -q
            a, b = -b, a - b * q
            x1, x2, y1, y2 = x2, q * x2 - x1, y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return tuple(out)


def _operator_rows(space, mats, rows):
    """Ambient images of the given induced-module coordinates under the
    operator of the matrices `mats`, as {row: dense image row}. The full
    ambient matrix is this with every row.

    A matrix h of determinant other than one is a Heilbronn matrix: it
    sends row a of coset i to e_a A(lift_i^-1) A(adj h) A(L) in block j,
    where (x, y) = (bottom row of lift_i) * h mod N lies in coset j and L is
    lift_j, negated for gamma1 when its bottom row is -(x, y) mod N. A term
    with gcd(x, y, N) > 1 is dropped, which makes the sum U_p when p
    divides N. A determinant-one g is a translation: the same term with h
    the identity and (x, y) the bottom row of g * lift_i.

    Only the cosets that own a requested row are visited, and the terms
    landing on one coset j are summed before the product, so each pair
    (i, j) takes one. Over Q the rows are summed on ints and become
    Fractions once, when finished."""
    cosets, N = space.cosets, space.cosets.N
    ring = space.ring
    weight = space.weight
    blk = space.module.block
    work, action = ring, weight.action_matrix
    if isinstance(ring, RationalField):
        # integer matrices act integrally: their integer forms have d = 1
        work, action = ZZ, lambda g: weight.action_matrix(g).integer_form()[0]
    # -lift_j acts as (-1)^k lift_j, and only gamma1 tells +-(x, y) apart
    signed = cosets.kind == "gamma1" and weight.k % 2
    owned = {}
    for r in sorted(rows):
        owned.setdefault(r // blk, []).append(r % blk)
    # sums[i, j]: the entries of the A(adj h) of the terms from coset i
    # landing on coset j, summed as they come, so memory does not grow with
    # the number of matrices
    sums, zero = {}, [0] * (blk * blk)
    for g in mats:
        left, h = (g, mat2_identity(ZZ)) if mat2_det(ZZ, g) == 1 else (None, g)
        a, b, c, d = h
        # mat2_inv_det_one is the adjugate, whatever the determinant
        flat = [x for row in action(mat2_inv_det_one(ZZ, h)).rows for x in row]
        for i in owned:
            u, v = (cosets.lifts[i] if left is None else mat2_mul(ZZ, left, cosets.lifts[i]))[2:]
            x, y = u * a + v * c, u * b + v * d
            if gcd(x, y, N) != 1:
                continue
            j = cosets.coset_of(x, y)
            L = cosets.lifts[j]
            op = sub if signed and ((L[2] - x) % N or (L[3] - y) % N) else add
            sums[i, j] = list(map(op, sums.get((i, j), zero), flat))
    out = {r: [work.zero] * space.module.rank for r in rows}
    inverses = {i: action(mat2_inv_det_one(ZZ, cosets.lifts[i])).rows for i in owned}
    for (i, j), total in sums.items():
        summed = Matrix(work, [total[r:r + blk] for r in range(0, blk * blk, blk)], blk)
        act = action(cosets.lifts[j]).act_on_row
        for off in owned[i]:
            out[i * blk + off][j * blk:(j + 1) * blk] = act(summed.act_on_row(inverses[i][off]))
    if work is not ring:
        out = {r: ring.from_numerators(row) for r, row in out.items()}
    return out


class LazyOperator(FPMap):
    """A Hecke or diamond operator as a self-map of the symbol space, with
    its ambient rows assembled on first read and kept.

    Every read goes through rows_at, which builds the missing rows in one
    batch; .ambient assembles all of them on first access."""

    def __init__(self, space, mats):
        self.src = self.dst = space.presentation
        self._space = space
        self._mats = mats
        self._rows = {}

    def rows_at(self, indices):
        missing = sorted({r for r in indices if r not in self._rows})
        if missing:
            self._rows.update(_operator_rows(self._space, self._mats, missing))
        return [self._rows[r] for r in indices]

    @cached_property
    def ambient(self):
        ngens = self.src.ngens
        return Matrix(self.src.ring, self.rows_at(range(ngens)), ngens)


def hecke_matrix(space, p):
    """The Hecke operator at a prime p (U_p when p divides the level) as a
    self-map of the symbol space, from the Heilbronn matrices of
    determinant p. Merel's theorem makes it well defined on the quotient:
    it agrees with the double-coset operator up to Manin relations.

    The result is a LazyOperator: ambient rows are assembled when first
    read (matrix_on_generators and restrict_operator read only the rows at
    the free generators), and .ambient builds the full matrix on demand."""
    require_congruence(space.cosets, "Hecke operators")
    if not is_prime(p):
        raise ValueError("Hecke operators are indexed by primes, got %r" % (p,))
    return LazyOperator(space, _heilbronn(p))


def diamond_operator(space, d):
    """Left translation by a determinant-one lift of diag(1/d, d) mod N.

    On P^1-labelled cosets this is the identity; on (c, d)-pair cosets it
    permutes the classes and twists the coefficients, and in odd weight
    d = -1 acts as minus the identity. Like hecke_matrix, it returns a
    LazyOperator whose rows are assembled on first read."""
    require_congruence(space.cosets, "Hecke operators")
    return LazyOperator(space, [diamond_matrix(d, space.cosets.N)])


def restrict_operator(operator, subspace):
    """Square matrix of an operator on an invariant subspace, rows indexed
    by the subspace generators in their own coordinates; IllDefinedMapError
    when the operator does not preserve the subspace.

    Over a field it runs in the free-generator coordinates of the
    presentation: the subspace generators are reduced once to canonical
    coordinates C (_generator_coordinates), and G = matrix_on_generators
    acts on them through _restrict_to_block, the routine eigensystem applies
    to its blocks. That is exact, because the operator maps relations into
    relations, so reducing an ambient image v * A gives reduce(v) * G. Over
    Z each ambient image is expressed in the lattice the generators span
    with the relations, so its generator part is unique only when the
    subspace module has no nonzero relation row; else UnsupportedRingError."""
    src = operator.src
    if src.ring.is_field:
        return _restrict_on_generators(operator, *_generator_coordinates(src, subspace))
    gens = subspace.ambient_rows
    if subspace.module is not None and not subspace.module.relations.is_zero():
        raise UnsupportedRingError("restriction over Z needs subspace generators "
                                   "without relations, for a unique matrix on them")
    try:
        basis = RowBasis(gens.stack(src.relations))
        images = gens.mul(operator.ambient).rows
        return Matrix(src.ring, [basis.express(v)[: gens.nrows] for v in images], gens.nrows)
    except NotInSpanError:
        raise IllDefinedMapError("operator does not preserve the subspace")


def _generator_coordinates(presentation, subspace):
    """The subspace generators reduced to the free-generator coordinates
    of a presentation over a field, and their RowBasis."""
    coords = Matrix(presentation.ring, [list(presentation.reduce(g)) for g in subspace.ambient_rows.rows],
                    presentation.ncoords())
    return coords, RowBasis(coords)


def operator_charpolys(operator, subspace):
    """(charpoly on the whole space, charpoly on an invariant subspace S)
    of an operator over a field, the first as charpoly(T|S) times the
    charpoly on V/S. V/S is presented with the generators of S as
    relations, and its FPMap check re-proves the invariance."""
    coords, basis = _generator_coordinates(operator.src, subspace)
    on_sub = charpoly(_restrict_on_generators(operator, coords, basis))
    quotient = FPModule(coords.ring, coords.ncols, coords)
    on_quotient = FPMap(quotient, quotient, operator.matrix_on_generators(), check=True)
    return _poly_mul(coords.ring, on_sub, charpoly(on_quotient.matrix_on_generators())), on_sub


def _restrict_on_generators(operator, coords, basis):
    """restrict_operator over a field, on the subspace generators already
    reduced by _generator_coordinates."""
    try:
        return _restrict_to_block(operator.src.ring, operator.matrix_on_generators(), coords, basis)
    except NotInSpanError:
        raise IllDefinedMapError("operator does not preserve the subspace")


# ---------------------------------------------------------------------------
# eigensystems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenBlock:
    """A joint invariant block of the Hecke action on a subspace.

    `basis` rows are coordinates on the subspace generators. `eigenvalues`
    holds the split primes; `factors` maps each unsplit prime to the monic
    irreducible factor (coefficients low to high) that the block carries.
    `diagonal` is False when some split prime acts non-semisimply on the
    block (fewer eigenvectors than the algebraic multiplicity)."""

    dim: int
    basis: Matrix
    eigenvalues: dict
    factors: dict
    diagonal: bool


def _factor_monic(ring, coeffs):
    """Irreducible factors of a monic polynomial over Q or F_p, as a sorted
    list of (monic coefficient tuple low->high, multiplicity)."""
    import sympy

    x = sympy.Symbol("x")
    if isinstance(ring, RationalField):
        sym = [
            sympy.Rational(int(Fraction(c).numerator), int(Fraction(c).denominator))
            for c in reversed(coeffs)
        ]
        pairs = []
        for f, e in sympy.Poly(sym, x, domain="QQ").factor_list()[1]:
            mono = [sympy.Rational(c) for c in reversed(f.monic().all_coeffs())]
            pairs.append((tuple(Fraction(int(c.p), int(c.q)) for c in mono), e))
    elif isinstance(ring, PrimeField):
        p = ring.p
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x, modulus=p)
        pairs = []
        for f, e in poly.factor_list()[1]:
            fc = [int(c) % p for c in reversed(f.all_coeffs())]
            lead = ring.inv(fc[-1])
            pairs.append((tuple(c * lead % p for c in fc), e))
    else:
        raise UnsupportedRingError(
            "eigenvalue extraction factors polynomials over the rationals or "
            "a prime field"
        )
    pairs.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return pairs


def _poly_apply(ring, coeffs, mat):
    """sum_i (L c_i d^(m-i)) A^i = L d^m f(mat), a nonzero multiple of the
    polynomial f = coeffs (low->high, degree m) at a square matrix, by
    Horner's rule on integer rows through A.act_on_row: mat = A / d is the
    integer form and L the least common denominator of the coefficients
    over Q; over F_p, A = mat and d = L = 1."""
    rational = isinstance(ring, RationalField)
    A, d = mat.integer_form() if rational else (mat, 1)
    L, m = lcm(*(Fraction(c).denominator for c in coeffs)), len(coeffs) - 1
    coeffs = [(L * d ** (m - i) * Fraction(c)).numerator for i, c in enumerate(coeffs)]
    rows = [[coeffs[-1] if j == i else 0 for j in range(mat.nrows)] for i in range(mat.nrows)]
    for c in reversed(coeffs[:-1]):
        rows = [A.act_on_row(row) for row in rows]
        for i, row in enumerate(rows):
            row[i] += c
    return Matrix.from_integers(rows) if rational else Matrix(ring, rows)


def _restrict_to_block(ring, mat, basis, rb=None, name=None):
    """Matrix of `mat` on the span of `basis` rows, in basis coordinates;
    rb is the RowBasis of `basis` when the caller has it already. A span
    that `mat` does not preserve raises NotInSpanError, or, for an
    eigenblock, which the operator `name` must preserve, an internal error."""
    rb = RowBasis(basis) if rb is None else rb
    try:
        return Matrix(ring, [rb.express(mat.act_on_row(row)) for row in basis.rows], basis.nrows)
    except NotInSpanError:
        if name is None:
            raise
        raise InternalInvariantError("%s does not preserve an eigenblock of dimension %d" % (name, basis.nrows))


def _primary_parts(ring, p, cmat, poly, basis, evs, facs, diag):
    """The refinement of a block (basis, evs, facs, diag) by the primary
    components of cmat, its T_p matrix, under the factors of poly; None
    when some kernel chain below does not reach dimension deg(f) * e or
    the kernels do not fill the block. For each f^e, with F =
    _poly_apply(f, cmat), K = ker F is replaced by {x : x F in span K},
    which is ker F^(j+1) when K = ker F^j, while K is smaller than
    deg(f) * e and still grows. Passing both checks proves poly is the
    characteristic polynomial of cmat: the kernels lie in the generalized
    eigenspaces of the distinct f, which are independent, so each has
    dimension deg(f) * e and equals ker f(T_p)^e."""
    n, parts, consumed = cmat.nrows, [], 0
    for fc, e in _factor_monic(ring, poly):
        fmat = _poly_apply(ring, fc, cmat)
        want = (len(fc) - 1) * e
        rows = left_kernel(fmat)
        first, grown = rows.nrows, True
        while grown and rows.nrows < want:
            # x F = y K: K is independent, so the kernel of [F; K] has its
            # pivots in the first n columns, and cut there it stays reduced
            cut = [{j: x for j, x in r.items() if j < n} for r in left_kernel(fmat.stack(rows)).sparse_rows()]
            grown = len(cut) > rows.nrows
            rows = Matrix.from_sparse(ring, cut, n)
        if rows.nrows != want:
            return None
        consumed += want
        evs2, facs2, diag2 = dict(evs), dict(facs), diag
        if len(fc) == 2:
            evs2[p] = ring.neg(fc[0])
            diag2 = diag and (e == 1 or first == want)
        else:
            facs2[p] = tuple(fc)
        parts.append((rows.mul(basis), evs2, facs2, diag2))
    return parts if consumed == basis.nrows else None


def _require_eigen_space(space):
    """Refuse eigensystems unless the coset table is congruence and the
    ring is Q or F_p; callers run it before building any subspace."""
    require_congruence(space.cosets, "Hecke operators")
    if not isinstance(space.ring, (RationalField, PrimeField)):
        raise UnsupportedRingError(
            "eigensystems need rational or prime-field coefficients"
        )


def eigensystem(space, primes, subspace=None):
    """Joint primary decomposition of the Hecke operators at the given
    primes, on the cuspidal subspace by default.

    Returns EigenBlocks sorted by their eigenvalue data. Every block is
    invariant under all the operators; a one-eigenvalue-per-prime block of
    dimension 2d corresponds to d copies of the plus/minus pair of a form.
    The subspace generators are reduced once for all the primes, and over
    Q the block charpolys come from residues, certified by the
    decomposition (see the module docstring)."""
    _require_eigen_space(space)
    ring = space.ring
    rational = isinstance(ring, RationalField)
    if subspace is None:
        subspace = cuspidal_subspace(space)
    total = subspace.ambient_rows.nrows
    if total == 0:
        return []
    reduced = _generator_coordinates(space.presentation, subspace)
    blocks = [(Matrix.identity(ring, total), {}, {}, True)]
    for p in primes:
        mp = _restrict_on_generators(hecke_matrix(space, p), *reduced)
        r = 1 + p ** (space.weight.k - 1)
        refined = []
        for block in blocks:
            cmat = _restrict_to_block(ring, mp, block[0], name="T_%d" % p)
            parts = None
            if rational:
                n = cmat.nrows
                bound = max(comb(n, i) * r**i for i in range(n + 1))
                parts = _primary_parts(ring, p, cmat, charpoly_from_residues(cmat, bound), *block)
            if parts is None:
                parts = _primary_parts(ring, p, cmat, charpoly(cmat), *block)
            if parts is None:
                raise InternalInvariantError("primary components of T_%d do not fill the block" % p)
            refined += parts
        blocks = refined
    out = [
        EigenBlock(dim=b.nrows, basis=b, eigenvalues=e, factors=f, diagonal=d)
        for b, e, f, d in blocks
    ]

    def key(blk):
        parts = []
        for p in primes:
            if p in blk.eigenvalues:
                parts.append((0, blk.eigenvalues[p]))
            else:
                fac = blk.factors[p]
                parts.append((1, len(fac), fac))
        parts.append(blk.dim)
        return tuple(parts)

    out.sort(key=key)
    return out


# ---------------------------------------------------------------------------
# q-expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExpansion:
    """Coefficients a_1..a_bound attached to an eigenblock.

    `coefficients` is None when the block is not a rational eigensystem up
    to the bound (an irreducible factor of degree > 1, or a diamond action
    that is not scalar on the block). `character` maps each prime up to the
    bound to its diamond eigenvalue (zero at primes dividing the level)."""

    block: EigenBlock
    character: dict | None
    coefficients: tuple | None


def qexpansions(space, bound):
    """Eigenform coefficient lists on the cuspidal subspace.

    Primes up to max(bound, sturm_bound) drive the eigensystem, so blocks
    are separated as finely as rational eigenvalues allow; coefficients at
    prime powers follow the weight-k recurrence with the diamond character,
    and multiplicativity fills in the rest."""
    _require_eigen_space(space)
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    ring = space.ring
    k = space.weight.k
    N = space.cosets.N
    subspace = cuspidal_subspace(space)
    top = max(bound, sturm_bound(space))
    primes = [p for p in range(2, top + 1) if is_prime(p)]
    coeff_primes = [p for p in primes if p <= bound]
    blocks = eigensystem(space, primes, subspace)
    diamond_cache = {}
    out = []
    for blk in blocks:
        chi = {}
        usable = all(p in blk.eigenvalues for p in coeff_primes)
        if usable:
            for p in coeff_primes:
                if N % p == 0:
                    chi[p] = ring.zero
                elif space.cosets.kind == "gamma0":
                    chi[p] = ring.one
                else:
                    if p not in diamond_cache:
                        diamond_cache[p] = restrict_operator(
                            diamond_operator(space, p), subspace
                        )
                    cmat = _restrict_to_block(ring, diamond_cache[p], blk.basis, name="diamond %d" % p)
                    lam = cmat.rows[0][0]
                    if cmat != Matrix.identity(ring, cmat.nrows).scale(lam):
                        usable = False
                        break
                    chi[p] = lam
        if not usable:
            out.append(QExpansion(block=blk, character=None, coefficients=None))
            continue
        coeffs = _coefficients(ring, k, blk.eigenvalues, chi, bound)
        out.append(QExpansion(block=blk, character=chi, coefficients=coeffs))
    return out


def _coefficients(ring, k, aps, chi, bound):
    """a_1..a_bound from prime eigenvalues: prime powers by the recurrence
    a(p^(r+1)) = a(p) a(p^r) - chi(p) p^(k-1) a(p^(r-1)), the rest by
    multiplicativity across coprime factors."""
    a = [None] * (bound + 1)
    a[1] = ring.one
    for p, ap in aps.items():
        if p > bound:
            continue
        scale = ring.mul(chi[p], ring.of_int(p ** (k - 1)))
        prev, cur = ring.one, ap
        pe = p
        while pe <= bound:
            a[pe] = cur
            prev, cur = cur, ring.sub(ring.mul(ap, cur), ring.mul(scale, prev))
            pe *= p
    for n in range(2, bound + 1):
        if a[n] is None:
            p = next(d for d in range(2, n + 1) if n % d == 0)
            pe = p
            while n % (pe * p) == 0:
                pe *= p
            a[n] = ring.mul(a[pe], a[n // pe])
    return tuple(a[1:])
