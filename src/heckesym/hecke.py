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

Callers read only some rows of an operator (those at the free generators
of the presentation, or at a few generators' supports), so an operator
assembles its ambient rows when they are first read, one batch per read,
and keeps them; its .ambient matrix is built in full on first access.

Eigensystems refine joint invariant blocks prime by prime over the base
field (the rationals or a prime field). Scalars are never extended
silently: a block whose polynomial has an irreducible factor of higher
degree keeps that factor in the report instead of sprouting fake
eigenvalues.

The first prime splits the subspace S by _split_block: T_p restricted to
S, and each block's characteristic polynomial, factored, and its primary
decomposition. Over Q the polynomial comes from residues
(linalg.charpoly_from_residues: charpoly modulo 62-bit primes, joined by
CRT), with its coefficients bounded through |eigenvalue of T_p| <=
1 + p^(k-1), which holds on cuspidal and Eisenstein symbols alike. The
primary decomposition certifies the result whatever the bound: when each
kernel of f(T_p)^e, over the irreducible factors f^e, has dimension
deg(f) * e and together they fill the block, the factors are exactly the
characteristic polynomial. A block that fails is split again with the
Fraction charpoly, and only a second failure is an internal error. Over
F_p charpoly alone is used. The kernels take no Fraction matrix product:
each is the end of a chain of left kernels of an integer multiple of
f(T_p) (_primary_parts).

A block B on which T_p is semisimple with an irreducible minimal
polynomial g of degree m is a vector space over its Hecke field
K = F[x]/(g), x acting as T_p (Stein, Modular Forms: A Computational
Approach, ch. 7 and 9). It keeps a _HeckeField: dim B / m cuspidal
generators, fewest nonzeros first, whose projections along the other
blocks (_Frame, the inverse of the stacked block bases) are a K-basis, so
their Krylov rows x T_p^i (i < m) are a basis of B, and one more generator
as a check. A later T_q commutes with T_p and is K-linear on B; where it is
a scalar a_q of K, it is read from the Hecke rows at those generators'
supports alone (_generator_images, _field_value): each image is expressed
in S, which raises IllDefinedMapError when it leaves S, projected onto B,
and solved for a_q in the Krylov basis. When every generator, the check
one included, gives the same a_q, B keeps its basis and diagonal flag and
records a_q, or its minimal polynomial when a_q is not in F; no charpoly,
factoring or kernel runs. A block that disagrees, a block without a field,
and every block at a prime whose blocks do not stack into a basis of S go
through _split_block at that prime, and the parts get their fields there.
At such a prime T_q is on all of S, and the blocks read from their fields
must be invariant under it too. So S- and block-invariance are checked in
full at the first prime and wherever a block is split; elsewhere the
membership of the images in S, the agreement of the generators and the
check generator stand in for them.

The hecke command's charpolys use charpoly(T) = charpoly(T|S) *
charpoly(T on V/S) for the invariant cuspidal subspace S, so each
Hessenberg runs on one block.
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
    matrix_rank,
)
from .modsym import cuspidal_subspace
from .rings import (ZZ, PrimeField, RationalField, UnsupportedRingError, is_prime,
                    multiplication_rows, poly_mul)
from .triangle import mat2_det, mat2_identity, mat2_inv_det_one, mat2_mul


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
    return poly_mul(coords.ring, on_sub, charpoly(on_quotient.matrix_on_generators())), on_sub


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


def _evaluate_at(ring, coeffs, mat):
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
    _evaluate_at(f, cmat), K = ker F is replaced by {x : x F in span K},
    which is ker F^(j+1) when K = ker F^j, while K is smaller than
    deg(f) * e and still grows. Passing both checks proves poly is the
    characteristic polynomial of cmat: the kernels lie in the generalized
    eigenspaces of the distinct f, which are independent, so each has
    dimension deg(f) * e and equals ker f(T_p)^e."""
    n, parts, consumed = cmat.nrows, [], 0
    for fc, e in _factor_monic(ring, poly):
        fmat = _evaluate_at(ring, fc, cmat)
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


def _split_block(ring, p, k, mp, block):
    """The primary parts of a block (basis, evs, facs, diag) under T_p,
    from the matrix mp of T_p on the subspace: the block restriction, which
    checks that T_p preserves it, then its charpoly, over Q from residues
    under the eigenvalue bound 1 + p^(k-1) and again as Fractions when
    the decomposition refuses those."""
    cmat = _restrict_to_block(ring, mp, block[0], name="T_%d" % p)
    parts = None
    if isinstance(ring, RationalField):
        n, r = cmat.nrows, 1 + p ** (k - 1)
        bound = max(comb(n, i) * r**i for i in range(n + 1))
        parts = _primary_parts(ring, p, cmat, charpoly_from_residues(cmat, bound), *block)
    if parts is None:
        parts = _primary_parts(ring, p, cmat, charpoly(cmat), *block)
    if parts is None:
        raise InternalInvariantError("primary components of T_%d do not fill the block" % p)
    return parts


def _eigenblocks(blocks, primes):
    """EigenBlocks of (basis, evs, facs, diag) blocks, sorted by their
    eigenvalue data prime by prime, then by dimension."""
    def key(blk):
        basis, evs, facs, _diag = blk
        parts = [(0, evs[p]) if p in evs else (1, len(facs[p]), facs[p]) for p in primes]
        return tuple(parts) + (basis.nrows,)

    return [EigenBlock(dim=b.nrows, basis=b, eigenvalues=e, factors=f, diagonal=d)
            for b, e, f, d in sorted(blocks, key=key)]


@dataclass(frozen=True)
class _HeckeField:
    """A block B on which T_p acts semisimply with an irreducible minimal
    polynomial g of degree m, read as a vector space over K = F[x]/(g), x
    acting as T_p: the projections x_t onto B of the cuspidal generators
    `gens` are a K-basis, so the Krylov rows x_t T_p^i (i < m) are a basis
    of B, prepared in `krylov`. The projection of one more generator,
    `check` (None when every generator is taken), has the Krylov
    coordinates `check_coords`."""

    poly: tuple
    gens: tuple
    krylov: RowBasis
    check: int | None
    check_coords: list


def _minpoly_mod(ring, a, g):
    """The minimal polynomial over F of a in F[x]/(g), monic, low to high.
    The powers 1, a, ..., a^m are stacked from a^m down, so the multiples
    x^i mu of the minimal polynomial mu span their left kernel, and mu,
    the one with the fewest leading zeros, is the last row of its reduced
    echelon basis."""
    if not any(a[1:]):
        return (ring.neg(a[0]), ring.one)
    mul, m = Matrix(ring, multiplication_rows(ring, a, g)), len(a)
    powers = [[ring.one] + [ring.zero] * (m - 1)]
    for _ in range(m):
        powers.append(mul.act_on_row(powers[-1]))
    last = left_kernel(Matrix(ring, powers[::-1], m)).rows[-1]
    d = m - next(i for i, x in enumerate(last) if x)
    return tuple(last[m - j] for j in range(d + 1))


class _Frame:
    """The blocks of a decomposition of the subspace, stacked into one
    basis: basis.express(v) are the coordinates of a subspace vector v on
    the stacked bases, v Pi for Pi the inverse of the stacked basis
    matrix, so their slice at spans[i] is the projection of v onto block i
    along the others, in the basis of block i. basis is None when the
    blocks do not stack into a basis of the subspace."""

    def __init__(self, ring, blocks, total):
        stacked = Matrix.from_sparse(ring, [r for b in blocks for r in b[0].sparse_rows()], total)
        self.basis = RowBasis(stacked)
        if stacked.nrows != total or self.basis.rank != total:
            self.basis = None
        self.ring, self.spans, self._units, at = ring, [], {}, 0
        for b in blocks:
            self.spans.append((at, at + b[0].nrows))
            at += b[0].nrows

    def unit(self, j):
        """The coordinates of cuspidal generator j, kept."""
        if j not in self._units:
            e = [self.ring.zero] * self.basis.mat.ncols
            e[j] = self.ring.one
            self._units[j] = self.basis.express(e)
        return self._units[j]

    def restrict(self, mp, basis, span):
        """The matrix, in the basis of the block at span, of the subspace
        operator mp on that block, or None when mp moves the block."""
        lo, hi = span
        rows = []
        for b in basis.rows:
            c = self.basis.express(mp.act_on_row(b))
            if any(c[:lo]) or any(c[hi:]):
                return None
            rows.append(c[lo:hi])
        return Matrix(self.ring, rows, hi - lo)


def _hecke_field(ring, p, mp, block, frame, span, order):
    """The _HeckeField of the block at `span` of the frame, from the
    factor g that it carries at the prime p and mp, T_p on the subspace,
    or None. Generators are tried in `order`. None when T_p moves the block
    (its images leave it in the frame) or g(T_p) is not zero on it."""
    basis, evs, facs, _diag = block
    g = facs[p] if p in facs else (ring.neg(evs[p]), ring.one)
    (lo, hi), m, n = span, len(g) - 1, basis.nrows
    M = frame.restrict(mp, basis, span)
    if M is None:
        return None
    gens, krylov, check = [], [], None
    for j in order:
        x = frame.unit(j)[lo:hi]
        if not any(x):
            continue
        if len(gens) * m == n:
            check = j
            break
        seq = [x]
        for _ in range(m):
            seq.append(M.act_on_row(seq[-1]))
        # x g(M) = 0 on rows x whose Krylov rows span the block is g(M) = 0
        if any(Matrix(ring, seq).act_on_row(list(g))):
            return None
        if matrix_rank(Matrix(ring, krylov + seq[:m], n)) == len(krylov) + m:
            gens.append(j)
            krylov += seq[:m]
    if len(gens) * m != n:
        return None
    krylov = RowBasis(Matrix(ring, krylov, n))
    coords = None if check is None else krylov.express(frame.unit(check)[lo:hi])
    return _HeckeField(tuple(g), tuple(gens), krylov, check, coords)


def _field_value(ring, field, images):
    """The coefficients of a_q in K, T_q = a_q(T_p) on the block of a
    _HeckeField, from images[j], the projections onto the block of the
    images of its generators j under T_q; None when a generator's image
    leaves its own K-line or the generators, the check one included,
    disagree."""
    m, a = len(field.poly) - 1, None
    for t, j in enumerate(field.gens):
        c = field.krylov.express(images[j])
        here = c[t * m:(t + 1) * m]
        if any(c[:t * m]) or any(c[(t + 1) * m:]) or (a is not None and here != a):
            return None
        a = here
    if field.check is not None:
        mul, x = Matrix(ring, multiplication_rows(ring, a, field.poly)), field.check_coords
        want = [y for t in range(len(field.gens)) for y in mul.act_on_row(x[t * m:(t + 1) * m])]
        if field.krylov.express(images[field.check]) != want:
            return None
    return a


def _generator_images(space, op, reduced, gens):
    """{j: image under op of cuspidal generator j, in subspace coordinates}
    for the generator indices gens, from the operator rows at the union
    of their supports only; IllDefinedMapError when one leaves the
    subspace. reduced is _generator_coordinates of the subspace."""
    ring, pres = space.ring, space.presentation
    coords, basis = reduced
    sparse = coords.sparse_rows()
    support = sorted({c for j in gens for c in sparse[j]})
    free = pres.free_generators()
    rows = Matrix(ring, op.rows_at([free[c] for c in support]), pres.ngens)
    at = {c: i for i, c in enumerate(support)}
    out = {}
    for j in gens:
        vec = [ring.zero] * len(support)
        for c, x in sparse[j].items():
            vec[at[c]] = x
        try:
            out[j] = basis.express(list(pres.reduce(rows.act_on_row(vec))))
        except NotInSpanError:
            raise IllDefinedMapError("operator does not preserve the subspace")
    return out


def eigensystem(space, primes, subspace=None):
    """Joint primary decomposition of the Hecke operators at the given
    primes, on the cuspidal subspace by default.

    Returns EigenBlocks sorted by their eigenvalue data. Every block is
    invariant under all the operators; a one-eigenvalue-per-prime block of
    dimension 2d corresponds to d copies of the plus/minus pair of a form.
    The first prime splits the subspace by _split_block; a block it leaves
    semisimple, with an irreducible polynomial, gets its _HeckeField, on
    which each later T_q is read as a scalar from the images of a few
    generators (_field_value). A block without one, or on which they
    disagree, goes through _split_block at that prime, and its parts get
    their fields there (see the module docstring)."""
    _require_eigen_space(space)
    ring = space.ring
    if subspace is None:
        subspace = cuspidal_subspace(space)
    total = subspace.ambient_rows.nrows
    if total == 0:
        return []
    reduced = _generator_coordinates(space.presentation, subspace)
    sparse = reduced[0].sparse_rows()
    order = sorted(range(total), key=lambda j: (len(sparse[j]), j))
    blocks, fields, frame = [(Matrix.identity(ring, total), {}, {}, True)], [None], None
    for p in primes:
        op, values = hecke_matrix(space, p), {}
        if any(fields):
            gens = sorted({j for f in fields if f for j in (*f.gens, f.check) if j is not None})
            images = {j: frame.basis.express(v) for j, v in _generator_images(space, op, reduced, gens).items()}
            for i, f in enumerate(fields):
                if f is not None:
                    lo, hi = frame.spans[i]
                    values[i] = _field_value(ring, f, {j: c[lo:hi] for j, c in images.items()})
        mp, refined, kept, changed = None, [], [], frame is None
        for i, block in enumerate(blocks):
            a = values.get(i)
            if a is not None:
                basis, evs, facs, diag = block
                evs, facs, f = dict(evs), dict(facs), _minpoly_mod(ring, a, fields[i].poly)
                if len(f) == 2:
                    evs[p] = ring.neg(f[0])
                else:
                    facs[p] = f
                refined.append((basis, evs, facs, diag))
                kept.append(fields[i])
                continue
            if mp is None:
                mp = _restrict_on_generators(op, *reduced)
            parts = _split_block(ring, p, space.weight.k, mp, block)
            changed = changed or len(parts) != 1 or parts[0][0] != block[0]
            refined += parts
            kept += [None] * len(parts)
        if mp is not None:
            # T_q is on the whole subspace here: check the blocks read
            # from their fields against it too
            for i in values:
                if values[i] is not None and frame.restrict(mp, blocks[i][0], frame.spans[i]) is None:
                    raise InternalInvariantError("T_%d does not preserve an eigenblock of dimension %d"
                                                 % (p, blocks[i][0].nrows))
        blocks, fields = refined, kept
        if changed:
            frame = _Frame(ring, blocks, total)
        if frame.basis is None:
            fields = [None] * len(blocks)
        elif mp is not None:
            fields = [f or _hecke_field(ring, p, mp, b, frame, frame.spans[i], order)
                      for i, (b, f) in enumerate(zip(blocks, fields))]
    return _eigenblocks(blocks, primes)


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
    and multiplicativity fills in the rest. Over Q a block that is not two
    copies of one Hecke module raises InternalInvariantError."""
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
    if isinstance(ring, RationalField):
        # the star involution splits S = S^+ (+) S^- with S^+ = S^- as Hecke
        # modules, so each block is two copies of one: its dimension is even
        # (as at an eigenvalue) and so is dim / deg f for every factor f
        for blk in blocks:
            for deg in [1] + [len(f) - 1 for f in blk.factors.values()]:
                if blk.dim % (2 * deg):
                    raise InternalInvariantError("an eigenblock of dimension %d is not two copies "
                                                 "of one (factor degree %d)" % (blk.dim, deg))
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
