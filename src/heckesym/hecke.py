"""Hecke operators, eigensystems, and q-expansion coefficients.

Operators come from the double-coset construction on modular symbols: a
determinant-p integer matrix delta carries the path symbol
{alpha, beta} (x) v to {delta.alpha, delta.beta} (x) delta.v, and T_p sums
this over left coset representatives of the determinant-p matrices that are
upper triangular with top-left entry 1 mod the level. Each translated path
is cut back into unimodular segments by continued fractions, so the whole
operator assembles from the same cocycles that define the space. The
adjugate weight action is multiplicative in any determinant, which is what
makes the sum independent of the choice of representatives.

Callers over a field read only the rows of an operator at the free
generators of the presentation, so an operator assembles its ambient rows
when they are first read, one batch per read, and keeps them; its .ambient
matrix is built in full on first access.

Eigenvalue extraction factors characteristic polynomials over the base
field (the rationals or a prime field) and refines joint invariant blocks
prime by prime. Scalars are never extended silently: a block whose
polynomial has an irreducible factor of higher degree keeps that factor in
the report instead of sprouting fake eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .congruence import (
    continued_fraction_path,
    diamond_matrix,
    hecke_representatives,
    require_congruence,
    segment_endpoints,
)
from .linalg import (
    FPMap,
    IllDefinedMapError,
    InternalInvariantError,
    Matrix,
    NotInSpanError,
    RowBasis,
    charpoly,
    left_kernel,
)
from .modsym import cuspidal_subspace
from .rings import ZZ, PrimeField, RationalField, UnsupportedRingError, is_prime
from .triangle import mat2_det, mat2_mul


def sturm_bound(space):
    """Index n past which eigenform coefficients are determined: one more
    than weight * index / 12, with the index taken projectively."""
    return space.weight.k * space.cosets.mu // 12 + 1


def _double_coset_reps(cosets, p):
    """Left coset representatives for T_p (p prime to the level: p + 1 of
    them) or U_p (p dividing the level: p of them).

    The representative with lower row (0, 1) is corrected on the left by a
    determinant-one lift of diag(1/p, p), which lands it in the matrices
    congruent to [[1, *], [0, p]] mod N. For the P^1-labelled cosets the
    correction is an element of the subgroup and changes nothing; for the
    (c, d)-pair cosets it is exactly what makes the sum well defined in odd
    weight, and it builds the diamond twist into the last summand."""
    reps = list(hecke_representatives(p, cosets.N))
    if len(reps) == p + 1:
        reps[-1] = mat2_mul(ZZ, diamond_matrix(p, cosets.N), reps[-1])
    return reps


def _operator_rows(space, reps, rows):
    """Ambient images of the given induced-module coordinates under the
    operator that sends each coset generator through every representative,
    as {row: dense image row}. The full ambient matrix is this with every
    row.

    Only the cosets that own a requested row are cut into unimodular
    segments, once per representative. A segment contributes the requested
    rows a of its block A_delta A_gamma alone, each as row a of A_delta
    times A_gamma, so no full block product is formed. Over Q the rows are
    summed on ints and become Fractions once, when finished."""
    cosets = space.cosets
    ring = space.ring
    weight = space.weight
    blk = space.module.block
    work, action = ring, weight.action_matrix
    if isinstance(ring, RationalField):
        # integer matrices act integrally: their integer forms have d = 1
        work, action = ZZ, lambda g: weight.action_matrix(g).integer_form()[0]
    add, sub = work.add, work.sub
    out = {r: [work.zero] * space.module.rank for r in rows}
    owned = {}
    for r in sorted(out):
        owned.setdefault(r // blk, []).append(r % blk)
    for delta in reps:
        delta_rows = action(delta).rows
        # the lifts have determinant one, so m below is unimodular iff delta is
        unimodular = mat2_det(ZZ, delta) == 1
        for i, offsets in owned.items():
            m = mat2_mul(ZZ, delta, cosets.lifts[i])
            if unimodular:
                segments = [(m, 1)]
            else:
                segments = continued_fraction_path(*segment_endpoints(m))
            for seg, sign in segments:
                j, gamma = cosets.symbol_cocycle(seg)
                act = action(gamma).act_on_row
                op = add if sign == 1 else sub
                lo, hi = j * blk, (j + 1) * blk
                for a in offsets:
                    dest = out[i * blk + a]
                    piece = act(delta_rows[a])
                    dest[lo:hi] = [op(x, y) for x, y in zip(dest[lo:hi], piece)]
    if work is not ring:
        out = {r: ring.from_numerators(row) for r, row in out.items()}
    return out


class LazyOperator(FPMap):
    """A Hecke or diamond operator as a self-map of the symbol space, with
    its ambient rows assembled on first read and kept.

    Every read goes through rows_at, which builds the missing rows in one
    batch; .ambient assembles all of them on first access. With check=True
    the full operator is verified against the relations at construction."""

    def __init__(self, space, reps, check=False):
        self.src = self.dst = space.presentation
        self._space = space
        self._reps = reps
        self._rows = {}
        if check:
            FPMap(self.src, self.dst, self.ambient, check=True)

    def rows_at(self, indices):
        missing = sorted({r for r in indices if r not in self._rows})
        if missing:
            self._rows.update(_operator_rows(self._space, self._reps, missing))
        return [self._rows[r] for r in indices]

    @cached_property
    def ambient(self):
        ngens = self.src.ngens
        return Matrix(self.src.ring, self.rows_at(range(ngens)), ngens)


def hecke_matrix(space, p, check=False):
    """The Hecke operator at a prime p as a self-map of the symbol space.

    Well-definedness on the quotient is the usual double-coset argument:
    right multiplication by a subgroup element permutes the representatives
    up to subgroup factors on the left, and those factors stay in the
    normalized cocycle range. Pass check=True to re-verify that the norm
    relations map into the relation span.

    The result is a LazyOperator: ambient rows are assembled when first
    read (matrix_on_generators and restrict_operator read only the rows at
    the free generators), and .ambient builds the full matrix on demand."""
    require_congruence(space.cosets, "Hecke operators")
    if not is_prime(p):
        raise ValueError("Hecke operators are indexed by primes, got %r" % (p,))
    return LazyOperator(space, _double_coset_reps(space.cosets, p), check=check)


def diamond_operator(space, d, check=False):
    """Left translation by a determinant-one lift of diag(1/d, d) mod N.

    On P^1-labelled cosets this is the identity; on (c, d)-pair cosets it
    permutes the classes and twists the coefficients, and in odd weight
    d = -1 acts as minus the identity. Like hecke_matrix, it returns a
    LazyOperator whose rows are assembled on first read."""
    require_congruence(space.cosets, "Hecke operators")
    return LazyOperator(space, [diamond_matrix(d, space.cosets.N)], check=check)


def restrict_operator(operator, subspace):
    """Square matrix of an operator on an invariant subspace, rows indexed
    by the subspace generators in their own coordinates; IllDefinedMapError
    when the operator does not preserve the subspace.

    Over a field it runs in the free-generator coordinates of the
    presentation: the subspace generators are reduced once to canonical
    coordinates C, and G = matrix_on_generators acts on them through
    _restrict_to_block, the routine eigensystem applies to its blocks. That
    is exact, because the operator maps relations into relations, so
    reducing an ambient image v * A gives reduce(v) * G. Over Z each
    ambient image is expressed in the lattice the generators span with the
    relations; its generator part is unique when the generators are
    independent modulo the relations."""
    gens = subspace.ambient_rows
    src = operator.src
    try:
        if src.ring.is_field:
            coords = Matrix(src.ring, [list(src.reduce(g)) for g in gens.rows], src.ncoords())
            return _restrict_to_block(src.ring, operator.matrix_on_generators(), coords)
        basis = RowBasis(gens.stack(src.relations))
        images = gens.mul(operator.ambient).rows
        return Matrix(src.ring, [basis.express(v)[: gens.nrows] for v in images], gens.nrows)
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
    """Evaluate a polynomial (coefficients low->high) at a square matrix.

    Horner's rule from c_d mat + c_(d-1), so a linear factor takes no
    matrix product."""
    ident = Matrix.identity(ring, mat.nrows)
    if len(coeffs) == 1:
        return ident.scale(coeffs[0])
    out = mat.scale(coeffs[-1]).add(ident.scale(coeffs[-2]))
    for c in reversed(coeffs[:-2]):
        out = out.mul(mat).add(ident.scale(c))
    return out


def _restrict_to_block(ring, mat, basis):
    """Matrix of `mat` on the span of `basis` rows, in basis coordinates."""
    rb = RowBasis(basis)
    rows = [rb.express(mat.act_on_row(row)) for row in basis.rows]
    return Matrix(ring, rows, basis.nrows)


def eigensystem(space, primes, subspace=None):
    """Joint primary decomposition of the Hecke operators at the given
    primes, on the cuspidal subspace by default.

    Returns EigenBlocks sorted by their eigenvalue data. Every block is
    invariant under all the operators; a one-eigenvalue-per-prime block of
    dimension 2d corresponds to d copies of the plus/minus pair of a form."""
    require_congruence(space.cosets, "Hecke operators")
    ring = space.ring
    if not isinstance(ring, (RationalField, PrimeField)):
        raise UnsupportedRingError(
            "eigensystems need rational or prime-field coefficients"
        )
    if subspace is None:
        subspace = cuspidal_subspace(space)
    total = subspace.ambient_rows.nrows
    if total == 0:
        return []
    blocks = [(Matrix.identity(ring, total), {}, {}, True)]
    for p in primes:
        mp = restrict_operator(hecke_matrix(space, p), subspace)
        refined = []
        for basis, evs, facs, diag in blocks:
            cmat = _restrict_to_block(ring, mp, basis)
            consumed = 0
            for fc, e in _factor_monic(ring, charpoly(cmat)):
                fmat = _poly_apply(ring, fc, cmat)
                power = fmat
                for _ in range(e - 1):
                    power = power.mul(fmat)
                rows = left_kernel(power)
                if rows.nrows != (len(fc) - 1) * e:
                    raise InternalInvariantError(
                        "primary component dimension mismatch"
                    )
                consumed += rows.nrows
                evs2, facs2, diag2 = dict(evs), dict(facs), diag
                if len(fc) == 2:
                    evs2[p] = ring.neg(fc[0])
                    if e > 1 and left_kernel(fmat).nrows != rows.nrows:
                        diag2 = False
                else:
                    facs2[p] = tuple(fc)
                refined.append((rows.mul(basis), evs2, facs2, diag2))
            if consumed != basis.nrows:
                raise InternalInvariantError("primary components do not fill the block")
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


def qexpansions(space, bound, subspace=None):
    """Eigenform coefficient lists on the cuspidal subspace (by default).

    Primes up to max(bound, sturm_bound) drive the eigensystem, so blocks
    are separated as finely as rational eigenvalues allow; coefficients at
    prime powers follow the weight-k recurrence with the diamond character,
    and multiplicativity fills in the rest."""
    require_congruence(space.cosets, "Hecke operators")
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    ring = space.ring
    k = space.weight.k
    N = space.cosets.N
    if subspace is None:
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
                    cmat = _restrict_to_block(ring, diamond_cache[p], blk.basis)
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
