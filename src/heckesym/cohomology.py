"""Group and surface cohomology for induced coefficient modules.

The acting group is generated by an involution sigma and an order-n element
tau with no further relations, so a 1-cocycle is determined by its values on
the two generators, and the only constraints are the generator norms. First
cohomology therefore reduces to linear algebra over the coefficient ring:
kernels of norm matrices modulo simultaneous differences. This module
computes the group cohomology, its parabolic part (classes vanishing on the
translation T = tau sigma), cyclic pieces for each generator, the cohomology
of the quotient surface via coinvariants with its own parabolic part, a
six-term exact sequence tying the pieces together, and the comparison map
from modular symbols to the surface, whose kernel is spanned by orbit sums
of stabilizer-invariant coefficients at the elliptic classes, the sigma
and tau orbits of InducedModule.orbits shorter than the generator's order.

Every piece is presented by linalg.subquotient (H^1 sets the relation
matrices of its two cyclic pieces side by side), and the integral
comparison kernel by linalg.lattice_quotient.

All presentations work over the integers (Smith normal form exposes the
torsion) and over the supported fields.

The *_dimension helpers read dimension_report, which sums the local data
each InducedModule.orbits orbit keeps (V^H, and V^H / N_H V at the elliptic
classes), and counts M^G and M_G by the module's shapiro_walk. Where the
characteristic divides an elliptic order a generator norm may not split,
and two ranks of the norms stand in; otherwise no operator of the whole
module is built. Over the integers every number is the free rank.

Over Q(2cos(pi/n)) mayer_vietoris reads its report from the sequence over
one split prime P > 2^31, certified by dimension_report's five dimensions.
"""

from dataclasses import dataclass
from functools import lru_cache

from .linalg import (
    FPMap,
    FPModule,
    IllDefinedMapError,
    InternalInvariantError,
    Matrix,
    NotInSpanError,
    RowBasis,
    hermite_basis,
    lattice_quotient,
    left_kernel,
    matrix_rank,
    subquotient,
)
from .modsym import InducedModule, Subspace, boundary_space
from .rings import GF, IntegerRing, QuotientExtension, UnsupportedRingError, is_prime
from .triangle import lambda_roots_mod_p
from .weights import WeightModule


# ---------------------------------------------------------------------------
# group cohomology
# ---------------------------------------------------------------------------


def cyclic_h1(module, letter):
    """First cohomology of the cyclic subgroup generated by one elliptic
    generator: vectors killed by its norm, modulo differences m (1 - g)."""
    return subquotient(module.norm_kernel(letter), module.right_difference(letter))


def _cocycle_presentation(module):
    """(H^1 of <sigma>, H^1 of <tau>, H^1 of the group). H^1 has the
    generators of both cyclic pieces, and each module vector m contributes
    the coboundary (m(1 - sigma), m(1 - tau)): its two cyclic relations."""
    cs, ct = cyclic_h1(module, "s"), cyclic_h1(module, "t")
    rel = cs.relations.hstack(ct.relations)
    return cs, ct, FPModule(module.ring, rel.ncols, rel)


def h1(module):
    """First cohomology of the full group with coefficients in the module."""
    return _cocycle_presentation(module)[2]


def h1_dimension(module):
    """dim H^1 (free rank over the integers), from the dimension report."""
    return dimension_report(module).h1


def h1_parabolic(module):
    """Classes of cocycles vanishing on the translation.

    A cocycle with u(T) = 0 is determined by w = u(tau) alone, and the two
    norm constraints become w N_sigma = w N_tau = 0. Coboundaries with
    u(T) = 0 come from translation-fixed module vectors m, contributing
    w = m(1 - tau). Two such cocycles congruent in H^1 are congruent here,
    so this presents an honest subobject of H^1."""
    P = left_kernel(module.norm_matrix("s").hstack(module.norm_matrix("t")))
    return subquotient(P, module.fixed_vectors("T").mul(module.right_difference("t")))


def h1_parabolic_dimension(module):
    """dim of the parabolic part, from the dimension report."""
    return dimension_report(module).h1_par


# ---------------------------------------------------------------------------
# surface cohomology
# ---------------------------------------------------------------------------


def surface_h1(module):
    """First cohomology of the quotient surface: the module modulo the
    fixed subspaces of the two elliptic generators."""
    rel = module.fixed_vectors("s").stack(module.fixed_vectors("t"))
    return FPModule(module.ring, module.rank, rel)


def surface_h1_dimension(module):
    """dim of the surface cohomology, from the dimension report."""
    return dimension_report(module).surface_h1


def surface_h1_parabolic(module):
    """Kernel of the map from surface cohomology to the translation
    coinvariants induced by 1 - sigma.

    The map is well defined without further checks: a sigma-fixed vector
    maps to zero outright, and a tau-fixed m has m(1 - sigma) =
    m(1 - tau sigma), a translation relation."""
    target = boundary_space(module).presentation
    fmap = FPMap(surface_h1(module), target, module.right_difference("s"), check=False)
    mod, gens = fmap.kernel()
    return Subspace(mod, gens)


def surface_h1_parabolic_dimension(module):
    """dim of the parabolic surface part, from the dimension report."""
    return dimension_report(module).surface_h1_par


# ---------------------------------------------------------------------------
# dimensions from local terms
# ---------------------------------------------------------------------------

DIMENSIONS = ("manin", "cuspidal", "eisenstein", "boundary", "h1", "h1_par",
              "surface_h1", "surface_h1_par")


@dataclass(frozen=True)
class DimensionReport:
    """The DIMENSIONS of an induced module M (free ranks over the integers)
    and the local quantities they come from: fixed = (dim M^sigma,
    dim M^tau, dim M^T), norm_ranks = the ranks of the two generator norms,
    invariants = dim M^G, coinvariants = dim M_G, and split, whether each
    generator norm maps onto the vectors its generator fixes."""

    fixed: tuple
    norm_ranks: tuple
    invariants: int
    coinvariants: int
    split: bool
    manin: int
    cuspidal: int
    eisenstein: int
    boundary: int
    h1: int
    h1_par: int
    surface_h1: int
    surface_h1_par: int


def dimension_report(module):
    """Every dimension the dims helpers read, cached on the module.

    With R = rank M and f_g = dim M^g, in any characteristic: boundary = f_T
    and eisenstein = f_T - dim M_G, the image of 1 - sigma in M / M(1 - T)
    being M modulo the augmentation M(1 - sigma) + M(1 - tau); surface_h1 =
    R - f_s - f_t + dim M^G, from M^sigma meeting M^tau in M^G; and by the
    six-term sequence of the free product, h1 = R - rank N_s - rank N_t +
    dim M^G. When each norm N_g maps onto M^g (split), its kernel is M(1 - g),
    so manin = h1 and h1_par = R - f_s - f_t - f_T + dim M_G + dim M^G;
    otherwise (characteristic p dividing an elliptic order) these two take
    one rank each of the stacked and of the side-by-side norms."""
    return module.cached("dims", lambda: _dimension_report(module))


def _dimension_report(module):
    R, d = module.rank, module.block
    (f_s, n_s), (f_t, n_t) = (_letter_terms(module, letter) for letter in "st")
    if d == 1:  # V is trivial: each cycle of T adds 1, and V^Gamma = V_Gamma = V
        f_T, inv, coinv = len(module.cosets.subgroup.cusp_classes()), 1, 1
    else:
        f_T = sum(orbit.fixed.nrows for orbit in module.orbits("T"))
        inv, coinv = module.group_fixed_vectors().nrows, module.shapiro_walk(True)[0].nrows
    split = n_s == f_s and n_t == f_t
    h1 = R - n_s - n_t + inv
    if split:
        manin, h1_par = h1, R - f_s - f_t - f_T + coinv + inv
    else:
        ns, nt = module.norm_matrix("s"), module.norm_matrix("t")
        manin = R - matrix_rank(ns.stack(nt))
        h1_par = R - f_T - matrix_rank(ns.hstack(nt)) + inv
    eisenstein = f_T - coinv
    surface = R - f_s - f_t + inv
    report = DimensionReport(
        fixed=(f_s, f_t, f_T), norm_ranks=(n_s, n_t), invariants=inv, coinvariants=coinv,
        split=split, manin=manin, cuspidal=manin - eisenstein, eisenstein=eisenstein,
        boundary=f_T, h1=h1, h1_par=h1_par, surface_h1=surface,
        surface_h1_par=surface - eisenstein)
    for ok, check in ((inv <= min(f_s, f_t, f_T, d), "dim M^G <= dim M^sigma, M^tau, M^T, V"),
                      (coinv <= d, "dim M_G <= dim V"),
                      (0 <= eisenstein <= f_T, "0 <= eisenstein <= boundary"),
                      (report.cuspidal >= 0, "cuspidal >= 0")):
        if not ok:
            raise InternalInvariantError("dimension report: %s fails" % check)
    return report


def _letter_terms(module, letter):
    """(dim M^g, rank N_g) for g = sigma or tau, summed over its orbits. An
    orbit is induced from the stabilizer <H> of its least coset, H of order
    m, so it adds dim V^H and rank N_H. A full orbit (m = 1) has H = 1 and
    adds d to both; the others are the elliptic classes of g. N_H is m on
    V^H, into which it maps, so it maps onto V^H unless the characteristic
    divides m; then the local term V^H / N_H V falls short."""
    ring = module.ring
    fixed = rank = 0
    for orbit in module.orbits(letter):
        f = orbit.fixed.nrows if orbit.order > 1 else module.block
        fixed, rank = fixed + f, rank + f
        if orbit.order > 1 and ring.is_zero(ring.of_int(orbit.order)):
            rank -= orbit.local_term.dim()
    return fixed, rank


# ---------------------------------------------------------------------------
# the six-term exact sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SixTermReport:
    """Dimensions, map ranks and exactness verdicts for the sequence

    0 -> M^G -> M^sigma + M^tau -> M -> H^1(G, M)
      -> H^1(<sigma>, M) + H^1(<tau>, M) -> 0
    """

    group_fixed: int
    split_fixed: int
    module_dim: int
    h1_dim: int
    cyclic_dim: int
    map_ranks: tuple
    compositions_vanish: bool
    exact: bool

    def dimensions(self):
        return (self.group_fixed, self.split_fixed, self.module_dim, self.h1_dim, self.cyclic_dim)

    def euler_sum(self):
        t1, t2, t3, t4, t5 = self.dimensions()
        return t1 - t2 + t3 - t4 + t5


def _zero_composite(f, g):
    """Whether the composite of two presented maps kills every generator.

    Each generator row goes through f's ambient matrix and then g's, which
    by associativity is the same check as through their product, without
    forming the product."""
    gens = f.src.generator_ambient_rows()
    return all(
        g.dst.is_zero_element(g.ambient.act_on_row(f.ambient.act_on_row(row)))
        for row in gens.rows
    )


def mayer_vietoris(module):
    """Verified six-term exact sequence for the free-product action.

    Builds the five maps explicitly (inclusion of group-fixed vectors,
    difference of the two fixed subspaces, connecting map into cocycle
    coordinates, restriction to the cyclic pieces), then certifies
    exactness with rank counts plus vanishing composites. Needs field
    coefficients so dimensions make sense.

    Over K = Q(lambda) the sequence is first built on the sibling module
    over F_P, P the split prime of _split_prime, and that report is
    returned when it is exact with the five dimensions that
    dimension_report gives over K. The certificate: over any field the
    ranks of an exact six-term sequence are fixed by its five dimensions,
    and the sequence over K is exact (Brown, Cohomology of Groups, II.7 and
    III.5). Each dimension mod P is at least its K value, the F_P module
    being the reduction of the Z[lambda]-lattice at the degree-one prime
    (P, lambda - r), so a prime where the reduction drops a rank shows up
    as a mismatch, and then the sequence is built over K itself."""
    ring = module.ring
    if not ring.is_field:
        raise UnsupportedRingError(
            "the exact sequence report needs field coefficients"
        )
    if isinstance(ring, QuotientExtension):
        local = dimension_report(module)
        (f_s, f_t, _), (n_s, n_t) = local.fixed, local.norm_ranks
        dims = (local.invariants, f_s + f_t, module.rank, local.h1, f_s - n_s + f_t - n_t)
        w = module.weight
        fp = WeightModule(GF(_split_prime(w.n)), w.k, w.variant, w.n)
        report = _six_term(InducedModule(module.cosets, fp))
        if report.exact and report.dimensions() == dims:
            return report
    return _six_term(module)


@lru_cache(maxsize=None)
def _split_prime(n):
    """The least prime above 2^31 at which the minimal polynomial of
    lambda = 2cos(pi/n) has a root, so that lambda -> root maps Z[lambda]
    onto F_P."""
    P = 2**31 + 1
    while not (is_prime(P) and lambda_roots_mod_p(n, P)):
        P += 2
    return P


def _six_term(module):
    """The six-term report built and checked over the module's own ring."""
    ring = module.ring
    fs = module.fixed_vectors("s")
    ft = module.fixed_vectors("t")
    fg = module.group_fixed_vectors()
    cs, ct, h = _cocycle_presentation(module)
    zs, zt = (Matrix.from_sparse(ring, [{} for _ in range(module.rank)], k) for k in (cs.ngens, ct.ngens))
    # the connecting map sends m to its sigma relation row
    to_sigma = cs.relations.hstack(zt)
    free_fixed = FPModule(ring, fg.nrows)
    split = FPModule(ring, fs.nrows + ft.nrows)
    whole = FPModule(ring, module.rank)
    cyclic = FPModule(ring, h.ngens, to_sigma.stack(zs.hstack(ct.relations)))

    bfs, bft = RowBasis(fs), RowBasis(ft)
    include = FPMap(
        free_fixed,
        split,
        Matrix(ring, [bfs.express(v) + bft.express(v) for v in fg.rows], split.ngens),
        check=True,
    )
    difference = FPMap(split, whole, fs.stack(ft.neg()), check=True)
    connect = FPMap(whole, h, to_sigma, check=True)
    restrict = FPMap(h, cyclic, Matrix.identity(ring, h.ngens), check=True)

    t1, t2, t3 = fg.nrows, fs.nrows + ft.nrows, module.rank
    t4, t5 = h.dim(), cyclic.dim()
    ranks = (include.rank(), difference.rank(), connect.rank(), restrict.rank())
    comps = (
        _zero_composite(include, difference)
        and _zero_composite(difference, connect)
        and _zero_composite(connect, restrict)
    )
    exact = (
        comps
        and ranks[0] == t1
        and ranks[0] + ranks[1] == t2
        and ranks[1] + ranks[2] == t3
        and ranks[2] + ranks[3] == t4
        and ranks[3] == t5
    )
    return SixTermReport(t1, t2, t3, t4, t5, ranks, comps, exact)


# ---------------------------------------------------------------------------
# comparison of modular symbols with the surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Kernel of the identity-on-ambient map from the symbol presentation
    onto surface cohomology, with the elliptic data explaining it."""

    kernel: FPModule
    kernel_gens: Matrix
    local_terms: tuple
    local_span: object  # int over a field, None over the integers
    verdict: str


def _kills(row, mat):
    """Whether a {column: value} row vector times mat is zero."""
    vec = [mat.ring.zero] * mat.nrows
    for i, v in row.items():
        vec[i] = v
    return all(map(mat.ring.is_zero, mat.act_on_row(vec)))


def comparison_report(symbols):
    """Compare the modular symbol quotient with the surface cohomology.

    Both are quotients of the same induced module (by norm relations and by
    fixed subspaces respectively), and every norm row is a fixed vector, so
    the identity induces a well-defined surjection. Its kernel is measured
    against the elliptic classes (_elliptic_orbits): each v fixed by the
    stabilizer block H of a class yields an orbit sum, v spread around the
    orbit, which is a generator-fixed vector, hence dies on the surface; the
    span of these sums sits inside the kernel and local terms of size
    V^H / N_H V bound the contribution of each class.

    Over the integers the kernel is the lattice quotient L_surf / L_sym,
    the rows the identity map's FPMap.kernel gives; its solve checks that
    each symbol relation is a surface relation."""
    module = symbols.module
    ring = module.ring
    elliptic = _elliptic_orbits(module)
    local_terms = tuple(orbit.local_term for orbit in elliptic)

    if isinstance(ring, IntegerRing):
        gens = hermite_basis(surface_h1(module).relations)
        try:
            kernel = lattice_quotient(gens, symbols.presentation.relations)
        except NotInSpanError:
            raise IllDefinedMapError("source relation does not map into target relations") from None
        verdict = ("kernel has free part" if kernel.rank() else
                   "torsion kernel" if kernel.torsion() else "isomorphic")
        return ComparisonReport(kernel, gens, local_terms, None, verdict)

    # a symbol relation lies in the surface relations, the saturated kernels
    # of D_sigma and D_tau, when one of them kills it
    ds, dt = module.right_difference("s"), module.right_difference("t")
    for row in symbols.presentation.relations.sparse_rows():
        if not (_kills(row, ds) or _kills(row, dt)):
            raise IllDefinedMapError("source relation does not map into target relations")
    to_surface = FPMap(
        symbols.presentation, surface_h1(module), Matrix.identity(ring, module.rank), check=False
    )
    kernel, kernel_gens = to_surface.kernel()
    kdim = kernel.dim()
    if kdim == 0:
        # the orbit sums lie in the kernel, so they span nothing either
        return ComparisonReport(kernel, kernel_gens, local_terms, 0, "isomorphic")
    coords = [list(symbols.presentation.reduce(row)) for row in _orbit_sums(module, elliptic)]
    local_span = matrix_rank(Matrix(ring, coords, symbols.presentation.ncoords())) if coords else 0
    if kdim == local_span:
        verdict = "kernel spanned by elliptic orbit sums"
    else:
        verdict = "kernel not spanned by elliptic orbit sums"
    return ComparisonReport(kernel, kernel_gens, local_terms, local_span, verdict)


def _elliptic_orbits(module):
    """The elliptic classes, in the order of elliptic_classes(): the sigma,
    then the tau orbits whose stabilizer block has order m > 1, by least
    coset."""
    return [orbit for letter in "st" for orbit in module.orbits(letter) if orbit.order > 1]


def _orbit_sums(module, elliptic):
    """The orbit sums of the vectors each elliptic stabilizer block fixes,
    as dense ambient rows."""
    rows = [row for orbit in elliptic for row in module.spread(orbit, orbit.fixed)]
    return Matrix.from_sparse(module.ring, rows, module.rank).rows
