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
of stabilizer-invariant coefficients at the elliptic classes.

Every piece is presented by linalg.subquotient (H^1 sets the relation
matrices of its two cyclic pieces side by side), and the integral
comparison kernel by linalg.lattice_quotient.

All presentations work over the integers (Smith normal form exposes the
torsion) and over the supported fields. The *_dimension helpers avoid the
transform-carrying eliminations and only count ranks; over the integers they
return the free rank.
"""

from dataclasses import dataclass

from .linalg import (
    FPMap,
    FPModule,
    IllDefinedMapError,
    Matrix,
    NotInSpanError,
    RowBasis,
    hermite_basis,
    lattice_quotient,
    left_kernel,
    matrix_rank,
    subquotient,
)
from .modsym import Subspace, boundary_space
from .rings import IntegerRing, UnsupportedRingError
from .weights import local_term


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


def _coboundary_rank(module):
    """Rank of [Ds | Dt], the coboundary map m -> (m(1 - sigma), m(1 - tau))."""
    return module.operator_rank(
        "Ds|Dt",
        lambda: module.right_difference("s").hstack(module.right_difference("t")),
    )


def h1_dimension(module):
    """dim H^1 by rank-nullity alone (free rank over the integers)."""
    rank = module.rank
    ks = rank - module.operator_rank("Ns", lambda: module.norm_matrix("s"))
    kt = rank - module.operator_rank("Nt", lambda: module.norm_matrix("t"))
    return ks + kt - _coboundary_rank(module)


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
    """dim of the parabolic part by rank-nullity alone.

    dim {w : w N_sigma = w N_tau = 0} minus dim of the coboundary image,
    the latter being dim M^T - dim M^G since a translation-fixed m gives
    the zero cocycle exactly when it is fixed by the whole group."""
    rank = module.rank
    r_dt = module.operator_rank("DT", lambda: module.right_difference("T"))
    r_norms = module.operator_rank(
        "Ns|Nt", lambda: module.norm_matrix("s").hstack(module.norm_matrix("t"))
    )
    return rank + r_dt - r_norms - _coboundary_rank(module)


# ---------------------------------------------------------------------------
# surface cohomology
# ---------------------------------------------------------------------------


def surface_h1(module):
    """First cohomology of the quotient surface: the module modulo the
    fixed subspaces of the two elliptic generators."""
    rel = module.fixed_vectors("s").stack(module.fixed_vectors("t"))
    return FPModule(module.ring, module.rank, rel)


def surface_h1_dimension(module):
    """dim of the surface cohomology by rank-nullity alone."""
    rs = module.operator_rank("Ds", lambda: module.right_difference("s"))
    rt = module.operator_rank("Dt", lambda: module.right_difference("t"))
    return rs + rt - _coboundary_rank(module)


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


def boundary_dimensions(module):
    """(boundary, Eisenstein) dimensions by rank-nullity alone.

    The boundary space is the module modulo the rows of DT = 1 - T, and
    the boundary map sends symbols there through Ds = 1 - sigma, so its
    image, the Eisenstein part, has dimension rank([Ds; DT]) - rank(DT).
    Over the integers these are the free ranks."""
    r_dt = module.operator_rank("DT", lambda: module.right_difference("T"))
    r_map = module.operator_rank(
        "Ds/DT",
        lambda: module.right_difference("s").stack(module.right_difference("T")),
    )
    return module.rank - r_dt, r_map - r_dt


def surface_h1_parabolic_dimension(module):
    """dim of the parabolic surface part by rank-nullity alone: the
    surface part minus the image of 1 - sigma in the boundary space."""
    return surface_h1_dimension(module) - boundary_dimensions(module)[1]


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

    def euler_sum(self):
        return (
            self.group_fixed
            - self.split_fixed
            + self.module_dim
            - self.h1_dim
            + self.cyclic_dim
        )


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
    coefficients so dimensions make sense."""
    ring = module.ring
    if not ring.is_field:
        raise UnsupportedRingError(
            "the exact sequence report needs field coefficients"
        )
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

    def local_dimension_total(self):
        return sum(term.dim() for term in self.local_terms)


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
    against the elliptic classes: each stabilizer-invariant coefficient v at
    an elliptic class yields an orbit sum over the class cycle, which is a
    generator-fixed vector, hence dies on the surface; the span of these
    classes sits inside the kernel and local terms of size V^h / N_h V bound
    the contribution of each class.

    Over the integers the kernel is the lattice quotient L_surf / L_sym,
    the rows the identity map's FPMap.kernel gives; its solve checks that
    each symbol relation is a surface relation."""
    module = symbols.module
    ring = module.ring
    classes = module.cosets.subgroup.elliptic_classes()
    actions = [module.stabilizer_action(cls) for cls in classes]
    local_terms = tuple(local_term(ring, act, cls.order) for cls, act in zip(classes, actions))

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
    coords = [list(symbols.presentation.reduce(row)) for row in _orbit_sums(module, classes, actions)]
    local_span = matrix_rank(Matrix(ring, coords, symbols.presentation.ncoords())) if coords else 0
    if kdim == local_span:
        verdict = "kernel spanned by elliptic orbit sums"
    else:
        verdict = "kernel not spanned by elliptic orbit sums"
    return ComparisonReport(kernel, kernel_gens, local_terms, local_span, verdict)


def _orbit_sums(module, classes, actions):
    """The orbit sum over its class cycle of each stabilizer-invariant
    coefficient at each elliptic class, as ambient rows."""
    ring, blk = module.ring, module.block
    ident = Matrix.identity(ring, blk)
    out = []
    for cls, act in zip(classes, actions):
        invariants = left_kernel(act.sub(ident))
        step = module.right_matrix("s" if cls.kind == "sigma" else "t").act_on_row
        for v in invariants.rows:
            cur = [ring.zero] * module.rank
            cur[cls.coset * blk : (cls.coset + 1) * blk] = list(v)
            total = list(cur)
            for _ in range(cls.power - 1):
                cur = step(cur)
                total = [ring.add(a, b) for a, b in zip(total, cur)]
            out.append(total)
    return out
