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

All presentations work over the integers (Smith normal form exposes the
torsion) and over the supported fields. The *_dimension helpers avoid the
transform-carrying eliminations and only count ranks; over the integers they
return the free rank.
"""

from dataclasses import dataclass

from .linalg import (
    FPMap,
    FPModule,
    Matrix,
    RowBasis,
    left_kernel,
    matrix_rank,
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
    kernel = module.norm_kernel(letter)
    basis = RowBasis(kernel)
    diff = module.right_difference(letter)
    rel = Matrix(module.ring, [basis.express(row) for row in diff.rows], kernel.nrows)
    return FPModule(module.ring, kernel.nrows, rel)


def _cocycle_presentation(module):
    """(sigma-value basis, tau-value basis, presentation of H^1).

    Generators are coordinates on ker(N_sigma) + ker(N_tau); each module
    vector m contributes the relation (m(1 - sigma), m(1 - tau)), the
    coboundary it generates."""
    ks = module.norm_kernel("s")
    kt = module.norm_kernel("t")
    bs, bt = RowBasis(ks), RowBasis(kt)
    ds = module.right_difference("s")
    dt = module.right_difference("t")
    rows = [
        bs.express(ds.rows[r]) + bt.express(dt.rows[r]) for r in range(module.rank)
    ]
    ngens = ks.nrows + kt.nrows
    pres = FPModule(module.ring, ngens, Matrix(module.ring, rows, ngens))
    return bs, bt, pres


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
    basis = RowBasis(P)
    dt = module.right_difference("t")
    fixed = module.fixed_vectors("T")
    rows = [basis.express(dt.act_on_row(list(m))) for m in fixed.rows]
    return FPModule(module.ring, P.nrows, Matrix(module.ring, rows, P.nrows))


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


def surface_h1_parabolic(module, surface=None):
    """Kernel of the map from surface cohomology to the translation
    coinvariants induced by 1 - sigma.

    The map is well defined without further checks: a sigma-fixed vector
    maps to zero outright, and a tau-fixed m has m(1 - sigma) =
    m(1 - tau sigma), a translation relation."""
    if surface is None:
        surface = surface_h1(module)
    target = boundary_space(module).presentation
    fmap = FPMap(surface, target, module.right_difference("s"), check=False)
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
    bs, bt, h = _cocycle_presentation(module)
    ks, kt = bs.mat.nrows, bt.mat.nrows
    ds = module.right_difference("s")
    dt = module.right_difference("t")
    zero = ring.zero

    free_fixed = FPModule(ring, fg.nrows)
    split = FPModule(ring, fs.nrows + ft.nrows)
    whole = FPModule(ring, module.rank)
    cyc_rows = [bs.express(row) + [zero] * kt for row in ds.rows]
    cyc_rows += [[zero] * ks + bt.express(row) for row in dt.rows]
    cyclic = FPModule(ring, ks + kt, Matrix(ring, cyc_rows, ks + kt))

    bfs, bft = RowBasis(fs), RowBasis(ft)
    include = FPMap(
        free_fixed,
        split,
        Matrix(ring, [bfs.express(v) + bft.express(v) for v in fg.rows], split.ngens),
        check=True,
    )
    difference = FPMap(split, whole, fs.stack(ft.neg()), check=True)
    connect = FPMap(
        whole,
        h,
        Matrix(
            ring,
            [bs.express(ds.rows[r]) + [zero] * kt for r in range(module.rank)],
            h.ngens,
        ),
        check=True,
    )
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
    """Identity-on-ambient map from the symbol presentation onto surface
    cohomology, with its kernel and the elliptic data explaining it."""

    to_surface: FPMap
    kernel: FPModule
    kernel_gens: Matrix
    local_terms: tuple
    local_span: object  # int over a field, None over the integers
    verdict: str

    def local_dimension_total(self):
        return sum(term.dim() for term in self.local_terms)


def comparison_report(symbols, surface=None):
    """Compare the modular symbol quotient with the surface cohomology.

    Both are quotients of the same induced module (by norm relations and by
    fixed subspaces respectively), and every norm row is a fixed vector, so
    the identity induces a well-defined surjection. Its kernel is measured
    against the elliptic classes: each stabilizer-invariant coefficient v at
    an elliptic class yields an orbit sum over the class cycle, which is a
    generator-fixed vector, hence dies on the surface; the span of these
    classes sits inside the kernel and local terms of size V^h / N_h V bound
    the contribution of each class."""
    module = symbols.module
    ring = module.ring
    if surface is None:
        surface = surface_h1(module)
    to_surface = FPMap(
        symbols.presentation, surface, Matrix.identity(ring, module.rank), check=True
    )
    kernel, kernel_gens = to_surface.kernel()

    blk = module.block
    ident = Matrix.identity(ring, blk)
    local_terms = []
    orbit_rows = []
    for cls in module.cosets.subgroup.elliptic_classes():
        act = module.stabilizer_action(cls)
        local_terms.append(local_term(ring, act, cls.order))
        invariants = left_kernel(act.sub(ident))
        letter = "s" if cls.kind == "sigma" else "t"
        for v in invariants.rows:
            cur = [ring.zero] * module.rank
            cur[cls.coset * blk : (cls.coset + 1) * blk] = list(v)
            total = list(cur)
            for _ in range(cls.power - 1):
                cur = module.apply_letter_to_row(cur, letter)
                total = [ring.add(a, b) for a, b in zip(total, cur)]
            orbit_rows.append(total)

    if isinstance(ring, IntegerRing):
        local_span = None
        if kernel.rank() == 0 and not kernel.torsion():
            verdict = "isomorphic"
        elif kernel.rank() == 0:
            verdict = "torsion kernel"
        else:
            verdict = "kernel has free part"
    else:
        coords = [list(symbols.presentation.reduce(row)) for row in orbit_rows]
        if coords:
            local_span = matrix_rank(
                Matrix(ring, coords, symbols.presentation.ncoords())
            )
        else:
            local_span = 0
        kdim = kernel.dim()
        if kdim == 0:
            verdict = "isomorphic"
        elif kdim == local_span:
            verdict = "kernel spanned by elliptic orbit sums"
        else:
            verdict = "kernel not spanned by elliptic orbit sums"
    return ComparisonReport(
        to_surface, kernel, kernel_gens, tuple(local_terms), local_span, verdict
    )
