"""Group and surface cohomology: golden dimensions, exact sequences, the
symbol comparison map.

Trivial-coefficient group cohomology is pinned against Hom(Z/2 x Z/n, F),
computed inline from elementary group theory; congruence dimensions against
the genus / cusp-count formulas in oracles.py; everything else by exactness
certificates and cross-agreement between independently built presentations.
"""

import dataclasses
import json
import os
import random
import sys

import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from heckesym import cohomology, linalg, triangle, weights
from heckesym.congruence import gamma0_cosets, gamma1_cosets
from heckesym.cohomology import (
    _zero_composite,
    comparison_report,
    cyclic_h1,
    dimension_report,
    h1,
    h1_dimension,
    h1_parabolic,
    h1_parabolic_dimension,
    mayer_vietoris,
    surface_h1,
    surface_h1_dimension,
    surface_h1_parabolic,
    surface_h1_parabolic_dimension,
)
from heckesym.linalg import (
    FPMap,
    FPModule,
    IllDefinedMapError,
    Matrix,
    RowBasis,
    _leading,
    hermite_basis,
    left_kernel,
    matrix_rank,
    rref,
)
from heckesym.modsym import (
    InducedModule,
    ManinSymbolSpace,
    PermCosets,
    boundary_map,
    boundary_space,
    cuspidal_subspace,
    eisenstein_subspace,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ, UnsupportedRingError, is_prime
from heckesym.triangle import (
    InvalidSubgroupError,
    TriangleSubgroup,
    lambda_roots_mod_p,
    rational_lambda_ring,
    subgroup_from_dict,
)

import oracles

SUBGROUPS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "subgroups.json")


def level_one(n):
    return PermCosets(TriangleSubgroup.level_one(n))


def induced(cosets, ring, k):
    return InducedModule(cosets, weight_module_for(cosets, ring, k))


def _two_hermite_relations(src, gens):
    """The relations of an integral kernel as FPMap.kernel built them before
    the lattice quotient: the saturated left kernel of [gens; source
    relations], cut to the generator columns."""
    return _leading(left_kernel(gens.stack(src.relations)), gens.nrows)


def _free_index_six():
    # fixed-point-free sigma and tau: an index-6 free subgroup of the n=3
    # group, genus 0 with 3 cusps
    return PermCosets(TriangleSubgroup(3, (1, 0, 3, 2, 5, 4), (1, 2, 0, 4, 5, 3)))


# ---------------------------------------------------------------------------
# trivial coefficients: H^1(G, F) = Hom(Z/2 x Z/n, F)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_trivial_coefficients_match_abelianization(n, p):
    ring = QQ if p == 0 else GF(p)
    module = induced(level_one(n), ring, 2)
    expected = 0
    if p != 0:
        expected += 1 if 2 % p == 0 else 0
        expected += 1 if n % p == 0 else 0
    assert h1(module).dim() == expected
    assert h1_dimension(module) == expected


def test_cyclic_pieces_level_one_f2():
    module = induced(level_one(4), GF(2), 2)
    assert cyclic_h1(module, "s").dim() == 1  # Hom(Z/2, F_2)
    assert cyclic_h1(module, "t").dim() == 1  # Hom(Z/4, F_2)


@pytest.mark.parametrize(
    "cosets,ring",
    [
        pytest.param(gamma0_cosets(11), QQ, id="q"),
        pytest.param(gamma0_cosets(11), GF(7), id="fp7"),
        pytest.param(gamma0_cosets(11), ZZ, id="z"),
        pytest.param(
            PermCosets(TriangleSubgroup(5, (3, 2, 1, 0, 5, 4, 7, 6), (3, 1, 6, 2, 0, 5, 4, 7))),
            rational_lambda_ring(5)[0],
            id="perm-n5-lambda",
        ),
    ],
)
def test_h1_relations_are_the_coboundaries_in_the_norm_kernel_bases(cosets, ring):
    # each module vector m gives the relation (m(1 - sigma), m(1 - tau)),
    # written in the bases of ker N_sigma and ker N_tau
    module = induced(cosets, ring, 4)
    bs, bt = RowBasis(module.norm_kernel("s")), RowBasis(module.norm_kernel("t"))
    ds, dt = module.right_difference("s"), module.right_difference("t")
    expected = [bs.express(ds.rows[r]) + bt.express(dt.rows[r]) for r in range(module.rank)]
    assert h1(module).relations.rows == expected


def test_cyclic_pieces_vanish_for_free_letter_actions():
    # both generators act freely on the cosets of Gamma_0(11), so the
    # induced module is coinduced from the trivial subgroup and the cyclic
    # cohomology vanishes even in bad characteristic
    for ring in (QQ, GF(2), GF(3)):
        module = induced(gamma0_cosets(11), ring, 2)
        assert cyclic_h1(module, "s").dim() == 0
        assert cyclic_h1(module, "t").dim() == 0


# ---------------------------------------------------------------------------
# congruence dimensions against the classical formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [3, 11, 14, 37])
def test_weight_two_group_cohomology_dimensions(N):
    # rationally the elliptic stabilizers are invisible, so 2g + c - 1 and
    # 2g hold whether or not the level is torsion-free
    _mu, _e2, _e3, cusps, genus = oracles.gamma_invariants(N, "gamma0")
    module = induced(gamma0_cosets(N), QQ, 2)
    assert h1(module).dim() == 2 * genus + cusps - 1
    assert h1_parabolic(module).dim() == 2 * genus


@pytest.mark.parametrize(
    "N,k",
    [(1, 12), (2, 4), (5, 4), (6, 2), (11, 2), (11, 4), (14, 2), (15, 2)],
)
def test_three_presentations_agree_rationally(N, k):
    cosets = gamma0_cosets(N)
    module = induced(cosets, QQ, k)
    space = ManinSymbolSpace(module)
    cusp = cuspidal_subspace(space).module.dim()
    assert cusp == 2 * oracles.classical_cusp_form_dimension(N, k)

    man = space.dim()
    assert h1(module).dim() == man
    assert h1_dimension(module) == man
    assert surface_h1(module).dim() == man
    assert surface_h1_dimension(module) == man

    assert h1_parabolic(module).dim() == cusp
    assert h1_parabolic_dimension(module) == cusp
    assert surface_h1_parabolic(module).module.dim() == cusp
    assert surface_h1_parabolic_dimension(module) == cusp


@pytest.mark.parametrize("N,k", [(5, 3), (7, 3)])
def test_odd_weight_parabolic_matches_cusp_forms(N, k):
    two_s, _eis = oracles.odd_weight_dims_gamma1(N, k)
    module = induced(gamma1_cosets(N), QQ, k)
    assert h1_parabolic(module).dim() == two_s
    assert h1_parabolic_dimension(module) == two_s
    assert surface_h1_parabolic_dimension(module) == two_s


# ---------------------------------------------------------------------------
# integral structure
# ---------------------------------------------------------------------------


def _torsion_primes(invariants):
    primes = set()
    for d in invariants:
        if d > 1:
            primes |= set(sympy.factorint(d))
    return primes


@pytest.mark.parametrize("N,k", [(6, 2), (11, 2), (11, 4), (15, 2)])
def test_integral_presentations_share_rank_and_small_torsion(N, k):
    module = induced(gamma0_cosets(N), ZZ, k)
    man = ManinSymbolSpace(module).presentation
    group = h1(module)
    surf = surface_h1(module)
    rational = induced(gamma0_cosets(N), QQ, k)
    dim = h1_dimension(rational)
    assert man.rank() == group.rank() == surf.rank() == dim
    for pres in (man, group, surf):
        assert _torsion_primes(pres.invariants()) <= {2, 3}


# group, level or n, weight: the criterion-2 sweep of gamma0 at k = 2 and
# 4, and the one-coset groups, where n = 4 carries Z/2 torsion
UNIVERSAL_COEFFICIENT_CASES = (
    [("gamma0", N, 2) for N in range(1, 31)]
    + [("gamma0", N, 4) for N in range(1, 12)]
    + [("level_one", 4, 2), ("level_one", 5, 2)]
)


@pytest.mark.parametrize("group,N,k", UNIVERSAL_COEFFICIENT_CASES)
def test_universal_coefficients_link_z_and_fp(group, N, k):
    # (Z^n / R) (x) F_p = F_p^n / (R mod p) has dimension r + #{d : p | d}
    # for free rank r and invariant factors d: the Smith form over Z against
    # the sparse core over F_p. Built over F_p from scratch, the Manin
    # relations are the reduced integral ones. H^1 mod p also gains the
    # p-torsion of H^2, and the surface quotient divides by the vectors
    # fixed mod p, which can be more than the reduced fixed lattice.
    cosets = gamma0_cosets(N) if group == "gamma0" else level_one(N)
    presentations = {
        "manin": lambda module: ManinSymbolSpace(module).presentation,
        "h1": h1,
        "surface": surface_h1,
    }
    integral = induced(cosets, ZZ, k)
    for name, present in presentations.items():
        pres = present(integral)
        for p in (2, 3, 5, 7):
            want = pres.rank() + sum(1 for d in pres.torsion() if d % p == 0)
            F = GF(p)
            rel = Matrix(F, [[x % p for x in r] for r in pres.relations.rows], pres.ngens)
            assert FPModule(F, pres.ngens, rel).dim() == want, (name, p)
            got = present(induced(cosets, F, k)).dim()
            if name == "manin":
                assert got == want, p
            elif name == "h1":
                assert got >= want, p
            else:
                assert got <= want, p


@pytest.mark.parametrize(
    "group,ring,k",
    [
        (gamma0_cosets(11), QQ, 2),
        (gamma0_cosets(12), GF(3), 4),
        (gamma1_cosets(7), QQ, 3),
        (gamma0_cosets(12), ZZ, 2),
        (gamma0_cosets(20), ZZ, 2),
        (level_one(4), GF(7), 4),
    ],
)
def test_boundary_dimensions_agree_with_the_boundary_map(group, ring, k):
    # the ranks-only answer against the kernel and image of the map itself
    space = ManinSymbolSpace(induced(group, ring, k))
    report = dimension_report(space.module)
    boundary, eisenstein = report.boundary, report.eisenstein
    assert boundary == boundary_space(space).rank()
    assert eisenstein == eisenstein_subspace(space).rank()
    assert space.rank() - eisenstein == cuspidal_subspace(space).module.rank()


def test_integral_h1_of_level_one_vanishes():
    # Hom(Z/2 * Z/4, Z) = 0, and the saturated norm kernels see that
    module = induced(level_one(4), ZZ, 2)
    pres = h1(module)
    assert pres.rank() == 0
    assert pres.torsion() == ()


# ---------------------------------------------------------------------------
# the six-term exact sequence
# ---------------------------------------------------------------------------


def test_six_term_golden_level_one():
    rep = mayer_vietoris(induced(level_one(3), QQ, 2))
    assert rep.dimensions() == (1, 2, 1, 0, 0)
    assert rep.exact and rep.euler_sum() == 0

    rep = mayer_vietoris(induced(level_one(3), GF(2), 2))
    assert rep.dimensions() == (1, 2, 1, 1, 1)
    assert rep.exact

    rep = mayer_vietoris(induced(level_one(4), GF(2), 2))
    assert rep.dimensions() == (1, 2, 1, 2, 2)
    assert rep.exact


def test_six_term_golden_congruence():
    # free letter actions: 12 cosets fall into 6 sigma-orbits and 4
    # tau-orbits, one global invariant line, no cyclic cohomology
    rep = mayer_vietoris(induced(gamma0_cosets(11), QQ, 2))
    assert rep.dimensions() == (1, 10, 12, 3, 0)
    assert rep.exact


def test_zero_composite_detects_a_nonzero_composite():
    free = FPModule(QQ, 2)
    first = FPMap(free, free, Matrix(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]]))
    second = FPMap(free, free, Matrix(QQ, [[QQ.zero, QQ.zero], [QQ.zero, QQ.one]]))
    ident = FPMap(free, free, Matrix.identity(QQ, 2))
    assert _zero_composite(first, second)
    assert not _zero_composite(first, ident)
    assert not _zero_composite(ident, first)
    # a nonzero composite that vanishes in a quotient target counts as zero
    target = FPModule(QQ, 2, Matrix(QQ, [[QQ.one, QQ.zero]]))
    assert _zero_composite(ident, FPMap(free, target, first.ambient))


@pytest.mark.parametrize(
    "cosets",
    [
        # n5-mu08-a and n6-mu08-a of perfbench/data/subgroups.json
        pytest.param(
            PermCosets(TriangleSubgroup(5, (3, 2, 1, 0, 5, 4, 7, 6), (3, 1, 6, 2, 0, 5, 4, 7))),
            id="n5",
        ),
        pytest.param(
            PermCosets(TriangleSubgroup(6, (0, 2, 1, 4, 3, 7, 6, 5), (4, 6, 7, 1, 0, 2, 5, 3))),
            id="n6",
        ),
    ],
)
@pytest.mark.parametrize("field", ["lambda", "fp71"])
def test_mayer_vietoris_expresses_each_difference_row_once(monkeypatch, cosets, field):
    # the cyclic pieces, H^1 and the connecting map share the two cyclic
    # relation matrices: one express per row of D_sigma and of D_tau, plus
    # the two of each group-fixed vector for the inclusion (over lambda on
    # the exact path, which mayer_vietoris takes when the F_P pass misses)
    n = cosets.subgroup.n
    ring = rational_lambda_ring(n)[0] if field == "lambda" else GF(71)
    calls = []
    express = RowBasis.express

    def counting(self, vec):
        calls.append(vec)
        return express(self, vec)

    monkeypatch.setattr(RowBasis, "express", counting)
    module = induced(cosets, ring, 4)
    assert cohomology._six_term(module).exact
    assert module.rank == 24
    assert len(calls) == 2 * module.rank + 2 * module.group_fixed_vectors().nrows


def test_six_term_needs_a_field():
    with pytest.raises(UnsupportedRingError, match="field"):
        mayer_vietoris(induced(level_one(3), ZZ, 2))


@pytest.mark.parametrize("seed", range(24))
def test_six_term_exact_for_random_subgroups(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5, 6])
    mu = rng.randrange(2, 11)
    try:
        group = TriangleSubgroup(
            n,
            oracles.random_involution(mu, rng),
            oracles.random_order_n_perm(n, mu, rng),
        )
    except InvalidSubgroupError:
        return  # intransitive sample; nothing to check
    cosets = PermCosets(group)
    ring = rng.choice([QQ, GF(2), GF(3), GF(5)])
    module = induced(cosets, ring, 2)
    rep = mayer_vietoris(module)
    assert rep.exact, (n, mu, ring.kind, rep.dimensions(), rep.map_ranks)
    assert rep.compositions_vanish

    # parabolic rank-nullity: dim H^1_par = dim Z^1_par - dim M^T + dim M^G
    z_par = left_kernel(module.norm_matrix("s").hstack(module.norm_matrix("t")))
    invariants = oracles.global_group_fixed_vectors(module).nrows
    expected = z_par.nrows - module.fixed_vectors("T").nrows + invariants
    assert h1_parabolic(module).dim() == expected
    assert h1_parabolic_dimension(module) == expected


# ---------------------------------------------------------------------------
# surface cohomology and the comparison map
# ---------------------------------------------------------------------------


def test_free_action_surface_agrees_with_group_cohomology():
    cosets = _free_index_six()
    assert cosets.subgroup.elliptic_classes() == []
    for ring in (QQ, GF(2), GF(3)):
        module = induced(cosets, ring, 2)
        man = ManinSymbolSpace(module).dim()
        assert h1(module).dim() == man
        assert surface_h1(module).dim() == man
        report = comparison_report(ManinSymbolSpace(module))
        assert report.verdict == "isomorphic"
        assert report.local_terms == ()


def test_boundary_cohomology_counts_cusps():
    for cosets in (level_one(3), level_one(4), _free_index_six()):
        module = induced(cosets, QQ, 2)
        assert boundary_space(module).dim() == len(cosets.subgroup.cusp_classes())


def test_comparison_golden_level_one_four():
    cosets = level_one(4)

    rep = comparison_report(ManinSymbolSpace(induced(cosets, QQ, 2)))
    assert rep.verdict == "isomorphic"
    assert [t.dim() for t in rep.local_terms] == [0, 0]

    rep = comparison_report(ManinSymbolSpace(induced(cosets, GF(2), 2)))
    assert rep.kernel.dim() == 1
    assert rep.local_span == 1
    assert [t.dim() for t in rep.local_terms] == [1, 1]
    assert sum(t.dim() for t in rep.local_terms) == 2
    assert rep.verdict == "kernel spanned by elliptic orbit sums"

    rep = comparison_report(ManinSymbolSpace(induced(cosets, ZZ, 2)))
    assert rep.kernel.invariants() == (2,)
    assert rep.local_span is None
    assert rep.verdict == "torsion kernel"


def test_orbit_sums_are_built_only_for_a_nonzero_kernel(monkeypatch):
    # the orbit sums lie in the kernel, so a zero kernel needs none of them
    calls = []
    orbit_sums = cohomology._orbit_sums

    def counted(*args):
        calls.append(args)
        return orbit_sums(*args)

    monkeypatch.setattr(cohomology, "_orbit_sums", counted)
    R, _ = rational_lambda_ring(5)
    for cosets, ring, k in ((level_one(4), QQ, 2), (gamma0_cosets(11), GF(7), 4),
                            (level_one(5), R, 4)):
        rep = comparison_report(ManinSymbolSpace(induced(cosets, ring, k)))
        assert (rep.kernel.dim(), rep.local_span, rep.verdict) == (0, 0, "isomorphic")
    assert calls == []
    rep = comparison_report(ManinSymbolSpace(induced(level_one(4), GF(2), 2)))
    assert rep.kernel.dim() == rep.local_span == 1 and len(calls) == 1


def _elliptic_sample():
    """Coset tables with elliptic classes of both kinds, and the
    (ring, weight) pairs each is checked over."""
    with open(SUBGROUPS) as fh:
        data = json.load(fh)
    perms = [level_one(n) for n in (4, 5, 6)]
    perms += [PermCosets(subgroup_from_dict(data[name])) for name in ("n4-mu08-a", "n5-mu09-b", "n6-mu10-a")]
    congruence = [gamma0_cosets(N) for N in (2, 3, 5, 10, 13)] + [gamma1_cosets(N) for N in (2, 3, 5)]
    fields = [QQ, ZZ, GF(2), GF(3)]
    for cosets in congruence:
        yield cosets, [(ring, k) for ring in fields for k in (2, 3, 4)]
    for cosets in perms:
        lam = rational_lambda_ring(cosets.n)[0]
        yield cosets, [(ring, k) for ring in fields + [lam] for k in (2, 4)]


def test_elliptic_local_data_match_the_class_stabilizers():
    # the stabilizer blocks of the short sigma and tau orbits give the same
    # local terms and orbit sums as each class's own stabilizer generator
    nonzero = 0
    for cosets, cases in _elliptic_sample():
        for ring, k in cases:
            try:
                module = induced(cosets, ring, k)
            except UnsupportedRingError:
                continue  # odd weight on a table whose group holds -1
            space = ManinSymbolSpace(module)
            report = comparison_report(space)
            terms, sums = oracles.elliptic_local_data(module)
            case = (cosets, ring, k)
            assert [repr(t) for t in report.local_terms] == [repr(t) for t in terms], case
            assert [t.relations for t in report.local_terms] == [t.relations for t in terms], case
            ours = cohomology._orbit_sums(module, cohomology._elliptic_orbits(module))
            span = hermite_basis if ring == ZZ else (lambda m: rref(m)[0])
            assert span(Matrix(ring, ours, module.rank)) == span(Matrix(ring, sums, module.rank)), case
            if ring.is_field and report.kernel.dim():
                nonzero += 1
                pres = space.presentation
                coords = Matrix(ring, [list(pres.reduce(row)) for row in sums], pres.ncoords())
                assert report.local_span == matrix_rank(coords), case
    assert nonzero >= 10


def _subgroup_file(name):
    with open(SUBGROUPS) as fh:
        return PermCosets(subgroup_from_dict(json.load(fh)[name]))


@pytest.mark.parametrize("table,field", [
    ("gamma0-13", "F5"), ("gamma0-13", "Z"), ("n5-mu08-a", "lambda"), ("n5-mu08-a", "F71"),
])
def test_each_orbit_local_data_is_formed_once(monkeypatch, table, field):
    # V^H and N_H of an orbit are built on its first read and kept: the
    # presentation, the dimension report, the comparison and the six-term
    # sequence all read them, and M^G comes from the orbit walk rather than
    # a kernel of [1 - sigma | 1 - tau]
    cosets = gamma0_cosets(13) if table == "gamma0-13" else _subgroup_file(table)
    ring = {"F5": GF(5), "Z": ZZ, "F71": GF(71), "lambda": rational_lambda_ring(5)[0]}[field]
    kernels, norms = [], []
    left_kernel, norm = linalg.left_kernel, weights.norm

    def kernel_spy(mat):
        kernels.append(mat)
        return left_kernel(mat)

    def norm_spy(action, order):
        norms.append(action)
        return norm(action, order)

    for name, mod in list(sys.modules.items()):
        for attr, value in list(vars(mod).items()) if name.startswith("heckesym") else ():
            for original, spy in ((left_kernel, kernel_spy), (norm, norm_spy)):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    module = induced(cosets, ring, 4)
    space = ManinSymbolSpace(module)
    assert space.presentation.ngens == module.rank
    cohomology.dimension_report(module)
    comparison_report(space)
    if ring.is_field:
        assert cohomology._six_term(module).exact
    ident = Matrix.identity(ring, module.block)
    differences = [orbit.stabilizer.sub(ident) for letter in "stT" for orbit in module.orbits(letter)]
    T0 = module.orbits("T")[0].stabilizer
    dual_start = Matrix(ring, [list(col) for col in zip(*T0.rows)], T0.nrows).sub(ident)
    for D in differences:
        allowed = sum(E == D for E in differences) + (dual_start == D)
        assert sum(K == D for K in kernels) <= allowed
    assert len(norms) <= len(module.orbits("s")) + len(module.orbits("t"))
    assert all(K.ncols != 2 * module.rank for K in kernels)


def test_the_walk_fixed_vectors_span_the_global_kernel():
    for cosets, cases in _elliptic_sample():
        for ring, k in cases:
            if k == 3:
                continue
            try:
                module = induced(cosets, ring, k)
            except UnsupportedRingError:
                continue  # F_p without lambda
            ours, want = module.group_fixed_vectors(), oracles.global_group_fixed_vectors(module)
            span = hermite_basis if ring == ZZ else (lambda m: rref(m)[0])
            case = (cosets, ring, k)
            assert span(ours) == span(want), case
            assert ours.nrows == cohomology.dimension_report(module).invariants, case


def test_comparison_golden_level_one_six_f2():
    rep = comparison_report(ManinSymbolSpace(induced(level_one(6), GF(2), 2)))
    assert rep.kernel.dim() == 1
    assert rep.local_span == 1
    assert rep.verdict == "kernel spanned by elliptic orbit sums"


@pytest.mark.parametrize("N", range(1, 11))
@pytest.mark.parametrize("p", [2, 3])
def test_comparison_kernel_is_elliptic_span_mod_p(N, p):
    module = induced(gamma0_cosets(N), GF(p), 2)
    rep = comparison_report(ManinSymbolSpace(module))
    assert rep.verdict in ("isomorphic", "kernel spanned by elliptic orbit sums")
    assert rep.kernel.dim() == rep.local_span


def test_comparison_congruence_rational_isomorphism():
    rep = comparison_report(ManinSymbolSpace(induced(gamma0_cosets(11), QQ, 2)))
    assert rep.verdict == "isomorphic"
    assert rep.kernel.dim() == 0


@pytest.mark.parametrize(
    "cosets,ring,k",
    [
        pytest.param(gamma0_cosets(11), QQ, 2, id="rationals"),
        pytest.param(gamma0_cosets(11), GF(7), 2, id="fp:7"),
        pytest.param(gamma0_cosets(11), ZZ, 2, id="integers"),
        # the only ring where the relation check multiplies extension entries
        pytest.param(
            PermCosets(TriangleSubgroup(5, (3, 2, 1, 0, 5, 4, 7, 6), (3, 1, 6, 2, 0, 5, 4, 7))),
            rational_lambda_ring(5)[0],
            4,
            id="perm-n5-k4-lambda",
        ),
    ],
)
def test_comparison_rejects_a_corrupted_relation_row(cosets, ring, k):
    # a symbol relation moved off the norms (here by one unit vector) no
    # longer lies in the surface relations
    space = ManinSymbolSpace(induced(cosets, ring, k))
    rel = space.presentation.relations
    rows = [dict(r) for r in rel.sparse_rows()]
    rows[0][0] = ring.add(rows[0].get(0, ring.zero), ring.one)
    space.presentation = FPModule(ring, rel.ncols, Matrix.from_sparse(ring, rows, rel.ncols))
    with pytest.raises(IllDefinedMapError, match="does not map into target relations"):
        comparison_report(space)


def _data_cosets(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        return PermCosets(subgroup_from_dict(json.load(fh)))


def _cosets(group):
    """gamma0:N, or a subgroup file in tests/data."""
    return gamma0_cosets(int(group[7:])) if group.startswith("gamma0:") else _data_cosets(group)


INTEGRAL_COMPARISONS = (
    [pytest.param("gamma0:%d" % N, 2, id="gamma0-%d-k2" % N) for N in range(11, 41)]
    + [pytest.param("gamma0:%d" % N, 4, id="gamma0-%d-k4" % N) for N in (11, 13)]
    # weights above 2 need lambda in the ring, which Z lacks for n = 4, 5
    + [pytest.param(name, 2, id=name[:-5] + "-k2") for name in ("delta4-self.json", "delta5.json")]
)


@pytest.mark.parametrize("group,k", INTEGRAL_COMPARISONS)
def test_integral_comparison_kernel_is_the_identity_maps_kernel(group, k):
    # over Z the report takes the kernel as the lattice quotient L_surf /
    # L_sym; the general kernel of the identity map must give the same
    # Hermite generators and relations, and so must the two-Hermite formula
    space = ManinSymbolSpace(induced(_cosets(group), ZZ, k))
    report = comparison_report(space)
    module = space.module
    identity = FPMap(space.presentation, surface_h1(module), Matrix.identity(ZZ, module.rank),
                     check=False)
    kernel, gens = identity.kernel()
    assert report.kernel_gens == gens
    assert report.kernel.relations == kernel.relations
    assert kernel.relations == _two_hermite_relations(space.presentation, gens)


@pytest.mark.parametrize(
    "group,k",
    [("gamma0:11", 2), ("gamma0:23", 2), ("gamma0:60", 2), ("gamma0:11", 4), ("delta4-self.json", 2)],
)
def test_integral_boundary_kernel_relations_are_the_two_hermite_kernel(group, k):
    fmap = boundary_map(ManinSymbolSpace(induced(_cosets(group), ZZ, k)))
    kernel, gens = fmap.kernel()
    assert kernel.relations == _two_hermite_relations(fmap.src, gens)


@pytest.mark.parametrize("group", ["gamma0:30", "gamma0:60"])
def test_integral_image_reads_only_the_kernel_generators(group, monkeypatch):
    fmap = boundary_map(ManinSymbolSpace(induced(_cosets(group), ZZ, 2)))
    calls, quotient = [], linalg.lattice_quotient
    monkeypatch.setattr(linalg, "lattice_quotient", lambda *a: calls.append(a) or quotient(*a))
    image, _ambient = fmap.image()
    assert calls == []
    assert image.relations == fmap.src.relations.stack(fmap.kernel()[1])
    # the kernel itself is the quotient, so the count does see its calls
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# lambda coefficient ring
# ---------------------------------------------------------------------------


def test_lambda_ring_presentations_agree():
    ring, _lam = rational_lambda_ring(5)
    module = induced(level_one(5), ring, 4)
    man = ManinSymbolSpace(module).dim()
    assert h1(module).dim() == man
    assert h1_dimension(module) == man
    assert surface_h1(module).dim() == man
    rep = mayer_vietoris(module)
    assert rep.exact


def test_split_primes_are_pinned():
    # the least prime above 2^31 where lambda's minimal polynomial has a
    # root; never 71, the prime the benchmark checks lambda against
    pinned = {4: 2147483713, 5: 2147483659, 6: 2147483713, 7: 2147483659, 8: 2147483713}
    for n, P in pinned.items():
        assert cohomology._split_prime(n) == P
        assert P > 2**31 and P != 71 and is_prime(P) and lambda_roots_mod_p(n, P)
        assert not any(is_prime(q) and lambda_roots_mod_p(n, q) for q in range(2**31 + 1, P))


def test_lambda_roots_are_searched_once_per_prime(monkeypatch):
    # every six-term report over Q(2cos(pi/5)) builds a sibling module over
    # F_P, which needs lambda's root mod P, as _split_prime did before it
    searches, search = [], triangle._search_lambda_roots
    monkeypatch.setattr(triangle, "_LAMBDA_ROOTS_CACHE", {})
    monkeypatch.setattr(triangle, "_search_lambda_roots", lambda n, p: searches.append((n, p)) or search(n, p))
    ring, _lam = rational_lambda_ring(5)
    module = induced(level_one(5), ring, 4)
    for _ in range(2):
        assert mayer_vietoris(module).exact
    P = cohomology._split_prime(5)
    assert searches.count((5, P)) == 1 and len(searches) == len(set(searches))
    # each call still returns a list of its own
    roots = lambda_roots_mod_p(5, P)
    roots.append(0)
    assert lambda_roots_mod_p(5, P) == roots[:-1]


def _lambda_mv_cosets(name):
    """A subgroup of the benchmark's lambda_mv pool (index 8 to 10 in
    perfbench/data/subgroups.json, read only), or Delta(n) for delta4 to
    delta7: the files of tests/data for n = 4, 5, level_one for 6, 7."""
    if name.startswith("delta"):
        files = {"delta4": "delta4-self.json", "delta5": "delta5.json"}
        return _data_cosets(files[name]) if name in files else level_one(int(name[5:]))
    with open(SUBGROUPS) as fh:
        return PermCosets(subgroup_from_dict(json.load(fh)[name]))


LAMBDA_MV = ["n%d-mu%02d-%s" % (n, mu, x) for n in (4, 5, 6) for mu in (8, 9, 10) for x in "ab"]
LAMBDA_MV += ["delta%d" % n for n in range(4, 8)]


def _six_term_rings(monkeypatch):
    """The rings of the modules each six-term pass is built over."""
    rings, six_term = [], cohomology._six_term

    def spy(module):
        rings.append(module.ring)
        return six_term(module)

    monkeypatch.setattr(cohomology, "_six_term", spy)
    return rings


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("name", LAMBDA_MV)
def test_certified_six_term_equals_the_exact_path(monkeypatch, name, k):
    # over Q(lambda) the report is read from the sibling module over F_P;
    # the exact path over K, called directly, must give the same report
    cosets = _lambda_mv_cosets(name)
    module = induced(cosets, rational_lambda_ring(cosets.n)[0], k)
    exact = cohomology._six_term(module)
    rings = _six_term_rings(monkeypatch)
    assert mayer_vietoris(module) == exact
    assert rings == [GF(cohomology._split_prime(cosets.n))]
    assert exact.exact and exact.compositions_vanish


@pytest.mark.parametrize("miss", ["h1_dim", "rank", "prime"])
def test_certificate_miss_falls_back_to_the_exact_path(monkeypatch, miss):
    # a mod-P report with one dimension off, or a rank short (so the
    # sequence is not exact), or a prime where the reduction drops ranks
    # (5 ramifies in Q(2cos(pi/5)) and divides the order of tau, which has
    # an elliptic class here, so the cyclic pieces mod 5 are not zero): the
    # exact path runs over K
    cosets = _lambda_mv_cosets("n5-mu08-a")
    module = induced(cosets, rational_lambda_ring(5)[0], 4)
    exact = cohomology._six_term(module)
    six_term = cohomology._six_term

    def missed(sibling):
        rep = six_term(sibling)
        if sibling.ring is module.ring:
            return rep
        if miss == "h1_dim":
            return dataclasses.replace(rep, h1_dim=rep.h1_dim + 1)
        ranks = rep.map_ranks[:2] + (rep.map_ranks[2] - 1,) + rep.map_ranks[3:]
        return dataclasses.replace(rep, map_ranks=ranks, exact=False)

    if miss == "prime":
        monkeypatch.setattr(cohomology, "_split_prime", lambda n: 5)
    else:
        monkeypatch.setattr(cohomology, "_six_term", missed)
    rings = _six_term_rings(monkeypatch)
    assert mayer_vietoris(module) == exact
    assert rings == [GF(5) if miss == "prime" else GF(cohomology._split_prime(5)), module.ring]


# ---------------------------------------------------------------------------
# dimensions from local terms
# ---------------------------------------------------------------------------

DIMENSION_RINGS = [QQ, ZZ, GF(2), GF(3), GF(5), GF(7)]


@st.composite
def _dimension_triples(draw):
    """(cosets, weight, ring) with at most 40 module coordinates: gamma0
    and gamma1 at small levels, or a random permutation subgroup of index
    up to 6 at n = 4, 5, 6 (intransitive and unsupported draws rejected)."""
    kind = draw(st.sampled_from(["gamma0", "gamma1", "perm"]))
    if kind == "gamma0":
        cosets = gamma0_cosets(draw(st.integers(1, 13)))
    elif kind == "gamma1":
        cosets = gamma1_cosets(draw(st.integers(1, 7)))
    else:
        n, mu = draw(st.sampled_from([4, 5, 6])), draw(st.integers(1, 6))
        rng = random.Random(draw(st.integers(0, 2**32)))
        try:
            group = TriangleSubgroup(n, oracles.random_involution(mu, rng),
                                     oracles.random_order_n_perm(n, mu, rng))
        except InvalidSubgroupError:
            reject()
        cosets = PermCosets(group)
    k = draw(st.integers(2, min(8, 1 + 40 // cosets.mu)))
    return cosets, k, draw(st.sampled_from(DIMENSION_RINGS))


@settings(max_examples=120, deadline=None)
@given(_dimension_triples())
def test_dimension_report_is_the_nine_ranks(triple):
    cosets, k, ring = triple
    try:
        module = induced(cosets, ring, k)
    except UnsupportedRingError:
        reject()  # odd weight with -1 in the group, or no lambda in the ring
    report = cohomology.dimension_report(module)
    want = oracles.rank_dimensions(cosets, module.weight)
    assert {key: getattr(report, key) for key in cohomology.DIMENSIONS} == want
    assert (h1_dimension(module), h1_parabolic_dimension(module)) == (want["h1"], want["h1_par"])
    assert surface_h1_dimension(module) == want["surface_h1"]
    assert surface_h1_parabolic_dimension(module) == want["surface_h1_par"]
    assert (report.boundary, report.eisenstein) == (want["boundary"], want["eisenstein"])


@pytest.mark.parametrize("ring,split", [(GF(2), False), (GF(3), False), (GF(5), True), (QQ, True)])
def test_bad_characteristic_takes_the_two_rank_fallback(ring, split):
    # gamma0:13 has two elliptic points of order 2 and two of order 3: over
    # F_2 and F_3 a norm misses the fixed vectors of its generator there
    module = induced(gamma0_cosets(13), ring, 6)
    report = cohomology.dimension_report(module)
    assert report.split is split
    # only the fallback assembles the norms, one rank each of two stackings
    assert ("Ns" in module._cache) is not split
    if ring is not QQ:  # the Fraction oracle takes seconds here
        want = oracles.rank_dimensions(module.cosets, module.weight)
        assert {key: getattr(report, key) for key in cohomology.DIMENSIONS} == want


def test_a_weight_two_report_counts_cycles_without_block_products(monkeypatch):
    monkeypatch.setattr(Matrix, "mul", lambda self, other: pytest.fail("a block product"))
    for cosets, ring in ((gamma1_cosets(5), QQ), (gamma0_cosets(13), GF(2)),
                         (gamma0_cosets(13), GF(3)), (level_one(6), ZZ)):
        report = cohomology.dimension_report(induced(cosets, ring, 2))
        subgroup = cosets.subgroup
        assert report.boundary == len(subgroup.cusp_classes())
        assert report.invariants == report.coinvariants == 1
