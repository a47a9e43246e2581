"""Modular symbol spaces: golden dimensions, path relations, rejection gates.

The rational dimensions are checked against the classical genus / cusp-count
formulas (recomputed from scratch in oracles.py), so the presentation, the
boundary map and its kernel/image are pinned by an independent route.
"""

import random
from fractions import Fraction

import pytest

from heckesym.congruence import (
    apply_moebius,
    gamma0_cosets,
    gamma1_cosets,
)
from heckesym.linalg import Matrix, matrix_rank
from heckesym.modsym import (
    BoundarySpace,
    InducedModule,
    PermCosets,
    boundary_map,
    boundary_space,
    convert_symbol,
    cuspidal_subspace,
    eisenstein_subspace,
    manin_space,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ, UnsupportedRingError
from heckesym.triangle import (
    TriangleSubgroup,
    mat2_mul,
    mat2_pow,
    rational_lambda_ring,
    sigma_matrix,
    tau_matrix,
)

import oracles

SIGMA = sigma_matrix(ZZ)
TAU = tau_matrix(ZZ, 1)


def level_one(n):
    return PermCosets(TriangleSubgroup.level_one(n))


def space_for(cosets, ring, k):
    return manin_space(cosets, weight_module_for(cosets, ring, k))


# ---------------------------------------------------------------------------
# the dimension oracles themselves, frozen against textbook values
# ---------------------------------------------------------------------------


def test_dimension_oracle_frozen_values():
    assert oracles.classical_cusp_form_dimension(11, 2) == 1
    assert oracles.classical_cusp_form_dimension(37, 2) == 2
    assert oracles.classical_cusp_form_dimension(1, 12) == 1
    assert oracles.classical_cusp_form_dimension(5, 4) == 1
    assert oracles.classical_cusp_form_dimension(3, 6) == 1
    assert oracles.classical_cusp_form_dimension(1, 2) == 0
    assert oracles.classical_cusp_form_dimension(1, 4) == 0
    assert oracles.eisenstein_dimension_gamma0(11, 2) == 1
    assert oracles.eisenstein_dimension_gamma0(6, 2) == 3
    assert oracles.eisenstein_dimension_gamma0(1, 12) == 1
    assert oracles.eisenstein_dimension_gamma0(1, 4) == 1


def test_odd_weight_oracle_frozen_values():
    # level 7 carries the first odd-weight cusp form (weight 3, CM); levels
    # 4 and 5 have none, and level 4 exercises the irregular cusp.
    assert oracles.odd_weight_dims_gamma1(7, 3) == (2, 6)
    assert oracles.odd_weight_dims_gamma1(5, 3) == (0, 4)
    assert oracles.odd_weight_dims_gamma1(4, 3) == (0, 2)


# ---------------------------------------------------------------------------
# level one over the integers: pure torsion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,torsion", [(3, ()), (4, (2,)), (5, ()), (6, (2,))])
def test_level_one_weight_two_integral(n, torsion):
    space = space_for(level_one(n), ZZ, 2)
    assert space.rank() == 0
    assert space.torsion() == torsion


def test_level_one_mod_two_exceeds_rational():
    assert space_for(level_one(4), GF(2), 2).dim() == 1
    assert space_for(level_one(4), QQ, 2).dim() == 0


# ---------------------------------------------------------------------------
# congruence dimensions against the classical formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "N,k",
    [(1, 4), (1, 12), (2, 2), (3, 6), (6, 2), (11, 2), (11, 4), (14, 2), (37, 2)],
)
def test_gamma0_dimensions_match_classical_formulas(N, k):
    cosets = gamma0_cosets(N)
    space = space_for(cosets, QQ, k)
    bmap = boundary_map(space)
    twice_s = 2 * oracles.classical_cusp_form_dimension(N, k)
    eis = oracles.eisenstein_dimension_gamma0(N, k)
    assert space.dim() == twice_s + eis
    assert cuspidal_subspace(space, bmap).module.dim() == twice_s
    assert eisenstein_subspace(space, bmap).dim() == eis


def test_gamma1_even_weight_dimensions():
    space = space_for(gamma1_cosets(5), QQ, 2)
    # genus 0, four cusps: no cusp forms, three Eisenstein classes
    assert space.dim() == 3
    assert cuspidal_subspace(space).module.dim() == 0


@pytest.mark.parametrize("N,k", [(4, 3), (5, 3), (7, 3)])
def test_gamma1_odd_weight_dimensions(N, k):
    cosets = gamma1_cosets(N)
    space = space_for(cosets, QQ, k)
    bmap = boundary_map(space)
    twice_s, eis = oracles.odd_weight_dims_gamma1(N, k)
    assert space.dim() == twice_s + eis
    assert cuspidal_subspace(space, bmap).module.dim() == twice_s
    assert eisenstein_subspace(space, bmap).dim() == eis


# ---------------------------------------------------------------------------
# rejection gates: no projective action, no space
# ---------------------------------------------------------------------------


def test_odd_weight_rejected_when_minus_one_in_subgroup():
    for cosets in (gamma0_cosets(11), gamma1_cosets(2), gamma1_cosets(1)):
        with pytest.raises(UnsupportedRingError):
            space_for(cosets, QQ, 3)


def test_odd_weight_rejected_for_permutation_tables():
    with pytest.raises(UnsupportedRingError):
        weight_module_for(level_one(4), QQ, 3)


# ---------------------------------------------------------------------------
# boundary space structure
# ---------------------------------------------------------------------------


def test_boundary_rank_identity():
    for N, k in ((6, 2), (11, 2), (5, 4)):
        cosets = gamma0_cosets(N)
        module = InducedModule(cosets, weight_module_for(cosets, QQ, k))
        expected = module.rank - matrix_rank(
            Matrix.identity(QQ, module.rank).sub(module.right_matrix("T"))
        )
        assert BoundarySpace(module).dim() == expected


def test_weight_two_boundary_counts_cusps():
    for N in (2, 6, 11, 14):
        cosets = gamma0_cosets(N)
        module = InducedModule(cosets, weight_module_for(cosets, QQ, 2))
        assert BoundarySpace(module).dim() == len(cosets.subgroup.cusp_classes())


def test_boundary_space_from_manin_space():
    space = space_for(gamma0_cosets(11), QQ, 2)
    assert boundary_space(space).dim() == 2


def test_boundary_map_explicit_check_passes():
    # the default skips the row-by-row well-definedness check because the
    # generator order identities imply it; verify that claim explicitly
    for cosets, k in ((gamma0_cosets(11), 4), (gamma1_cosets(5), 3)):
        space = space_for(cosets, QQ, k)
        boundary_map(space, check=True)


# ---------------------------------------------------------------------------
# path symbols: degenerate, concatenation, group invariance
# ---------------------------------------------------------------------------


def _random_cusp(rng):
    if rng.random() < 0.15:
        return None
    return Fraction(rng.randrange(-12, 13), rng.randrange(1, 9))


def _random_subgroup_element(cosets, rng):
    g = (1, 0, 0, 1)
    for _ in range(rng.randrange(1, 7)):
        base = SIGMA if rng.random() < 0.4 else TAU
        g = mat2_mul(ZZ, g, mat2_pow(ZZ, base, rng.randrange(1, 4)))
    return cosets.act(rng.randrange(cosets.mu), g)[1]


def test_unit_path_is_the_generator_class():
    space = space_for(gamma0_cosets(1), QQ, 2)
    vec = convert_symbol(space, Fraction(0), None)
    assert vec == [Fraction(1)]


def test_degenerate_and_concatenated_paths_vanish():
    rng = random.Random(20260815)
    space = space_for(gamma0_cosets(6), QQ, 2)
    pres = space.presentation
    for _ in range(25):
        a, b, c = (_random_cusp(rng) for _ in range(3))
        assert pres.is_zero_element(convert_symbol(space, a, a))
        total = [
            x + y + z
            for x, y, z in zip(
                convert_symbol(space, a, b),
                convert_symbol(space, b, c),
                convert_symbol(space, c, a),
            )
        ]
        assert pres.is_zero_element(total)


def test_path_reversal_negates():
    rng = random.Random(5)
    space = space_for(gamma0_cosets(11), QQ, 4)
    pres = space.presentation
    for _ in range(10):
        a, b = _random_cusp(rng), _random_cusp(rng)
        v = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        fwd = convert_symbol(space, a, b, v)
        rev = convert_symbol(space, b, a, v)
        assert pres.is_zero_element([x + y for x, y in zip(fwd, rev)])


@pytest.mark.parametrize(
    "cosets,k", [(gamma0_cosets(3), 4), (gamma1_cosets(5), 3), (gamma0_cosets(11), 2)]
)
def test_symbol_invariance_under_subgroup(cosets, k):
    rng = random.Random(7)
    space = space_for(cosets, QQ, k)
    pres = space.presentation
    blk = space.module.block
    for _ in range(12):
        a, b = _random_cusp(rng), _random_cusp(rng)
        gamma = _random_subgroup_element(cosets, rng)
        v = [Fraction(rng.randrange(-3, 4)) for _ in range(blk)]
        acted = space.weight.action_matrix(gamma).act_on_row(v)
        moved = convert_symbol(
            space, apply_moebius(gamma, a), apply_moebius(gamma, b), acted
        )
        plain = convert_symbol(space, a, b, v)
        assert pres.is_zero_element([x - y for x, y in zip(moved, plain)])


# ---------------------------------------------------------------------------
# module structure: the right action is multiplicative, even with the
# sign normalization that makes odd weights work
# ---------------------------------------------------------------------------


def test_right_action_multiplicative():
    rng = random.Random(99)
    for cosets, k in ((gamma1_cosets(5), 3), (gamma0_cosets(4), 4)):
        module = InducedModule(cosets, weight_module_for(cosets, QQ, k))
        for _ in range(6):
            g = mat2_pow(ZZ, mat2_mul(ZZ, TAU, SIGMA), rng.randrange(1, 4))
            h = mat2_mul(ZZ, mat2_pow(ZZ, SIGMA, rng.randrange(1, 3)), mat2_pow(ZZ, TAU, rng.randrange(1, 4)))
            lhs = module.right_operator(g).mul(module.right_operator(h))
            assert lhs == module.right_operator(mat2_mul(ZZ, g, h))


# ---------------------------------------------------------------------------
# operator assembly: each dense operator is the signed sum of right actions
# it names, recomputed here with plain matrix products and sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cosets, ring, k",
    [
        (gamma0_cosets(11), QQ, 4),
        (gamma1_cosets(13), GF(7), 3),
        (
            PermCosets(TriangleSubgroup(4, (5, 7, 6, 3, 4, 0, 2, 1), (2, 0, 4, 7, 1, 6, 3, 5))),
            rational_lambda_ring(4)[0],
            4,
        ),
        (
            PermCosets(TriangleSubgroup(5, (3, 2, 1, 0, 5, 4, 7, 6), (3, 1, 6, 2, 0, 5, 4, 7))),
            rational_lambda_ring(5)[0],
            2,
        ),
    ],
    ids=["gamma0:11-k4-Q", "gamma1:13-k3-F7", "perm-n4-k4-lambda", "perm-n5-k2-lambda"],
)
def test_dense_operators_are_their_block_sums(cosets, ring, k):
    module = InducedModule(cosets, weight_module_for(cosets, ring, k))
    ident = Matrix.identity(ring, module.rank)
    R = {x: module.right_matrix(x) for x in "stT"}
    assert module.norm_matrix("s") == ident.add(R["s"])
    total, power = ident, ident
    for _ in range(cosets.n - 1):
        power = power.mul(R["t"])
        total = total.add(power)
    assert module.norm_matrix("t") == total
    for x in "stT":
        assert module.right_difference(x) == ident.sub(R[x])
    assert R["T"] == R["t"].mul(R["s"])
    for x in "st":
        for r in range(module.rank):
            unit = [ring.zero] * module.rank
            unit[r] = ring.one
            assert R[x].rows[r] == module.apply_letter_to_row(unit, x)


def test_coset_tables_share_one_interface():
    for cosets, variant, label in (
        (gamma0_cosets(11), "plus-minus-one", "gamma0:11"),
        (gamma1_cosets(13), "plus-minus-one", "gamma1:13"),
        (level_one(4), "projective", "perm(n=4, mu=1)"),
    ):
        assert cosets.weight_variant == variant
        assert cosets.label() == label
        assert weight_module_for(cosets, QQ, 2).variant == variant
        j, cocycle = cosets.twist(0, "t", 1)
        assert j == cosets.subgroup.t[0] and len(cocycle) == 4
        for cls in cosets.subgroup.elliptic_classes():
            assert len(cosets.stabilizer_cocycle(cls)) == 4


# ---------------------------------------------------------------------------
# integral structure
# ---------------------------------------------------------------------------


def test_integral_rank_matches_rational_dimension():
    for N, k in ((6, 2), (11, 2), (4, 4)):
        cosets = gamma0_cosets(N)
        zspace = space_for(cosets, ZZ, k)
        assert zspace.rank() == space_for(cosets, QQ, k).dim()
        for d in zspace.torsion():
            while d % 2 == 0:
                d //= 2
            while d % 3 == 0:
                d //= 3
            assert d == 1


# ---------------------------------------------------------------------------
# two presentations of the same subgroup agree
# ---------------------------------------------------------------------------


def test_permutation_route_matches_congruence_route():
    cong = gamma0_cosets(11)
    perm = PermCosets(cong.subgroup)
    for k in (2, 4):
        d_cong = space_for(cong, QQ, k).dim()
        d_perm = space_for(perm, QQ, k).dim()
        assert d_cong == d_perm


def test_lambda_weight_smoke():
    from heckesym.triangle import rational_lambda_ring

    ring, _ = rational_lambda_ring(5)
    space = space_for(level_one(5), ring, 4)
    bmap = boundary_map(space)
    assert space.dim() == cuspidal_subspace(space, bmap).module.dim() + eisenstein_subspace(
        space, bmap
    ).dim()
