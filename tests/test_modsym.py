"""Modular symbol spaces: golden dimensions, path relations, rejection gates.

The rational dimensions are checked against the classical genus / cusp-count
formulas (recomputed from scratch in oracles.py), so the presentation, the
boundary map and its kernel/image are pinned by an independent route.
"""

import inspect
import json
import os
import pathlib
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import heckesym
from heckesym.cohomology import comparison_report, dimension_report
from heckesym.congruence import (
    CongruenceCosets,
    apply_moebius,
    gamma0_cosets,
    gamma1_cosets,
    require_congruence,
)
from heckesym.hecke import hecke_matrix
from heckesym.linalg import (
    FPMap,
    Matrix,
    hermite_basis,
    left_kernel,
    matrix_rank,
    rref,
)
from heckesym.modsym import (
    BoundarySpace,
    InducedModule,
    ManinSymbolSpace,
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
    InvalidSubgroupError,
    TriangleSubgroup,
    load_subgroup,
    mat2_mul,
    mat2_pow,
    rational_lambda_ring,
    reduce_word,
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
    twice_s = 2 * oracles.classical_cusp_form_dimension(N, k)
    eis = oracles.eisenstein_dimension_gamma0(N, k)
    assert space.dim() == twice_s + eis
    assert cuspidal_subspace(space).module.dim() == twice_s
    assert eisenstein_subspace(space).dim() == eis


def test_gamma1_even_weight_dimensions():
    space = space_for(gamma1_cosets(5), QQ, 2)
    # genus 0, four cusps: no cusp forms, three Eisenstein classes
    assert space.dim() == 3
    assert cuspidal_subspace(space).module.dim() == 0


@pytest.mark.parametrize("N,k", [(4, 3), (5, 3), (7, 3)])
def test_gamma1_odd_weight_dimensions(N, k):
    cosets = gamma1_cosets(N)
    space = space_for(cosets, QQ, k)
    twice_s, eis = oracles.odd_weight_dims_gamma1(N, k)
    assert space.dim() == twice_s + eis
    assert cuspidal_subspace(space).module.dim() == twice_s
    assert eisenstein_subspace(space).dim() == eis


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
    # boundary_map skips the row-by-row well-definedness check because the
    # generator order identities imply it; verify that claim explicitly
    for cosets, k in ((gamma0_cosets(11), 4), (gamma1_cosets(5), 3)):
        bmap = boundary_map(space_for(cosets, QQ, k))
        FPMap(bmap.src, bmap.dst, bmap.ambient, check=True)


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
    # row i*blk + a of R_x is row a of the coset's weight block, placed at
    # the columns of the coset j it reaches
    blk = module.block
    for x in "st":
        for i in range(cosets.mu):
            j, cocycle = cosets.twist(i, x)
            block = module.weight.action_matrix(cocycle).rows
            for a in range(blk):
                want = [ring.zero] * module.rank
                want[j * blk : (j + 1) * blk] = block[a]
                assert R[x].rows[i * blk + a] == want


def test_coset_tables_share_one_interface():
    for cosets, variant, label in (
        (gamma0_cosets(11), "plus-minus-one", "gamma0:11"),
        (gamma1_cosets(13), "plus-minus-one", "gamma1:13"),
        (level_one(4), "projective", "perm(n=4, mu=1)"),
    ):
        assert cosets.weight_variant == variant
        assert cosets.label() == label
        assert weight_module_for(cosets, QQ, 2).variant == variant
        j, cocycle = cosets.twist(0, "t")
        assert j == cosets.subgroup.t[0] and len(cocycle) == 4


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ], ids=["Q", "F7", "Z"])
def test_weight_two_permutation_module_builds_no_cocycle(ring):
    # every cocycle acts as the 1x1 identity in weight 2, so the module reads
    # only the target cosets and the subgroup builds neither Z[lambda] nor a
    # cocycle; the operators are those the cocycles give
    G = TriangleSubgroup(5, (3, 2, 1, 0, 5, 4, 7, 6), (3, 1, 6, 2, 0, 5, 4, 7))
    weight = weight_module_for(PermCosets(G), ring, 2)
    module = InducedModule(PermCosets(G), weight)
    ops = {name: module.right_matrix(name).rows for name in "stT"}
    ops.update({"N" + x: module.norm_matrix(x).rows for x in "st"})
    stabs = [orbit.stabilizer for x in "st" for orbit in module.orbits(x)]
    assert G._rep_cache == [] and G._zlam is None
    assert stabs and all(H == Matrix.identity(ring, 1) for H in stabs)
    want = oracles.induced_operators(PermCosets(G), weight)
    assert ops == {name: want[name] for name in ops}
    assert G._rep_cache != []


def _no_twist(self, i, letter):
    raise AssertionError("a weight-2 twist")


@pytest.mark.parametrize("make", [gamma0_cosets, gamma1_cosets], ids=["gamma0", "gamma1"])
@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ], ids=["Q", "F7", "Z"])
def test_weight_two_congruence_module_reads_no_lift_and_no_twist(monkeypatch, make, ring):
    # dims and compare in weight 2 read only the coset permutations, so the
    # lifts are built on the first read, by the Hecke rows
    cosets = make(11 if make is gamma0_cosets else 13)
    weight = weight_module_for(cosets, ring, 2)
    with monkeypatch.context() as patch:
        patch.setattr(CongruenceCosets, "twist", _no_twist)
        module = InducedModule(cosets, weight)
        dimension_report(module)
        space = ManinSymbolSpace(module)
        space.presentation.invariants()
        comparison_report(space)
        got = {name: module.right_matrix(name).rows for name in "stT"}
        got.update({"N" + x: module.norm_matrix(x).rows for x in "st"})
    assert "lifts" not in cosets.__dict__
    want = oracles.induced_operators(cosets, weight)
    assert got == {name: want[name] for name in got}
    hecke_matrix(space, 2).matrix_on_generators()
    assert "lifts" in cosets.__dict__


def test_only_congruence_asks_which_kind_of_table_it_holds():
    # every other module reads a table through the shared interface alone;
    # require_congruence is the one test of the table's class
    pattern = re.compile(r"isinstance\([^)]*(PermCosets|CongruenceCosets)")
    for path in sorted(pathlib.Path(heckesym.__file__).parent.glob("*.py")):
        source = path.read_text()
        if path.name == "congruence.py":
            source = source.replace(inspect.getsource(require_congruence), "")
        assert not pattern.search(source), path.name


def test_only_modsym_names_the_generator_orders():
    # InducedModule.orders holds the orders 2 and n of sigma and tau, which
    # every other module reads from it or from an orbit; triangle's word
    # arithmetic reduces exponents by them on its own
    pattern = re.compile(r'\("s", 2\)|2 if letter == "s"')
    for path in sorted(pathlib.Path(heckesym.__file__).parent.glob("*.py")):
        source = path.read_text()
        if path.name == "modsym.py":
            continue
        if path.name == "triangle.py":
            source = source.replace(inspect.getsource(reduce_word), "")
        assert not pattern.search(source), path.name


def _no_products(self, other):
    raise AssertionError("a weight-2 block product")


@pytest.mark.parametrize("table", [
    lambda tmp: gamma0_cosets(11),
    lambda tmp: gamma1_cosets(5),
    lambda tmp: _listed_perm_file(tmp, "n5-mu08-a"),
    lambda tmp: _perm_file(tmp, 400, (0,), (0,)),
], ids=["gamma0-11", "gamma1-5", "perm-file-n5", "perm-file-n400"])
def test_weight_two_powers_move_cosets_only(tmp_path, monkeypatch, table):
    # every block is the 1x1 identity in weight 2, so the letter powers (the
    # order check and the norms) and T are built without a block product
    cosets = table(tmp_path)
    for ring in (QQ, GF(11), ZZ):
        weight = weight_module_for(cosets, ring, 2)
        want = oracles.induced_operators(cosets, weight)
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "mul", _no_products)
            module = InducedModule(cosets, weight)
            got = {"T": module.right_matrix("T"), "DT": module.right_difference("T")}
            got.update({"N" + x: module.norm_matrix(x) for x in "st"})
        for name, mat in got.items():
            assert mat.rows == want[name], (ring.kind, name)


# ---------------------------------------------------------------------------
# orbit lattices against the global forms
# ---------------------------------------------------------------------------

ORBIT_RINGS = {"q": QQ, "z": ZZ, "f2": GF(2), "f3": GF(3), "f7": GF(7), "lambda": None}


@st.composite
def induced_modules(draw):
    """An induced module over gamma0 N <= 30, gamma1 N <= 13 or a random
    permutation subgroup of the n = 4, 5, 6 triangle group, at a weight
    2..6 that keeps its rank at most 200 (90 over Z), over Q, Z, F_2, F_3,
    F_7 or Q(2cos(pi/n)); combinations without a module are rejected."""
    kind = draw(st.sampled_from(["gamma0", "gamma1", "perm"]))
    if kind == "gamma0":
        cosets = gamma0_cosets(draw(st.integers(1, 30)))
    elif kind == "gamma1":
        cosets = gamma1_cosets(draw(st.integers(1, 13)))
    else:
        n, mu = draw(st.sampled_from([4, 5, 6])), draw(st.integers(1, 8))
        rng = random.Random(draw(st.integers(0, 2**32)))
        try:
            group = TriangleSubgroup(n, oracles.random_involution(mu, rng),
                                     oracles.random_order_n_perm(n, mu, rng))
        except InvalidSubgroupError:
            assume(False)
        cosets = PermCosets(group)
    name = draw(st.sampled_from(sorted(ORBIT_RINGS)))
    ring = rational_lambda_ring(cosets.n)[0] if name == "lambda" else ORBIT_RINGS[name]
    # over Z the Smith oracle diagonalizes whole relation matrices, which
    # takes seconds from rank about 100 (gamma1 in weight 3 and up)
    k = draw(st.integers(2, max(2, min(6, 1 + (90 if ring is ZZ else 200) // cosets.mu))))
    try:
        return InducedModule(cosets, weight_module_for(cosets, ring, k))
    except UnsupportedRingError:
        assume(False)


def _key(mat):
    return mat.nrows, mat.ncols, repr(mat.rows)


def _check_orbit_lattices(module):
    # fixed vectors spread from each orbit's stabilizer are the global
    # kernel's echelon (Hermite over Z) basis, entry types included; one
    # coset's norm rows per orbit span the full norm stack's row module
    for name in "stT":
        assert _key(module.fixed_vectors(name)) == _key(oracles.global_fixed_vectors(module, name))
    space = ManinSymbolSpace(module)
    relations, stack = space.presentation.relations, oracles.global_relations(module)
    if module.ring is ZZ:
        assert _key(hermite_basis(relations)) == _key(hermite_basis(stack))
        assert space.presentation.invariants() == oracles.smith_diagonal(stack)
    else:
        (R, piv), (S, spiv) = rref(relations), rref(stack)
        assert piv == spiv and repr(R.rows[: len(piv)]) == repr(S.rows[: len(spiv)])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(induced_modules())
def test_orbit_lattices_match_the_global_forms(module):
    _check_orbit_lattices(module)


@pytest.mark.parametrize("table, ring, k", [
    (lambda tmp: gamma0_cosets(30), ZZ, 2),
    (lambda tmp: gamma0_cosets(23), ZZ, 4),
    (lambda tmp: gamma0_cosets(13), ZZ, 6),
    (lambda tmp: gamma0_cosets(27), GF(3), 6),
    (lambda tmp: gamma1_cosets(13), GF(2), 2),
    (lambda tmp: gamma1_cosets(7), GF(7), 5),
    (lambda tmp: level_one(4), GF(2), 6),
    (lambda tmp: _listed_perm_file(tmp, "n5-mu08-a"), "lambda", 6),
    (lambda tmp: _listed_perm_file(tmp, "n6-mu08-a"), GF(2), 4),
], ids=["gamma0-30-z-k2", "gamma0-23-z-k4", "gamma0-13-z-k6", "gamma0-27-f3-k6", "gamma1-13-f2-k2",
        "gamma1-7-f7-k5", "delta4-f2-k6", "n5-mu08-a-lambda-k6", "n6-mu08-a-f2-k4"])
def test_orbit_lattices_match_the_global_forms_on_pinned_spaces(tmp_path, table, ring, k):
    cosets = table(tmp_path)
    ring = rational_lambda_ring(cosets.n)[0] if ring == "lambda" else ring
    _check_orbit_lattices(InducedModule(cosets, weight_module_for(cosets, ring, k)))


class _OneCoset:
    """A one-coset table of signature 3 whose letters act through given
    cocycles, read with exact signs."""

    n, mu, weight_variant = 3, 1, "plus-minus-one"

    def __init__(self, s, t):
        self.cocycles = {"s": s, "t": t}

    def twist(self, i, letter):
        return 0, self.cocycles[letter]


class _TwoCosets(_OneCoset):
    """Two cosets that tau swaps: a cycle of length 2 under an order 3. The
    subgroup holds the coset permutations a weight-2 module reads."""

    mu = 2
    subgroup = SimpleNamespace(apply_letter=lambda i, letter: 1 - i if letter == "t" else i)

    def twist(self, i, letter):
        return self.subgroup.apply_letter(i, letter), (1, 0, 0, 1)


@pytest.mark.parametrize("cosets, k, name", [
    (gamma0_cosets(11), 3, "sigma"),
    (_OneCoset((1, 0, 0, 1), (-1, 0, 0, -1)), 3, "tau"),
    (_TwoCosets(None, None), 2, "tau"),
])
def test_a_failed_order_check_keeps_its_message(cosets, k, name):
    order = 2 if name == "sigma" else 3
    msg = ("%s does not act with order %d on the induced module; the weight twist "
           "is incompatible with these cosets" % (name, order))
    with pytest.raises(UnsupportedRingError) as err:
        InducedModule(cosets, weight_module_for(cosets, QQ, k))
    assert str(err.value) == msg


@pytest.mark.parametrize("N, products", [(11, 14), (13, 20)])
def test_building_a_module_takes_about_one_product_per_coset_and_letter(monkeypatch, N, products):
    # a walk around each orbit of sigma and tau takes one block product per
    # coset after the first, and each elliptic orbit raises its stabilizer
    # to its order: gamma0(11) has 6 sigma pairs and 4 tau triples (6 + 8
    # products), gamma0(13) has 6 pairs, 4 triples and two fixed points of
    # each (6 + 8 + 2 * 1 + 2 * 2); composing every letter power took 3 mu
    cosets = gamma0_cosets(N)
    weight = weight_module_for(cosets, QQ, 50)
    count, mul = [], Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: count.append(1) or mul(self, other))
    InducedModule(cosets, weight)
    assert len(count) == products


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


@pytest.mark.parametrize("N, k, torsion", [(11, 4, (22,)), (13, 3, (13,)), (7, 5, (14,)), (9, 6, (3, 36))])
def test_gamma1_integral_torsion_agrees_with_every_residue_field(N, k, torsion):
    # diagonalizing the whole relation matrix with its transforms took over
    # a minute on each of these (the transforms grow to 10^5-bit entries);
    # the invariant factors from the Hermite form take a fraction of a
    # second. Over F_p the dimension is the free rank plus the number of
    # invariant factors that p divides.
    cosets = gamma1_cosets(N)
    zspace = space_for(cosets, ZZ, k)
    assert zspace.torsion() == torsion
    for p in (2, 3, 5, 7, 11, 13):
        assert space_for(cosets, GF(p), k).dim() == zspace.rank() + sum(d % p == 0 for d in torsion)


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
    assert space.dim() == cuspidal_subspace(space).module.dim() + eisenstein_subspace(space).dim()


# ---------------------------------------------------------------------------
# sparse-born operators against the textbook matrices
# ---------------------------------------------------------------------------

LAMBDA5 = rational_lambda_ring(5)[0]
OPERATOR_RINGS = [QQ, GF(7), ZZ, LAMBDA5]
SUBGROUPS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "subgroups.json")


def _perm_file(tmp_path, n, s, t):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": n, "s": list(s), "t": list(t)}))
    return PermCosets(load_subgroup(str(path)))


def _listed_perm_file(tmp_path, name):
    with open(SUBGROUPS) as fh:
        g = json.load(fh)[name]
    return _perm_file(tmp_path, g["n"], g["s"], g["t"])


@pytest.mark.parametrize("table, k, rings", [
    (lambda tmp: gamma0_cosets(11), 4, OPERATOR_RINGS),
    (lambda tmp: gamma1_cosets(5), 3, OPERATOR_RINGS),
    # an index-6 n=3 subgroup, where lambda = 1 lies in every ring
    (lambda tmp: _perm_file(tmp, 3, (1, 0, 3, 2, 5, 4), (1, 2, 0, 4, 5, 3)), 4, OPERATOR_RINGS),
    (lambda tmp: _listed_perm_file(tmp, "n5-mu08-a"), 4, [LAMBDA5]),
], ids=["gamma0-11", "gamma1-5", "perm-file-n3", "perm-file-n5"])
def test_sparse_born_operators_match_the_textbook(tmp_path, table, k, rings):
    cosets = table(tmp_path)
    for ring in rings:
        module = InducedModule(cosets, weight_module_for(cosets, ring, k))
        want = oracles.induced_operators(cosets, module.weight)
        got = {name: module.right_matrix(name) for name in "stT"}
        got.update({"D" + x: module.right_difference(x) for x in "stT"})
        got.update({"N" + x: module.norm_matrix(x) for x in "st"})
        for name, mat in got.items():
            rows = want[name]
            assert mat.rows == rows, (ring.kind, name)
            assert mat.sparse_rows() == [{j: x for j, x in enumerate(r) if not ring.is_zero(x)}
                                         for r in rows], (ring.kind, name)
            dense = Matrix(ring, rows, mat.ncols)
            assert matrix_rank(mat) == matrix_rank(dense), (ring.kind, name)
            assert left_kernel(mat) == left_kernel(dense), (ring.kind, name)
