"""Acceptance gate: one test per shipped guarantee.

Every check here is exact (integer or field arithmetic, no tolerances);
the only inexact assertions are wall-clock budgets on the timed criteria.
Each criterion is a single test function named test_criterion_N_*, and the
terminal summary (see conftest.py) prints one pass/fail line per criterion.

The numbered guarantees:

  1. symbol space dimensions equal both cohomology presentations over Q
  2. over Z the three presentations agree up to torsion at small primes
  3. weight-2 cuspidal dimension is twice the genus
  4. cuspidal dimension is twice the classical cusp form dimension
  5. eigenvalue anchors: level 1 weight 12, and the level 11 elliptic curve
  6. path relation fuzz: degenerate, three-term, and group invariance
  7. six-term exact sequence and parabolic rank identity on random groups
  8. characteristic-two anomaly witness on the n = 4 triangle group
  9. Hecke commutation, cuspidal invariance, Eisenstein eigenvalues
"""

import random
import time
from fractions import Fraction

import sympy

from heckesym.congruence import (
    apply_moebius,
    gamma0_cosets,
)
from heckesym.cohomology import (
    comparison_report,
    h1,
    h1_dimension,
    h1_parabolic,
    h1_parabolic_dimension,
    mayer_vietoris,
    surface_h1,
    surface_h1_dimension,
    surface_h1_parabolic_dimension,
)
from heckesym.hecke import eigensystem, hecke_matrix, qexpansions, restrict_operator
from heckesym.linalg import charpoly, left_kernel
from heckesym.modsym import (
    InducedModule,
    PermCosets,
    convert_symbol,
    cuspidal_subspace,
    manin_space,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ
from heckesym.triangle import (
    InvalidSubgroupError,
    TriangleSubgroup,
    mat2_mul,
    mat2_pow,
    sigma_matrix,
    tau_matrix,
)

import oracles

SIGMA = sigma_matrix(ZZ)
TAU = tau_matrix(ZZ, 1)

SWEEP = [(N, k) for N in range(1, 31) for k in (2, 4, 6)]

_cache = {}


def _space(N, k, ring=QQ):
    """Shared rational sweep spaces; criteria 1 and 9 walk the same list."""
    key = (N, k, ring.kind)
    if key not in _cache:
        cosets = gamma0_cosets(N)
        _cache[key] = manin_space(cosets, weight_module_for(cosets, ring, k))
    return _cache[key]


# ---------------------------------------------------------------------------
# 1. symbols = group cohomology = surface cohomology over Q
# ---------------------------------------------------------------------------


def test_criterion_1_symbols_match_cohomology_over_q():
    start = time.monotonic()
    for N, k in SWEEP:
        sp = _space(N, k)
        module = sp.module
        dim_symbols = sp.rank()
        dim_cusp = cuspidal_subspace(sp).module.rank()
        assert dim_symbols == h1_dimension(module), (N, k)
        assert dim_symbols == surface_h1_dimension(module), (N, k)
        assert dim_cusp == h1_parabolic_dimension(module), (N, k)
        assert dim_cusp == surface_h1_parabolic_dimension(module), (N, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "sweep took %.1fs, budget 60s" % elapsed


# ---------------------------------------------------------------------------
# 2. over Z: equal ranks, torsion only at primes dividing 2n (= 6 here,
#    which also covers both stabilizer orders)
# ---------------------------------------------------------------------------


def test_criterion_2_integral_presentations_agree_up_to_small_torsion():
    for N in range(1, 21):
        for k in (2, 4):
            cosets = gamma0_cosets(N)
            sp = manin_space(cosets, weight_module_for(cosets, ZZ, k))
            module = sp.module
            presentations = {
                "symbols": sp.presentation,
                "group": h1(module),
                "surface": surface_h1(module),
            }
            ranks = {name: pres.rank() for name, pres in presentations.items()}
            assert len(set(ranks.values())) == 1, (N, k, ranks)
            for name, pres in presentations.items():
                for d in pres.torsion():
                    for p in sympy.primefactors(d):
                        assert p in (2, 3), (N, k, name, pres.torsion())


# ---------------------------------------------------------------------------
# 3. weight-2 cuspidal dimension = 2 * genus
# ---------------------------------------------------------------------------


def test_criterion_3_cuspidal_dimension_is_twice_the_genus():
    start = time.monotonic()
    for N in (11, 14, 15, 17, 19, 20):
        sp = _space(N, 2)
        genus = sp.cosets.subgroup.genus()
        assert cuspidal_subspace(sp).module.rank() == 2 * genus, N
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "took %.1fs, budget 10s" % elapsed


# ---------------------------------------------------------------------------
# 4. cuspidal dimension = 2 * dim S_k from the classical dimension count
# ---------------------------------------------------------------------------


def test_criterion_4_cuspidal_dimension_is_twice_the_cusp_form_count():
    cases = [(N, k) for N in range(1, 21) for k in (2, 4, 6, 8)] + [(1, 12)]
    for N, k in cases:
        if k in (2, 4, 6):
            sp = _space(N, k)
        else:
            cosets = gamma0_cosets(N)
            sp = manin_space(cosets, weight_module_for(cosets, QQ, k))
        expected = 2 * oracles.classical_cusp_form_dimension(N, k)
        assert cuspidal_subspace(sp).module.rank() == expected, (N, k)


# ---------------------------------------------------------------------------
# 5. eigenvalue anchors: tau(2), tau(3), tau(5) and the level 11 curve
# ---------------------------------------------------------------------------


def test_criterion_5_eigenvalue_anchors():
    start = time.monotonic()

    tau = oracles.ramanujan_tau(6)
    cosets = gamma0_cosets(1)
    sp = manin_space(cosets, weight_module_for(cosets, QQ, 12))
    records = qexpansions(sp, 6)
    assert len(records) == 1
    coeffs = [int(c) for c in records[0].coefficients]
    assert coeffs == tau[1:]
    assert coeffs[1] == -24 and coeffs[2] == 252 and coeffs[4] == 4830

    primes = [2, 3, 5, 7, 13]
    blocks = eigensystem(_space(11, 2), primes)
    assert len(blocks) == 1
    for p in primes:
        a_p = p + 1 - oracles.elliptic_point_count_x0_11(p)
        assert blocks[0].eigenvalues[p] == Fraction(a_p), p

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "took %.1fs, budget 30s" % elapsed


# ---------------------------------------------------------------------------
# 6. path relation fuzz: 200 draws per space, zero failures
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


def test_criterion_6_symbol_relations_hold_on_random_paths():
    rng = random.Random(20260815)
    for N in range(1, 21):
        sp = _space(N, 2)
        pres = sp.presentation
        cosets = sp.cosets
        for _ in range(200):
            a, b, c = (_random_cusp(rng) for _ in range(3))
            assert pres.is_zero_element(convert_symbol(sp, a, a)), N
            three = [
                x + y + z
                for x, y, z in zip(
                    convert_symbol(sp, a, b),
                    convert_symbol(sp, b, c),
                    convert_symbol(sp, c, a),
                )
            ]
            assert pres.is_zero_element(three), N
            gamma = _random_subgroup_element(cosets, rng)
            moved = convert_symbol(
                sp, apply_moebius(gamma, a), apply_moebius(gamma, b)
            )
            plain = convert_symbol(sp, a, b)
            assert pres.is_zero_element(
                [x - y for x, y in zip(moved, plain)]
            ), (N, gamma)


# ---------------------------------------------------------------------------
# 7. six-term exactness and the parabolic rank identity, random groups
# ---------------------------------------------------------------------------


def test_criterion_7_exact_sequence_on_random_subgroups():
    start = time.monotonic()
    rng = random.Random(2026)
    rings = [QQ, GF(2), GF(3), GF(5)]
    found = 0
    while found < 50:
        n = rng.choice([3, 4, 5, 6])
        mu = rng.randrange(2, 19)
        try:
            group = TriangleSubgroup(
                n,
                oracles.random_involution(mu, rng),
                oracles.random_order_n_perm(n, mu, rng),
            )
        except InvalidSubgroupError:
            continue
        found += 1
        cosets = PermCosets(group)
        for ring in rings:
            module = InducedModule(cosets, weight_module_for(cosets, ring, 2))
            rep = mayer_vietoris(module)
            assert rep.exact, (n, mu, ring.kind)
            assert rep.compositions_vanish, (n, mu, ring.kind)
            z_par = left_kernel(
                module.norm_matrix("s").hstack(module.norm_matrix("t"))
            )
            expected = (
                z_par.nrows
                - module.fixed_vectors("T").nrows
                + module.group_fixed_vectors().nrows
            )
            assert h1_parabolic(module).dim() == expected, (n, mu, ring.kind)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, "took %.1fs, budget 120s" % elapsed


# ---------------------------------------------------------------------------
# 8. the n = 4 characteristic-two witness
# ---------------------------------------------------------------------------


def test_criterion_8_characteristic_two_anomaly_witness():
    cosets = PermCosets(TriangleSubgroup.level_one(4))

    spz = manin_space(cosets, weight_module_for(cosets, ZZ, 2))
    assert spz.presentation.rank() == 0
    assert spz.presentation.torsion() == (2,)

    sp2 = manin_space(cosets, weight_module_for(cosets, GF(2), 2))
    rep2 = comparison_report(sp2)
    assert rep2.kernel.rank() == 1
    assert rep2.local_span == 1
    assert rep2.verdict == "kernel spanned by elliptic orbit sums"

    spq = manin_space(cosets, weight_module_for(cosets, QQ, 2))
    assert spq.rank() == 0
    repq = comparison_report(spq)
    assert repq.kernel.rank() == 0
    assert repq.verdict == "isomorphic"


# ---------------------------------------------------------------------------
# 9. Hecke algebra sanity across the whole rational sweep
# ---------------------------------------------------------------------------


def test_criterion_9_hecke_commutation_invariance_eisenstein():
    primes = [2, 3, 5, 7, 11, 13]
    x = sympy.Symbol("x")
    for N, k in SWEEP:
        sp = _space(N, k)
        cusp = cuspidal_subspace(sp)
        mats = {}
        rest = {}
        for p in primes:
            op = hecke_matrix(sp, p)
            mats[p] = op.matrix_on_generators()
            # raises if the operator fails to preserve the cuspidal part
            rest[p] = restrict_operator(op, cusp)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert mats[p].mul(mats[q]) == mats[q].mul(mats[p]), (N, k, p, q)
        if k != 2:
            continue
        eis_dim = sp.rank() - cusp.module.rank()
        # the series E2(z) - d E2(dz) for d | N span a sigma0(N) - 1
        # dimensional piece with T_p eigenvalue p + 1; on squarefree levels
        # that is the whole Eisenstein part, while square levels also carry
        # character pairs with eigenvalue chi(p)(p + 1)
        old_dim = sympy.divisor_count(N) - 1
        squarefree = all(e == 1 for _, e in sympy.factorint(N).items())
        for p in primes:
            if N % p == 0 or eis_dim == 0:
                continue
            quo, rem = sympy.div(
                sympy.Poly(list(reversed(charpoly(mats[p]))), x),
                sympy.Poly(list(reversed(charpoly(rest[p]))), x),
            )
            assert rem.is_zero, (N, p)
            expected = sympy.Poly((x - (p + 1)) ** old_dim, x)
            _, leftover = sympy.div(quo, expected)
            assert leftover.is_zero, (N, p, quo)
            if squarefree:
                assert eis_dim == old_dim, N
                assert quo == sympy.Poly((x - (p + 1)) ** eis_dim, x), (N, p)
