import random
from fractions import Fraction

import pytest

from heckesym.congruence import (
    CongruenceCosets,
    apply_moebius,
    cd_pair_list,
    continued_fraction_path,
    convergent_segments,
    diamond_matrix,
    gamma0_cosets,
    gamma1_cosets,
    hecke_representatives,
    lift_to_sl2,
    p1_list,
    segment_endpoints,
)
from heckesym.rings import ZZ
from heckesym.triangle import (
    mat2_det,
    mat2_identity,
    mat2_inv_det_one,
    mat2_mul,
    mat2_pow,
    sigma_matrix,
    tau_matrix,
)

import oracles

IDENTITY = mat2_identity(ZZ)
SIGMA = sigma_matrix(ZZ)
TAU = tau_matrix(ZZ, 1)


# -- projective line ---------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 8, 11, 12, 15, 20, 24, 25])
def test_p1_size_matches_brute_force(N):
    assert len(p1_list(N)) == oracles.projective_line_size(N)


@pytest.mark.parametrize("N", [2, 3, 4, 6, 9, 10, 12])
def test_p1_reps_are_orbit_minima(N):
    orbits = {frozenset(o): min(o) for o in oracles.brute_p1_classes(N)}
    assert sorted(orbits.values()) == p1_list(N)


def test_coset_of_is_constant_on_orbits():
    N = 12
    cosets = gamma0_cosets(N)
    for orbit in oracles.brute_p1_classes(N):
        idx = {cosets.coset_of(c, d) for c, d in orbit}
        assert len(idx) == 1
        assert cosets.labels[idx.pop()] in orbit


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_cd_pairs_match_their_definition(N):
    assert len(cd_pair_list(N)) == oracles.gamma1_pair_count(N)


def test_cd_pairs_equal_p1_for_small_levels():
    for N in (1, 2):
        assert cd_pair_list(N) == p1_list(N)


# -- lifts -------------------------------------------------------------------


def test_lift_golden_values():
    for N in (2, 5, 9, 11):
        assert lift_to_sl2(0, 1, N) == IDENTITY
    assert lift_to_sl2(1, 0, 2) == (0, -1, 1, 0)
    assert lift_to_sl2(1, 1, 2) == (1, 0, 1, 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 11, 12, 18, 24, 30])
def test_lift_properties(N):
    for c, d in p1_list(N):
        M = lift_to_sl2(c, d, N)
        assert mat2_det(ZZ, M) == 1
        assert (M[2] - c) % N == 0 and (M[3] - d) % N == 0


def test_lift_rejects_bad_point():
    with pytest.raises(ValueError):
        lift_to_sl2(2, 4, 8)


# -- coset tables -------------------------------------------------------------


def test_sigma_action_on_labels():
    cos = gamma0_cosets(7)
    for i, (c, d) in enumerate(cos.labels):
        j, gamma = cos.act(i, SIGMA)
        assert j == cos.coset_of(d, -c)
        assert mat2_det(ZZ, gamma) == 1


@pytest.mark.parametrize("N", [2, 3, 5, 6, 7, 11, 12])
def test_gamma0_matches_classical_invariants(N):
    mu, eps2, eps3, cusps, genus = oracles.gamma_invariants(N, "gamma0")
    cos = gamma0_cosets(N)
    G = cos.subgroup
    assert G.mu == mu
    assert len(G.cusp_classes()) == cusps
    ell = G.elliptic_classes()
    assert sum(1 for e in ell if e.order == 2) == eps2
    assert sum(1 for e in ell if e.order == 3) == eps3
    assert G.genus() == genus


@pytest.mark.parametrize("N", [3, 5, 6, 7, 8, 10, 13])
def test_gamma1_matches_classical_invariants(N):
    mu, eps2, eps3, cusps, genus = oracles.gamma_invariants(N, "gamma1")
    G = gamma1_cosets(N).subgroup
    assert G.mu == mu
    assert len(G.cusp_classes()) == cusps
    ell = G.elliptic_classes()
    assert sum(1 for e in ell if e.order == 2) == eps2
    assert sum(1 for e in ell if e.order == 3) == eps3
    assert G.genus() == genus


def test_gamma0_11_shape():
    G = gamma0_cosets(11).subgroup
    assert G.mu == 12
    assert G.genus() == 1
    assert len(G.cusp_classes()) == 2
    assert G.elliptic_classes() == []


def test_gamma1_4_has_six_cosets():
    # six (c,d) pairs mod +-1 at level 4; the classical index formula agrees
    assert len(cd_pair_list(4)) == 6
    assert oracles.gamma_invariants(4, "gamma1")[0] == 6


def test_cocycle_is_multiplicative():
    rng = random.Random(3)
    cos = gamma0_cosets(9)
    mats = [SIGMA, TAU, mat2_mul(ZZ, TAU, SIGMA), mat2_inv_det_one(ZZ, TAU)]
    for _ in range(50):
        g, h = rng.choice(mats), rng.choice(mats)
        i = rng.randrange(cos.mu)
        j, gamma_g = cos.act(i, g)
        k, gamma_h = cos.act(j, h)
        k2, gamma_gh = cos.act(i, mat2_mul(ZZ, g, h))
        assert k2 == k
        assert mat2_mul(ZZ, gamma_g, gamma_h) == gamma_gh


def test_gamma1_cocycle_lands_in_gamma1():
    cos = gamma1_cosets(5)
    for i in range(cos.mu):
        for mat in (SIGMA, TAU):
            j, gamma = cos.act(i, mat)
            a, b, c, d = gamma
            assert c % 5 == 0
            assert (a % 5, d % 5) in {(1, 1), (4, 4)}


def test_act_letter_matches_permutation():
    cos = gamma0_cosets(6)
    G = cos.subgroup
    for i in range(cos.mu):
        assert cos.act_letter(i, "s")[0] == G.s[i]
        assert cos.act_letter(i, "t")[0] == G.t[i]


# -- paths between cusps -------------------------------------------------------


def test_path_golden_zero_to_infinity():
    assert continued_fraction_path(Fraction(0), None) == [(IDENTITY, 1)]


def test_path_golden_infinity_to_zero():
    assert continued_fraction_path(None, Fraction(0)) == [(IDENTITY, -1)]


def test_convergent_segments_telescope():
    x = Fraction(57, 44)
    segs = convergent_segments(x)
    prev_end = None  # infinity
    for g, sign in segs:
        assert sign == 1
        assert mat2_det(ZZ, g) == 1
        start, end = segment_endpoints(g)
        assert start == prev_end
        prev_end = end
    assert prev_end == x


def _chain_boundary(path):
    total = {}
    for g, s in path:
        start, end = segment_endpoints(g)
        total[end] = total.get(end, 0) + s
        total[start] = total.get(start, 0) - s
    return {pt: c for pt, c in total.items() if c}


@pytest.mark.parametrize("seed", range(10))
def test_random_paths_have_correct_boundary(seed):
    rng = random.Random(seed)
    pts = [None, Fraction(0)]
    for _ in range(6):
        pts.append(Fraction(rng.randrange(-99, 100), rng.randrange(1, 60)))
    for alpha in pts:
        for beta in pts:
            path = continued_fraction_path(alpha, beta)
            expected = {} if alpha == beta else {beta: 1, alpha: -1}
            assert _chain_boundary(path) == expected


def test_path_length_bound():
    alpha, beta = Fraction(355, 113), Fraction(-57, 44)
    bound = 2 + len(convergent_segments(alpha)) + len(convergent_segments(beta))
    assert len(continued_fraction_path(alpha, beta)) <= bound


def test_apply_moebius():
    assert apply_moebius(SIGMA, None) == 0
    assert apply_moebius(SIGMA, Fraction(0)) is None
    assert apply_moebius((2, 1, 1, 1), Fraction(1)) == Fraction(3, 2)


# -- Hecke representatives -----------------------------------------------------


def test_hecke_representatives_coprime_level():
    reps = hecke_representatives(3, 11)
    assert len(reps) == 4
    assert all(mat2_det(ZZ, m) == 3 for m in reps)


def test_hecke_representatives_dividing_level():
    reps = hecke_representatives(3, 12)
    assert len(reps) == 3
    assert all(mat2_det(ZZ, m) == 3 for m in reps)


def test_diamond_matrix_congruence():
    N = 11
    for d in (2, 3, 10):
        M = diamond_matrix(d, N)
        assert mat2_det(ZZ, M) == 1
        assert M[2] % N == 0 and M[3] % N == d % N
        # determinant 1 forces the top-left entry to be d^{-1} mod N
        assert (M[0] * d) % N == 1


def test_imat_pow_negative():
    assert mat2_mul(ZZ, mat2_pow(ZZ, TAU, -2), mat2_pow(ZZ, TAU, 2)) == IDENTITY
