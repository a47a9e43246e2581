import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckesym.rings import ZZ, QQ, GF
from heckesym.triangle import (
    InvalidSubgroupError,
    TriangleSubgroup,
    cyclotomic_polynomial,
    integral_lambda_ring,
    lambda_minimal_polynomial,
    lambda_roots_mod_p,
    load_subgroup,
    mat2_identity,
    mat2_inv_det_one,
    mat2_mul,
    mat2_neg,
    mat2_pow,
    psl_canonical,
    rational_lambda_ring,
    reduce_word,
    save_subgroup,
    sigma_matrix,
    subgroup_from_dict,
    subgroup_to_dict,
    tau_matrix,
    word_matrix,
)

import oracles


# -- lambda rings ----------------------------------------------------------


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", range(3, 13))
def test_lambda_minpoly_matches_sympy(n):
    assert lambda_minimal_polynomial(n) == oracles.minpoly_2cos_pi_over(n)


def test_lambda_minpoly_known():
    assert lambda_minimal_polynomial(3) == (-1, 1)
    assert lambda_minimal_polynomial(4) == (-2, 0, 1)
    assert lambda_minimal_polynomial(5) == (-1, -1, 1)
    assert lambda_minimal_polynomial(6) == (-3, 0, 1)


def test_lambda_roots_mod_p():
    assert lambda_roots_mod_p(4, 7) == [3, 4]  # x^2 = 2 mod 7
    assert lambda_roots_mod_p(4, 5) == []  # 2 is not a square mod 5
    assert lambda_roots_mod_p(3, 11) == [1]


# -- matrix lifts ----------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 9))
def test_lift_relations(n):
    R, lam = integral_lambda_ring(n)
    S = sigma_matrix(R)
    Tau = tau_matrix(R, lam)
    minus = mat2_neg(R, mat2_identity(R))
    assert mat2_mul(R, S, S) == minus
    assert mat2_pow(R, Tau, n) == minus


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_translation_is_canonical_upper_triangular(n):
    R, lam = integral_lambda_ring(n)
    T = mat2_mul(R, tau_matrix(R, lam), sigma_matrix(R))
    assert psl_canonical(R, T) == (R.one, lam, R.zero, R.one)


def test_word_matrix_inverse_exponent():
    R, lam = integral_lambda_ring(5)
    Tau = tau_matrix(R, lam)
    assert mat2_mul(R, mat2_pow(R, Tau, -2), mat2_pow(R, Tau, 2)) == mat2_identity(R)


def test_tau_charpoly_mentions_lambda():
    # trace lam, det 1
    R, lam = rational_lambda_ring(6)
    Tau = tau_matrix(R, lam)
    a, b, c, d = Tau
    assert R.add(a, d) == lam
    assert R.sub(R.mul(a, d), R.mul(b, c)) == R.one


def test_reduce_word():
    assert reduce_word(4, (("s", 1), ("s", 1))) == ()
    assert reduce_word(4, (("t", 3), ("t", 1))) == ()
    assert reduce_word(4, (("t", 3), ("s", 2), ("t", 2))) == (("t", 1),)
    w = (("s", 1), ("t", 2), ("s", 1))
    assert reduce_word(4, w) == w


@settings(max_examples=200)
@given(
    st.integers(3, 7),
    st.lists(st.tuples(st.sampled_from("st"), st.integers(-9, 9)), max_size=12),
)
def test_reduce_word_is_a_normal_form(n, word):
    word = tuple(word)
    out = reduce_word(n, word)
    assert all(a[0] != b[0] for a, b in zip(out, out[1:]))
    assert all(0 < e < (2 if letter == "s" else n) for letter, e in out)
    # sigma^2 and tau^n are -1 in SL_2, so the matrices agree up to sign
    R, lam = integral_lambda_ring(n)
    assert psl_canonical(R, word_matrix(R, lam, out)) == psl_canonical(
        R, word_matrix(R, lam, word)
    )


# -- subgroup validation ---------------------------------------------------


def test_rejects_non_permutation():
    with pytest.raises(InvalidSubgroupError, match="permutation"):
        TriangleSubgroup(3, (0, 0), (0, 1))


def test_rejects_non_involution():
    with pytest.raises(InvalidSubgroupError, match="square"):
        TriangleSubgroup(3, (1, 2, 0), (0, 1, 2))


def test_rejects_wrong_tau_order():
    # a 3-cycle cannot be the tau action when n = 4
    with pytest.raises(InvalidSubgroupError, match="order dividing"):
        TriangleSubgroup(4, (0, 1, 2), (1, 2, 0))


def test_rejects_intransitive():
    with pytest.raises(InvalidSubgroupError, match="transitive"):
        TriangleSubgroup(3, (0, 1), (0, 1))


def test_rejects_small_n():
    with pytest.raises(InvalidSubgroupError):
        TriangleSubgroup(2, (0,), (0,))


# -- level one -------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_level_one_invariants(n):
    G = TriangleSubgroup.level_one(n)
    assert G.mu == 1
    cusps = G.cusp_classes()
    assert len(cusps) == 1 and cusps[0].width == 1
    orders = sorted(e.order for e in G.elliptic_classes())
    assert orders == [2, n]
    assert G.genus() == 0


def test_level_one_genus_vs_orbifold_oracle():
    for n in (3, 4, 5, 6):
        G = TriangleSubgroup.level_one(n)
        ell = [e.order for e in G.elliptic_classes()]
        assert G.genus() == oracles.orbifold_genus(n, G.mu, ell, 1)


# -- an index-6 example worked by hand --------------------------------------
# n = 3, s = (0 1)(2 3)(4 5), t = (0)(1 2 4)(3 5)... must have order 3;
# use the standard Gamma_0(2)-like and a 6-coset subgroup below instead.


def test_index_two_subgroup_of_delta4():
    # s swaps the two cosets, t fixes both: genus 0, two elliptic tau points
    G = TriangleSubgroup(4, (1, 0), (0, 1))
    assert G.mu == 2
    assert len(G.cusp_classes()) == 1
    kinds = sorted((e.kind, e.order) for e in G.elliptic_classes())
    assert kinds == [("tau", 4), ("tau", 4)]
    assert G.genus() == 0
    ell = [e.order for e in G.elliptic_classes()]
    assert G.genus() == oracles.orbifold_genus(4, 2, ell, len(G.cusp_classes()))


@pytest.mark.parametrize("seed", range(40))
def test_random_subgroup_genus_matches_orbifold_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5, 6])
    mu = rng.randrange(2, 15)
    s = oracles.random_involution(mu, rng)
    t = oracles.random_order_n_perm(n, mu, rng)
    try:
        G = TriangleSubgroup(n, s, t)
    except InvalidSubgroupError:
        return  # intransitive sample; nothing to check
    ell = [e.order for e in G.elliptic_classes()]
    cusps = len(G.cusp_classes())
    assert G.genus() == oracles.orbifold_genus(n, mu, ell, cusps)


# -- Schreier words and cocycles --------------------------------------------


def _sample_groups():
    out = [TriangleSubgroup.level_one(3), TriangleSubgroup(4, (1, 0), (0, 1))]
    rng = random.Random(7)
    while len(out) < 6:
        n = rng.choice([3, 4, 5])
        mu = rng.randrange(3, 10)
        try:
            out.append(
                TriangleSubgroup(
                    n,
                    oracles.random_involution(mu, rng),
                    oracles.random_order_n_perm(n, mu, rng),
                )
            )
        except InvalidSubgroupError:
            continue
    return out


def test_schreier_words_reach_their_coset():
    for G in _sample_groups():
        words = G.coset_words()
        assert words[0] == ()
        for i, w in enumerate(words):
            assert G.apply_word(0, w) == i


def test_schreier_order_is_bfs_sigma_then_tau_powers():
    # n = 4, s = (0 1), t = (0 2 3 1)-ish: check coset 2 is found via t not s t
    G = TriangleSubgroup(4, (1, 0, 3, 2), (2, 0, 3, 1))
    words = G.coset_words()
    assert words[1] == (("s", 1),)
    assert words[2] == (("t", 1),)
    assert words[3] == (("t", 2),)


def test_rep_matrices_are_cached_per_ring_value():
    G = TriangleSubgroup(4, (1, 0, 3, 2), (2, 0, 3, 1))
    R1, lam1 = integral_lambda_ring(4)
    R2, lam2 = integral_lambda_ring(4)
    assert R1 is not R2
    assert G.rep_matrices(R1, lam1) is G.rep_matrices(R2, lam2)
    # a different ring gets its own matrices, whatever object ids recur
    Q, lamq = rational_lambda_ring(4)
    assert G.rep_matrices(Q, lamq) is not G.rep_matrices(R1, lam1)
    assert len(G._rep_cache) == 2


def test_rep_matrices_land_in_expected_coset():
    # multiplying rep by a generator must reach the permuted coset's rep
    # up to an element whose permutation action fixes coset 0
    for G in _sample_groups():
        R, lam = integral_lambda_ring(G.n)
        reps = G.rep_matrices(R, lam)
        assert reps[0] == mat2_identity(R)
        for i in range(G.mu):
            for letter in ("s", "t"):
                M, j = G.cocycle_matrix(R, lam, i, ((letter, 1),))
                # M = r_i g r_j^{-1} must fix coset 0 under the action
                word_m, j2 = G.cocycle_word(i, ((letter, 1),))
                assert j2 == j
                assert G.apply_word(0, word_m) == 0
                # and the two cocycle routes agree up to projective sign
                assert psl_canonical(R, word_matrix(R, lam, word_m)) == M


def test_cocycle_multiplicative_up_to_sign():
    rng = random.Random(11)
    for G in _sample_groups():
        R, lam = integral_lambda_ring(G.n)
        for _ in range(20):
            w1 = tuple(
                (rng.choice("st"), rng.randrange(1, G.n)) for _ in range(rng.randrange(1, 4))
            )
            w2 = tuple(
                (rng.choice("st"), rng.randrange(1, G.n)) for _ in range(rng.randrange(1, 4))
            )
            i = rng.randrange(G.mu)
            g1, j1 = G.cocycle_matrix(R, lam, i, w1)
            g2, j2 = G.cocycle_matrix(R, lam, j1, w2)
            g12, j12 = G.cocycle_matrix(R, lam, i, w1 + w2)
            assert j12 == j2
            assert psl_canonical(R, mat2_mul(R, g1, g2)) == g12


def test_cocycle_at_identity_word():
    G = TriangleSubgroup.level_one(5)
    R, lam = integral_lambda_ring(5)
    M, j = G.cocycle_matrix(R, lam, 0, (("s", 1),))
    assert j == 0
    assert M == psl_canonical(R, sigma_matrix(R))


# -- cusp / elliptic bookkeeping ---------------------------------------------


def test_cusp_widths_sum_to_index():
    for G in _sample_groups():
        assert sum(c.width for c in G.cusp_classes()) == G.mu


def test_elliptic_orders_divide_n():
    for G in _sample_groups():
        for e in G.elliptic_classes():
            if e.kind == "sigma":
                assert e.order == 2
            else:
                assert e.order > 1 and G.n % e.order == 0
                assert e.power * e.order == G.n


# -- file format -------------------------------------------------------------


def test_perm_file_round_trip(tmp_path):
    G = TriangleSubgroup(4, (1, 0, 3, 2), (2, 0, 3, 1))
    path = tmp_path / "group.json"
    save_subgroup(G, path)
    H = load_subgroup(path)
    assert (H.n, H.s, H.t, H.mu) == (G.n, G.s, G.t, G.mu)
    # bit-exact: saving the loaded group reproduces the same bytes
    path2 = tmp_path / "again.json"
    save_subgroup(H, path2)
    assert path.read_bytes() == path2.read_bytes()
    data = json.loads(path.read_text())
    assert set(data) == {"n", "mu", "s", "t"}
    assert data["mu"] == 4


def test_perm_file_rejects_bad_mu():
    with pytest.raises(InvalidSubgroupError, match="mu"):
        subgroup_from_dict({"n": 3, "mu": 5, "s": [0], "t": [0]})


def test_perm_file_requires_all_fields():
    with pytest.raises(InvalidSubgroupError, match="n, s, t"):
        subgroup_from_dict({"n": 3, "mu": 1, "s": [0]})
    with pytest.raises(InvalidSubgroupError, match="mu does not match"):
        subgroup_from_dict({"n": 3, "mu": 2, "s": [0], "t": [0]})
    assert subgroup_from_dict({"n": 3, "s": [0], "t": [0]}).mu == 1


def test_round_trip_dict():
    G = TriangleSubgroup.level_one(6)
    assert subgroup_from_dict(subgroup_to_dict(G)).mu == 1
