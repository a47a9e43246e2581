"""Hecke operators and q-expansions: eigenvalue anchors, structure, gates.

The eigenvalue goldens come from three independent oracle routes that are
cross-checked against each other below: the discriminant product for tau,
point counts on the conductor-11 curve, and eta-product power series for
the weight 3 and 4 forms. Everything else is structural: commutation,
invariance, double-coset well-definedness, diamond relations, and the
refusal to extend scalars when a polynomial does not split.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heckesym import hecke
from heckesym.congruence import gamma0_cosets, gamma1_cosets
from heckesym.hecke import (
    LazyOperator,
    _evaluate_at,
    diamond_operator,
    eigensystem,
    hecke_matrix,
    qexpansions,
    restrict_operator,
    sturm_bound,
)
from heckesym.linalg import (
    FPMap,
    FPModule,
    IllDefinedMapError,
    InternalInvariantError,
    Matrix,
    RowBasis,
    charpoly,
)
from heckesym.modsym import (
    PermCosets,
    Subspace,
    cuspidal_subspace,
    manin_space,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ, UnsupportedRingError, is_prime
from heckesym.triangle import TriangleSubgroup, rational_lambda_ring

import oracles


def space_for(cosets, ring, k):
    return manin_space(cosets, weight_module_for(cosets, ring, k))


def as_ints(values):
    out = []
    for v in values:
        f = Fraction(v)
        assert f.denominator == 1
        out.append(int(f))
    return out


# ---------------------------------------------------------------------------
# the coefficient oracles agree with each other
# ---------------------------------------------------------------------------


def test_eta_oracle_reproduces_tau():
    assert oracles.eta_product_coefficients([(1, 24)], 12) == oracles.ramanujan_tau(12)[1:]


def test_eta_oracle_level_11_matches_point_counts():
    coeffs = oracles.eta_product_coefficients([(1, 2), (11, 2)], 13)
    for p in (2, 3, 5, 7, 13):
        assert coeffs[p - 1] == p + 1 - oracles.elliptic_point_count_x0_11(p)


def test_eta_oracle_frozen_expansions():
    assert oracles.eta_product_coefficients([(1, 3), (7, 3)], 8) == [1, -3, 0, 5, 0, 0, -7, -3]
    assert oracles.eta_product_coefficients([(1, 4), (5, 4)], 10) == [1, -4, 2, 8, -5, -8, 6, 0, -23, 20]


# ---------------------------------------------------------------------------
# eigenvalue anchors
# ---------------------------------------------------------------------------


def test_level_one_weight_12_tau():
    sp = space_for(gamma0_cosets(1), QQ, 12)
    blocks = eigensystem(sp, [2, 3, 5])
    assert len(blocks) == 1
    blk = blocks[0]
    assert blk.dim == 2 and blk.diagonal
    tau = oracles.ramanujan_tau(5)
    assert blk.eigenvalues == {2: tau[2], 3: tau[3], 5: tau[5]}
    assert blk.factors == {}


def test_level_one_weight_12_charpoly():
    sp = space_for(gamma0_cosets(1), QQ, 12)
    t2 = restrict_operator(hecke_matrix(sp, 2), cuspidal_subspace(sp))
    # (x + 24)^2
    assert [int(c) for c in charpoly(t2)] == [576, 48, 1]


def test_level_11_eigenvalues_match_point_counts():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    primes = [2, 3, 5, 7, 13]
    blocks = eigensystem(sp, primes)
    assert len(blocks) == 1 and blocks[0].dim == 2
    for p in primes:
        ap = p + 1 - oracles.elliptic_point_count_x0_11(p)
        assert blocks[0].eigenvalues[p] == ap


def test_level_11_qexpansion_matches_eta_product():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    records = qexpansions(sp, 15)
    assert len(records) == 1
    got = as_ints(records[0].coefficients)
    assert got == oracles.eta_product_coefficients([(1, 2), (11, 2)], 15)


def test_level_11_u11_eigenvalue():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    blocks = eigensystem(sp, [11])
    a11 = oracles.eta_product_coefficients([(1, 2), (11, 2)], 11)[10]
    assert blocks[0].eigenvalues == {11: a11}


def test_weight_4_level_5_qexpansion():
    # covers the degree-2 coefficient action, U_5, and the p^(k-1) recurrence
    sp = space_for(gamma0_cosets(5), QQ, 4)
    records = qexpansions(sp, 12)
    assert len(records) == 1 and records[0].block.dim == 2
    assert as_ints(records[0].coefficients) == oracles.eta_product_coefficients(
        [(1, 4), (5, 4)], 12
    )


# ---------------------------------------------------------------------------
# odd weight with character
# ---------------------------------------------------------------------------


def test_gamma1_7_weight_3_cm_form():
    sp = space_for(gamma1_cosets(7), QQ, 3)
    cusp = cuspidal_subspace(sp)
    assert cusp.ambient_rows.nrows == oracles.odd_weight_dims_gamma1(7, 3)[0]
    records = qexpansions(sp, 8)
    assert len(records) == 1
    rec = records[0]
    assert rec.block.dim == 2
    assert as_ints(rec.coefficients) == oracles.eta_product_coefficients([(1, 3), (7, 3)], 8)
    # the nebentypus is the quadratic residue character mod 7; 7 maps to 0
    for p in (2, 3, 5):
        assert rec.character[p] == oracles.legendre_symbol(p, 7)
    assert rec.character[7] == 0


def verify_operator(op):
    """Check the full operator against the relations, row by row."""
    FPMap(op.src, op.dst, op.ambient, check=True)


def test_gamma1_odd_weight_well_defined():
    sp = space_for(gamma1_cosets(5), QQ, 3)
    verify_operator(hecke_matrix(sp, 2))
    verify_operator(hecke_matrix(sp, 5))  # U_p path
    verify_operator(diamond_operator(sp, 2))


def test_diamond_relations_gamma1_5():
    sp = space_for(gamma1_cosets(5), QQ, 3)
    d = {a: diamond_operator(sp, a).matrix_on_generators() for a in (1, 2, 3, 4)}
    ident = Matrix.identity(QQ, d[1].nrows)
    assert d[1] == ident
    assert d[2].mul(d[2]) == d[4]
    assert d[2].mul(d[4]) == d[3]  # 8 = 3 mod 5
    assert d[3].mul(d[2]) == d[1]  # 6 = 1 mod 5
    # -1 acts by (-1)^k in weight 3
    assert d[4] == ident.scale(Fraction(-1))


def test_diamond_trivial_on_gamma0():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    assert diamond_operator(sp, 3).matrix_on_generators() == Matrix.identity(QQ, sp.dim())


# ---------------------------------------------------------------------------
# structure: commutation, invariance, Eisenstein eigenvalues
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "maker,N,k,p,q",
    [
        (gamma0_cosets, 11, 2, 2, 3),
        (gamma0_cosets, 14, 2, 2, 7),  # q divides the level
        (gamma0_cosets, 5, 4, 2, 5),
        (gamma1_cosets, 5, 3, 2, 3),
        (gamma1_cosets, 7, 3, 3, 7),
    ],
)
def test_hecke_operators_commute(maker, N, k, p, q):
    sp = space_for(maker(N), QQ, k)
    mp = hecke_matrix(sp, p).matrix_on_generators()
    mq = hecke_matrix(sp, q).matrix_on_generators()
    assert mp.mul(mq) == mq.mul(mp)


def test_hecke_commutes_with_diamond():
    sp = space_for(gamma1_cosets(5), QQ, 3)
    t2 = hecke_matrix(sp, 2).matrix_on_generators()
    d3 = diamond_operator(sp, 3).matrix_on_generators()
    assert t2.mul(d3) == d3.mul(t2)


def test_hecke_ambient_is_integral():
    for sp in (space_for(gamma0_cosets(11), QQ, 2), space_for(gamma1_cosets(7), QQ, 3)):
        ambient = hecke_matrix(sp, 2).ambient
        assert all(Fraction(x).denominator == 1 for row in ambient.rows for x in row)


def test_cuspidal_subspace_is_invariant():
    # restrict_operator raises if an image row leaves the subspace span
    for N, k in [(11, 2), (14, 2), (5, 4)]:
        sp = space_for(gamma0_cosets(N), QQ, k)
        cusp = cuspidal_subspace(sp)
        for p in (2, 3):
            restrict_operator(hecke_matrix(sp, p), cusp)


def _eisenstein_quotient(sp, p):
    """charpoly(T_p on symbols) / charpoly(T_p on cuspidal), via sympy."""
    full = charpoly(hecke_matrix(sp, p).matrix_on_generators())
    cusp = charpoly(restrict_operator(hecke_matrix(sp, p), cuspidal_subspace(sp)))
    x = sympy.Symbol("x")
    quo, rem = sympy.div(
        sympy.Poly(list(reversed(full)), x), sympy.Poly(list(reversed(cusp)), x)
    )
    assert rem.is_zero
    return [int(c) for c in reversed(quo.all_coeffs())]


def test_eisenstein_eigenvalue_weight_2():
    # one Eisenstein class at prime level, eigenvalue p + 1
    sp = space_for(gamma0_cosets(11), QQ, 2)
    for p in (2, 3, 5):
        assert _eisenstein_quotient(sp, p) == [-(p + 1), 1]


def test_eisenstein_eigenvalue_weight_4():
    # two cusps, both Eisenstein series have T_2 eigenvalue 1 + 2^3
    sp = space_for(gamma0_cosets(5), QQ, 4)
    assert _eisenstein_quotient(sp, 2) == [81, -18, 1]


# ---------------------------------------------------------------------------
# lazily assembled operators
# ---------------------------------------------------------------------------


def _restrict_by_ambient_images(ambient, presentation, subspace):
    """The restriction formula from ambient images: reduce the full image of
    each subspace generator, then express it in the row basis of the reduced
    generators."""
    src, gens = presentation, subspace.ambient_rows
    reduced = Matrix(src.ring, [list(src.reduce(g)) for g in gens.rows], src.ncoords())
    basis = RowBasis(reduced)
    images = [list(src.reduce(ambient.act_on_row(g))) for g in gens.rows]
    return Matrix(src.ring, [basis.express(v) for v in images], gens.nrows)


@pytest.mark.parametrize(
    "maker,N,ring,k,ops",
    [
        (gamma0_cosets, 11, QQ, 2, [("T", 2), ("T", 11)]),
        (gamma0_cosets, 23, QQ, 2, [("T", 3)]),
        (gamma0_cosets, 30, QQ, 2, [("T", 2), ("T", 7)]),
        (gamma0_cosets, 15, QQ, 4, [("T", 2), ("T", 5)]),
        (gamma0_cosets, 22, QQ, 4, [("T", 3)]),
        (gamma0_cosets, 7, QQ, 6, [("T", 2), ("T", 7)]),
        (gamma0_cosets, 10, QQ, 6, [("T", 3)]),
        (gamma1_cosets, 7, QQ, 3, [("T", 2), ("T", 7), ("D", 3)]),
        (gamma1_cosets, 5, QQ, 3, [("T", 2), ("T", 5), ("D", 2), ("D", 3), ("D", 4)]),
        (gamma0_cosets, 47, GF(7), 2, [("T", 2), ("T", 47)]),
    ],
)
def test_lazy_operator_matches_its_full_ambient(maker, N, ring, k, ops):
    sp = space_for(maker(N), ring, k)
    cusp = cuspidal_subspace(sp)
    # the same classes, written with relation rows added: their support
    # reaches coordinates that are not free generators
    rel = sp.presentation.relations.rows
    shifted_rows = [
        [ring.add(x, y) for x, y in zip(g, rel[i % len(rel)])]
        for i, g in enumerate(cusp.ambient_rows.rows)
    ]
    shifted = Subspace(cusp.module, Matrix(ring, shifted_rows, sp.presentation.ngens))
    for kind, value in ops:
        build = hecke_matrix if kind == "T" else diamond_operator
        lazy, lazy_shifted = build(sp, value), build(sp, value)
        got = (
            lazy.matrix_on_generators(),
            restrict_operator(lazy, cusp),
            restrict_operator(lazy_shifted, shifted),
        )
        ambient = build(sp, value).ambient
        # over Q the rows summed on ints come back as Fractions, like the
        # rest of the library's rational matrices
        assert all(type(x) is type(ring.zero) for row in ambient.rows for x in row)
        full = FPMap(sp.presentation, sp.presentation, ambient, check=False)
        restricted = _restrict_by_ambient_images(ambient, sp.presentation, cusp)
        assert restricted == _restrict_by_ambient_images(ambient, sp.presentation, shifted)
        assert got == (full.matrix_on_generators(), restricted, restricted)
        assert restrict_operator(full, cusp) == restrict_operator(full, shifted) == restricted


def _integral_cuspidal_generators(N):
    """The rational cuspidal generators of gamma0:N in weight 2 (integral
    rows), as a subspace of the integral symbol space, with both spaces."""
    sp_q, sp_z = space_for(gamma0_cosets(N), QQ, 2), space_for(gamma0_cosets(N), ZZ, 2)
    cusp = cuspidal_subspace(sp_q)
    rows = [[int(x) for x in row] for row in cusp.ambient_rows.rows]
    assert [[Fraction(x) for x in row] for row in rows] == cusp.ambient_rows.rows
    return sp_q, cusp, sp_z, Subspace(None, Matrix(ZZ, rows, sp_z.presentation.ngens))


@pytest.mark.parametrize("N", [11, 23])
def test_integral_restriction_equals_the_rational_one(N):
    sp_q, cusp_q, sp_z, cusp_z = _integral_cuspidal_generators(N)
    for p in (2, 3):
        rational = restrict_operator(hecke_matrix(sp_q, p), cusp_q)
        assert restrict_operator(hecke_matrix(sp_z, p), cusp_z) == rational


def test_integral_restriction_refuses_generators_with_relations():
    # over Z the cuspidal kernel of gamma0:23 comes as 23 generators with
    # relations for a rank-4 lattice: no unique matrix on those generators
    sp = space_for(gamma0_cosets(23), ZZ, 2)
    cusp = cuspidal_subspace(sp)
    assert cusp.module.rank() == 4 and not cusp.module.relations.is_zero()
    with pytest.raises(UnsupportedRingError, match="relations"):
        restrict_operator(hecke_matrix(sp, 2), cusp)


def test_restriction_to_a_non_invariant_subspace_is_refused():
    # T_2 on S_2(Gamma_0(23)) has eigenvalues (-1 +- sqrt 5)/2, so no line
    # of cuspidal symbols is invariant, over Q or over Z
    sp_q, cusp_q, sp_z, cusp_z = _integral_cuspidal_generators(23)
    for sp, cusp in ((sp_q, cusp_q), (sp_z, cusp_z)):
        gens = cusp.ambient_rows
        line = Subspace(None, Matrix(gens.ring, gens.rows[:1], gens.ncols))
        with pytest.raises(IllDefinedMapError):
            restrict_operator(hecke_matrix(sp, 2), line)


def test_generator_matrix_is_reduced_once(monkeypatch):
    sp = space_for(gamma0_cosets(11), QQ, 4)
    cusp = cuspidal_subspace(sp)
    op = hecke_matrix(sp, 2)
    calls = []
    reduce = FPModule.reduce

    def counted(self, vec):
        calls.append(len(vec))
        return reduce(self, vec)

    monkeypatch.setattr(FPModule, "reduce", counted)
    mat = op.matrix_on_generators()
    assert len(calls) == mat.nrows > 0
    assert op.matrix_on_generators() is mat and len(calls) == mat.nrows
    # the restriction reduces the subspace generators and no operator row
    restrict_operator(op, cusp)
    assert len(calls) == mat.nrows + cusp.ambient_rows.nrows


def test_lazy_operator_splits_only_generator_cosets(monkeypatch):
    sp = space_for(gamma0_cosets(37), QQ, 2)
    free = sp.presentation.free_generators()
    built = []
    operator_rows = hecke._operator_rows

    def counted(space, mats, rows):
        built.extend(sorted({r // space.module.block for r in rows}))
        return operator_rows(space, mats, rows)

    monkeypatch.setattr(hecke, "_operator_rows", counted)
    op = hecke_matrix(sp, 2)
    mat = op.matrix_on_generators()
    # weight 2: one coordinate per coset, and only the cosets that own a
    # free generator are built
    assert built == sorted(free) and len(free) < sp.cosets.mu
    assert "ambient" not in vars(op)
    assert restrict_operator(op, cuspidal_subspace(sp)).nrows == 4
    assert built == sorted(free)
    # .ambient builds the rest, each coset once
    assert op.ambient.nrows == sp.cosets.mu
    assert sorted(built) == list(range(sp.cosets.mu))
    full = FPMap(sp.presentation, sp.presentation, op.ambient, check=False)
    assert full.matrix_on_generators() == mat


@pytest.mark.parametrize(
    "maker,N,k",
    [(gamma0_cosets, 11, 2), (gamma0_cosets, 11, 4), (gamma1_cosets, 5, 3)],
)
def test_check_verifies_the_full_operator(maker, N, k):
    sp = space_for(maker(N), QQ, k)
    verify_operator(hecke_matrix(sp, 2))
    verify_operator(hecke_matrix(sp, N))
    verify_operator(diamond_operator(sp, 2))
    # translation by a matrix that does not normalize the subgroup
    with pytest.raises(IllDefinedMapError):
        verify_operator(LazyOperator(sp, [(1, 0, 1, 1)]))


# -- Heilbronn matrices against the continued-fraction paths ---------------------

HEILBRONN_SIZES = {2: 4, 3: 6, 5: 12, 7: 18, 11: 30, 13: 38, 1009: 5476}


@pytest.mark.parametrize("p", sorted(HEILBRONN_SIZES))
def test_heilbronn_matrices_have_determinant_p(p):
    mats = hecke._heilbronn(p)
    assert len(mats) == HEILBRONN_SIZES[p]
    assert all(a * d - b * c == p for a, b, c, d in mats)


def test_heilbronn_matrices_at_2():
    assert hecke._heilbronn(2) == ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))


def test_heilbronn_list_is_cached_within_a_bound():
    assert hecke._heilbronn.cache_info().maxsize is not None
    assert hecke._heilbronn(13) is hecke._heilbronn(13)
    # about p log p matrices, each from one rounding step
    start = time.perf_counter()
    mats = hecke._heilbronn.__wrapped__(10007)
    assert time.perf_counter() - start < 1.0
    assert len(mats) == 67698


@st.composite
def _hecke_cases(draw):
    """(cosets maker, N, k, ring, p): gamma0 of level at most 20 in even
    weight, gamma1 of level at most 13 in any weight up to 8 (odd ones
    from level 3, where the subgroup misses -1), p <= 13."""
    if draw(st.booleans()):
        maker, N, k = gamma0_cosets, draw(st.integers(1, 20)), draw(st.sampled_from([2, 4, 6, 8]))
    else:
        maker, N = gamma1_cosets, draw(st.integers(1, 13))
        k = draw(st.integers(2, 8) if N > 2 else st.sampled_from([2, 4, 6, 8]))
    ring = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    return maker, N, k, ring, draw(st.sampled_from([2, 3, 5, 7, 11, 13]))


@settings(max_examples=30, deadline=None)
@given(_hecke_cases())
@example((gamma0_cosets, 15, 4, QQ, 5))  # U_p
@example((gamma0_cosets, 14, 2, GF(7), 7))  # U_p at p = char
@example((gamma1_cosets, 7, 3, GF(7), 7))
@example((gamma1_cosets, 13, 5, GF(3), 3))  # p = char, odd weight
@example((gamma1_cosets, 10, 8, GF(2), 2))
@example((gamma0_cosets, 20, 6, QQ, 13))
def test_heilbronn_rows_agree_with_the_path_oracle(case):
    # every ambient row of the Heilbronn operator differs from the
    # double-coset sum over continued-fraction paths by relations only
    maker, N, k, ring, p = case
    sp = space_for(maker(N), ring, k)
    pres = sp.presentation
    op = hecke_matrix(sp, p)
    expected = oracles.hecke_rows_by_paths(sp, p, range(pres.ngens))
    for r, row in enumerate(op.ambient.rows):
        assert pres.reduce(row) == pres.reduce(expected[r]), r
    verify_operator(op)


def test_zero_dimensional_space_charpoly():
    sp = space_for(gamma0_cosets(1), QQ, 2)
    assert charpoly(hecke_matrix(sp, 2).matrix_on_generators()) == [1]


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_poly_apply_matches_the_power_sum(ring):
    # the integer Horner gives L d^m f(mat), mat = A / d and L the common
    # denominator of the coefficients of f; over F_p, f(mat) itself
    rng = random.Random(5)

    def entry():
        if ring is QQ:
            return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        return ring.of_int(rng.randint(-4, 4))

    for degree in (1, 2, 3, 4):
        for n in (1, 3, 4):
            mat = Matrix(ring, [[entry() for _ in range(n)] for _ in range(n)])
            coeffs = [entry() for _ in range(degree)] + [ring.one]
            expected = Matrix(ring, [[ring.zero] * n for _ in range(n)])
            power = Matrix.identity(ring, n)
            for c in coeffs:
                expected = expected.add(power.scale(c))
                power = power.mul(mat)
            scale = 1
            if ring is QQ:
                d = mat.integer_form()[1]
                scale = math.lcm(*(c.denominator for c in coeffs)) * d**degree
            assert _evaluate_at(ring, coeffs, mat) == expected.scale(ring.of_int(scale))


# ---------------------------------------------------------------------------
# eigensystem refinement and honesty
# ---------------------------------------------------------------------------


# x^2 + 1 and x^2 + x + 3, irreducible over Q and over F_7
_QUADRATICS = [(1, 0, 1), (3, 1, 1)]

_PIECE = st.one_of(
    st.tuples(st.just("jordan"), st.integers(-3, 3), st.integers(1, 3)),
    st.tuples(st.just("companion"), st.sampled_from(_QUADRATICS), st.integers(1, 2)),
)


def _random_block(ring, pieces, seed):
    """A dense square matrix similar to the block sum of the pieces: Jordan
    blocks (eigenvalue, size) and companion matrices of g^power for an
    irreducible quadratic g; over Q conjugated by a diagonal as well, so
    that its entries have denominators."""
    blocks = []
    for kind, a, size in pieces:
        if kind == "jordan":
            blocks.append([[a if i == j else (1 if j == i + 1 else 0) for j in range(size)] for i in range(size)])
        else:
            h = [1]
            for _ in range(size):
                h = [sum(h[i] * a[j - i] for i in range(len(h)) if 0 <= j - i < len(a)) for j in range(len(h) + 2)]
            m = len(h) - 1
            blocks.append([[1 if j == i + 1 else 0 for j in range(m)] for i in range(m - 1)] + [[-c for c in h[:-1]]])
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    rng = random.Random(seed)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            break
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    if ring is QQ:
        s = [rng.choice([1, 2, 3]) for _ in range(n)]
        rows = [[Fraction(x * s[i], s[j]) for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return Matrix(ring, rows)


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from([QQ, GF(7)]), pieces=st.lists(_PIECE, min_size=1, max_size=4),
       seed=st.integers(0, 10**6))
@example(ring=QQ, pieces=[("jordan", 2, 2), ("jordan", 2, 1), ("companion", (3, 1, 1), 2)], seed=1)
@example(ring=GF(7), pieces=[("jordan", -1, 1), ("jordan", -1, 1), ("jordan", 3, 3)], seed=2)
def test_primary_parts_are_the_kernels_of_the_powers(ring, pieces, seed):
    assume(sum(size * (1 if kind == "jordan" else 2) for kind, _a, size in pieces) <= 8)
    cmat = _random_block(ring, pieces, seed)
    poly = charpoly(cmat)
    n = cmat.nrows
    parts = hecke._primary_parts(ring, 2, cmat, poly, Matrix.identity(ring, n), {}, {}, True)
    assert parts is not None
    factors = hecke._factor_monic(ring, poly)
    assert len(parts) == len(factors)
    for (basis, evs, facs, diag), (f, e) in zip(parts, factors):
        assert basis.rows == oracles.power_kernel(cmat, f, e)
        if len(f) == 2:
            assert evs == {2: ring.neg(f[0])} and facs == {}
            assert diag == (e == 1 or len(oracles.power_kernel(cmat, f, 1)) == e)
        else:
            assert evs == {} and facs == {2: tuple(f)} and diag


def test_a_wrong_candidate_stops_the_chain_short(monkeypatch):
    # gamma0:33 k=2: T_2 has charpoly (x - 1)^2 (x + 2)^4 on the cuspidal
    # symbols and acts semisimply; the candidate (x - 1)^3 (x + 2)^3 takes
    # ker(T_2 - 1), dimension 2, and the next kernel adds nothing
    sp = space_for(gamma0_cosets(33), QQ, 2)
    expected = eigensystem(sp, [2, 3])
    cmat = restrict_operator(hecke_matrix(sp, 2), cuspidal_subspace(sp))
    x = sympy.Symbol("x")
    wrong = [Fraction(int(c)) for c in sympy.Poly((x - 1) ** 3 * (x + 2) ** 3, x).all_coeffs()[::-1]]
    kernels = []
    real_kernel = hecke.left_kernel

    def spy(mat):
        out = real_kernel(mat)
        kernels.append(out.nrows)
        return out

    monkeypatch.setattr(hecke, "left_kernel", spy)
    ident = Matrix.identity(QQ, cmat.nrows)
    assert hecke._primary_parts(QQ, 2, cmat, wrong, ident, {}, {}, True) is None
    assert kernels == [2, 2]
    fallbacks = []
    fraction = hecke.charpoly
    monkeypatch.setattr(hecke, "charpoly_from_residues", lambda mat, bound: wrong if mat.nrows == 6 else fraction(mat))

    def counted(mat):
        fallbacks.append(mat.nrows)
        return fraction(mat)

    monkeypatch.setattr(hecke, "charpoly", counted)
    blocks = eigensystem(sp, [2, 3])
    assert fallbacks == [6]
    assert blocks == expected
    assert [repr(b.basis.rows) for b in blocks] == [repr(b.basis.rows) for b in expected]


def test_a_wrong_residue_charpoly_is_split_again_by_the_fraction_one(monkeypatch):
    # gamma0:11 k=8, T_13 then T_2: one 62-bit prime (bound 1) gets the
    # 12-dimensional T_13 charpoly wrong, its coefficients are too large;
    # the Fraction one splits the cuspidal symbols into blocks of
    # dimension 4 and 8, on which T_2 is then read from their Hecke fields
    sp = space_for(gamma0_cosets(11), QQ, 8)
    primes = [13, 2]
    residues, fraction = hecke.charpoly_from_residues, hecke.charpoly
    monkeypatch.setattr(hecke, "charpoly_from_residues", lambda mat, bound: fraction(mat))
    expected = eigensystem(sp, primes)
    wrong, fallbacks = [], []

    def one_prime(mat, bound):
        out = residues(mat, 1)
        if out != fraction(mat):
            wrong.append(mat.nrows)
        return out

    def counted(mat):
        fallbacks.append(mat.nrows)
        return fraction(mat)

    monkeypatch.setattr(hecke, "charpoly_from_residues", one_prime)
    monkeypatch.setattr(hecke, "charpoly", counted)
    blocks = eigensystem(sp, primes)
    assert wrong == fallbacks == [12]
    assert blocks == expected
    assert [repr(b.basis.rows) for b in blocks] == [repr(b.basis.rows) for b in expected]


def test_two_wrong_charpolys_raise(monkeypatch):
    sp = space_for(gamma0_cosets(11), QQ, 8)
    residues = hecke.charpoly_from_residues
    monkeypatch.setattr(hecke, "charpoly_from_residues", lambda mat, bound: residues(mat, 1))
    monkeypatch.setattr(hecke, "charpoly", lambda mat: residues(mat, 1))
    with pytest.raises(InternalInvariantError, match="T_13"):
        eigensystem(sp, [13, 2])


def test_a_wrong_charpoly_over_fp_raises(monkeypatch):
    # over F_p there is no residue candidate: a wrong charpoly is the one answer
    sp = space_for(gamma0_cosets(37), GF(7), 2)
    monkeypatch.setattr(hecke, "charpoly", lambda mat: [0] * mat.nrows + [1])
    with pytest.raises(InternalInvariantError, match="T_2"):
        eigensystem(sp, [2])


# ---------------------------------------------------------------------------
# later primes on the Hecke field
# ---------------------------------------------------------------------------


def _assert_same_blocks(blocks, expected):
    def shape(bs):
        return [(repr(b.basis.rows), repr(b.eigenvalues), repr(b.factors), b.diagonal) for b in bs]

    assert shape(blocks) == shape(expected)


def _primes_to_sturm(sp):
    return [p for p in range(2, sturm_bound(sp) + 1) if is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["gamma0", "gamma1"]), N=st.integers(1, 40), k=st.integers(2, 6),
       ring=st.sampled_from([QQ, GF(5), GF(7), GF(11)]))
@example(kind="gamma0", N=23, k=2, ring=QQ)
@example(kind="gamma0", N=83, k=2, ring=QQ)
@example(kind="gamma0", N=11, k=8, ring=QQ)
def test_eigensystem_matches_the_restriction_oracle(kind, N, k, ring):
    # bases by repr, so over Q the entries and eigenvalues stay Fractions
    assume(k % 2 == 0 if kind == "gamma0" else 3 <= N <= 13)
    cosets = (gamma0_cosets if kind == "gamma0" else gamma1_cosets)(N)
    assume(cosets.mu * (k - 1) <= 250)
    sp = space_for(cosets, ring, k)
    primes = _primes_to_sturm(sp)
    _assert_same_blocks(eigensystem(sp, primes), oracles.eigensystem_by_restriction(sp, primes))


def test_an_old_block_whose_u3_is_no_field_scalar_is_split_as_before(monkeypatch):
    # gamma0:33: T_2 acts as -2 on the 4-dimensional old block of 11a, so
    # its Hecke field is Q; U_3 has minimal polynomial x^2 + x + 3 there,
    # not a scalar, and the block takes the full restriction at 3. The
    # 2-dimensional new block is read from its field at every later prime
    sp = space_for(gamma0_cosets(33), QQ, 2)
    primes = _primes_to_sturm(sp)
    assert primes == [2, 3, 5, 7]
    splits, restrictions = [], []
    split, restrict = hecke._split_block, hecke._restrict_on_generators

    def spied_split(ring, p, k, mp, block):
        splits.append((p, block[0].nrows))
        return split(ring, p, k, mp, block)

    def spied_restrict(operator, coords, basis):
        restrictions.append(operator)
        return restrict(operator, coords, basis)

    monkeypatch.setattr(hecke, "_split_block", spied_split)
    monkeypatch.setattr(hecke, "_restrict_on_generators", spied_restrict)
    blocks = eigensystem(sp, primes)
    assert splits == [(2, 6), (3, 4)]
    assert len(restrictions) == 2
    old = next(b for b in blocks if b.dim == 4)
    assert old.factors == {3: (3, 1, 1)} and old.eigenvalues == {2: -2, 5: 1, 7: -2}
    monkeypatch.undo()
    _assert_same_blocks(blocks, oracles.eigensystem_by_restriction(sp, primes))


@pytest.mark.parametrize("doubled", [(1, 2), (2,)], ids=["generator-and-check", "check"])
def test_a_disagreeing_image_sends_the_blocks_to_the_full_restriction(monkeypatch, doubled):
    # gamma0:37: both T_2 blocks have Hecke field Q, generators 0 and 1
    # and check generator 2. Doubling the T_3 images of generator 1 and the
    # check leaves each image on its own line and the check consistent
    # with generator 1, but generator 0 disagrees; doubling the check's
    # image alone fails the check. Either way both blocks are split from
    # the full restriction, whose rows are untouched
    sp = space_for(gamma0_cosets(37), QQ, 2)
    primes = [2, 3, 5]
    splits, chosen = [], []
    split, field, images = hecke._split_block, hecke._hecke_field, hecke._generator_images

    def spied_split(ring, p, k, mp, block):
        splits.append((p, block[0].nrows))
        return split(ring, p, k, mp, block)

    def spied_field(*args):
        out = field(*args)
        chosen.append((out.gens, out.check))
        return out

    def doubling(space, op, reduced, gens):
        out = images(space, op, reduced, gens)
        if op._mats == hecke._heilbronn(3):
            for j in doubled:
                out[j] = [space.ring.add(x, x) for x in out[j]]
        return out

    monkeypatch.setattr(hecke, "_split_block", spied_split)
    monkeypatch.setattr(hecke, "_hecke_field", spied_field)
    monkeypatch.setattr(hecke, "_generator_images", doubling)
    blocks = eigensystem(sp, primes)
    assert chosen[:2] == [((0, 1), 2)] * 2
    assert splits == [(2, 4), (3, 2), (3, 2)]
    monkeypatch.undo()
    _assert_same_blocks(blocks, oracles.eigensystem_by_restriction(sp, primes))


@pytest.mark.parametrize("N,built", [(37, 3), (83, 4)])
def test_later_primes_build_rows_only_at_the_chosen_generators(monkeypatch, N, built):
    sp = space_for(gamma0_cosets(N), QQ, 2)
    free = sp.presentation.free_generators()
    coords = hecke._generator_coordinates(sp.presentation, cuspidal_subspace(sp))[0].sparse_rows()
    rows, chosen = [], []
    operator_rows, images = hecke._operator_rows, hecke._generator_images

    def counted(space, mats, wanted):
        rows.append(sorted(wanted))
        return operator_rows(space, mats, wanted)

    def spied(space, op, reduced, gens):
        chosen.append(list(gens))
        return images(space, op, reduced, gens)

    monkeypatch.setattr(hecke, "_operator_rows", counted)
    monkeypatch.setattr(hecke, "_generator_images", spied)
    primes = [2, 3, 5, 7, 11, 13]
    blocks = eigensystem(sp, primes)
    # T_2 is built at every free generator, each later T_p only at the
    # supports of the generators its blocks chose, the same ones each time
    assert rows[0] == free
    assert len(rows) == len(primes) and len(chosen) == len(primes) - 1
    for got, gens in zip(rows[1:], chosen):
        assert gens == chosen[0]
        assert got == sorted({free[c] for j in gens for c in coords[j]})
        assert len(got) == built < len(free)
    monkeypatch.undo()
    _assert_same_blocks(blocks, oracles.eigensystem_by_restriction(sp, primes))


def test_level_23_keeps_irrational_eigenvalues_unsplit():
    sp = space_for(gamma0_cosets(23), QQ, 2)
    blocks = eigensystem(sp, [2])
    assert len(blocks) == 1
    blk = blocks[0]
    assert blk.dim == 4
    assert blk.eigenvalues == {}
    fac = blk.factors[2]
    assert len(fac) == 3 and fac[-1] == 1  # monic quadratic
    # the block's polynomial really is the square of that factor
    cmat = restrict_operator(hecke_matrix(sp, 2), cuspidal_subspace(sp))
    x = sympy.Symbol("x")
    f = sympy.Poly(list(reversed([Fraction(c) for c in fac])), x)
    assert sympy.Poly(list(reversed(charpoly(cmat))), x) == f ** 2
    # and no q-expansion is fabricated for it
    records = qexpansions(sp, 5)
    assert [r.coefficients for r in records] == [None]


def test_level_33_separates_old_and_new():
    sp = space_for(gamma0_cosets(33), QQ, 2)
    blocks = eigensystem(sp, [2, 3, 11])
    dims = sorted(b.dim for b in blocks)
    assert dims == [2, 4]
    new = next(b for b in blocks if b.dim == 2)
    old = next(b for b in blocks if b.dim == 4)
    # dimension-2 block: the level-33 form
    assert new.eigenvalues == {2: 1, 3: -1, 11: 1}
    # dimension-4 block: two copies of the level-11 form; U_3 satisfies
    # x^2 - a_3 x + 3 with a_3 = -1, irreducible over Q
    assert old.eigenvalues[2] == -2 and old.eigenvalues[11] == 1
    assert old.factors[3] == (3, 1, 1)


def test_eigensystem_mod_3_reduction():
    sp = space_for(gamma0_cosets(11), GF(3), 2)
    blocks = eigensystem(sp, [2])
    assert [(b.dim, b.eigenvalues) for b in blocks] == [(2, {2: 1})]  # -2 mod 3


def test_eigensystem_empty_when_no_cusp_forms():
    sp = space_for(gamma0_cosets(4), QQ, 2)
    assert cuspidal_subspace(sp).ambient_rows.nrows == 0
    assert eigensystem(sp, [2, 3]) == []
    assert qexpansions(sp, 5) == []


def test_blocks_are_sorted_deterministically():
    sp = space_for(gamma0_cosets(33), QQ, 2)
    blocks = eigensystem(sp, [2, 3, 11])
    keys = [b.eigenvalues.get(2) for b in blocks]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# bounds and gates
# ---------------------------------------------------------------------------


def test_sturm_bound_values():
    assert sturm_bound(space_for(gamma0_cosets(11), QQ, 2)) == 3
    assert sturm_bound(space_for(gamma0_cosets(1), QQ, 12)) == 2


def test_hecke_rejects_permutation_cosets():
    pc = PermCosets(TriangleSubgroup.level_one(3))
    sp = space_for(pc, QQ, 2)
    with pytest.raises(UnsupportedRingError):
        hecke_matrix(sp, 2)


def test_hecke_rejects_composite_index():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 4)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 1)


def test_eigensystem_rejects_integer_ring():
    sp = space_for(gamma0_cosets(11), ZZ, 2)
    with pytest.raises(UnsupportedRingError):
        eigensystem(sp, [2])


def test_eigensystem_rejects_extension_fields():
    sp = space_for(gamma0_cosets(11), rational_lambda_ring(5)[0], 2)
    with pytest.raises(UnsupportedRingError):
        eigensystem(sp, [2])


def test_qexpansion_rejects_silly_bound():
    sp = space_for(gamma0_cosets(11), QQ, 2)
    with pytest.raises(ValueError):
        qexpansions(sp, 0)


# -- identity guard --------------------------------------------------------------


def test_hecke_data_matches_the_recorded_digests():
    # scripts/hecke_digests.py hashes the reprs (entry types included) of
    # T_p on generators and on the cuspidal subspace, the gamma1 diamonds
    # and the eigenblocks, and over Z the normal forms and kernels behind
    # the presentations; the data file holds runs from before the Q
    # matrices moved to integer numerators and before the integer forms
    # moved to sparse rows, and every later run must reproduce them
    import importlib.util
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    path = root / "scripts" / "hecke_digests.py"
    spec = importlib.util.spec_from_file_location("hecke_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = json.loads((root / "tests" / "data" / "hecke_digests.json").read_text())
    assert sorted(recorded) == sorted(script.SPACES)
    for name, digests in recorded.items():
        assert script.space_digests(name) == digests, name
