"""Hecke operators and q-expansions: eigenvalue anchors, structure, gates.

The eigenvalue goldens come from three independent oracle routes that are
cross-checked against each other below: the discriminant product for tau,
point counts on the conductor-11 curve, and eta-product power series for
the weight 3 and 4 forms. Everything else is structural: commutation,
invariance, double-coset well-definedness, diamond relations, and the
refusal to extend scalars when a polynomial does not split.
"""

import random
from fractions import Fraction

import pytest
import sympy

from heckesym import hecke
from heckesym.congruence import continued_fraction_path, gamma0_cosets, gamma1_cosets
from heckesym.hecke import (
    LazyOperator,
    _poly_apply,
    diamond_operator,
    eigensystem,
    hecke_matrix,
    qexpansions,
    restrict_operator,
    sturm_bound,
)
from heckesym.linalg import FPMap, FPModule, IllDefinedMapError, Matrix, RowBasis, charpoly
from heckesym.modsym import (
    PermCosets,
    Subspace,
    cuspidal_subspace,
    manin_space,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ, QuotientExtension, UnsupportedRingError
from heckesym.triangle import TriangleSubgroup

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


def test_gamma1_odd_weight_well_defined():
    sp = space_for(gamma1_cosets(5), QQ, 3)
    hecke_matrix(sp, 2, check=True)
    hecke_matrix(sp, 5, check=True)  # U_p path
    diamond_operator(sp, 2, check=True)


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
    calls = []

    def counted(alpha, beta):
        calls.append((alpha, beta))
        return continued_fraction_path(alpha, beta)

    monkeypatch.setattr(hecke, "continued_fraction_path", counted)
    op = hecke_matrix(sp, 2)
    mat = op.matrix_on_generators()
    # weight 2: one coordinate per coset; three representatives, none of
    # determinant one, for each coset that owns a free generator
    assert len(calls) == 3 * len(free) < 3 * sp.cosets.mu
    assert "ambient" not in vars(op)
    assert restrict_operator(op, cuspidal_subspace(sp)).nrows == 4
    assert len(calls) == 3 * len(free)
    assert op.ambient.nrows == sp.cosets.mu and len(calls) == 3 * sp.cosets.mu
    full = FPMap(sp.presentation, sp.presentation, op.ambient, check=False)
    assert full.matrix_on_generators() == mat


@pytest.mark.parametrize(
    "maker,N,k",
    [(gamma0_cosets, 11, 2), (gamma0_cosets, 11, 4), (gamma1_cosets, 5, 3)],
)
def test_check_verifies_the_full_operator(maker, N, k):
    sp = space_for(maker(N), QQ, k)
    hecke_matrix(sp, 2, check=True)
    hecke_matrix(sp, N, check=True)
    diamond_operator(sp, 2, check=True)
    # translation by a matrix that does not normalize the subgroup
    with pytest.raises(IllDefinedMapError):
        LazyOperator(sp, [(1, 0, 1, 1)], check=True)


def test_zero_dimensional_space_charpoly():
    sp = space_for(gamma0_cosets(1), QQ, 2)
    assert charpoly(hecke_matrix(sp, 2).matrix_on_generators()) == [1]


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_poly_apply_matches_the_power_sum(ring):
    rng = random.Random(5)
    for degree in (1, 2, 3, 4):
        for n in (1, 3, 4):
            entries = [[ring.of_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            mat = Matrix(ring, entries)
            coeffs = [ring.of_int(rng.randint(-5, 5)) for _ in range(degree)] + [ring.one]
            expected = Matrix(ring, [[ring.zero] * n for _ in range(n)])
            power = Matrix.identity(ring, n)
            for c in coeffs:
                expected = expected.add(power.scale(c))
                power = power.mul(mat)
            assert _poly_apply(ring, coeffs, mat) == expected


# ---------------------------------------------------------------------------
# eigensystem refinement and honesty
# ---------------------------------------------------------------------------


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
    F4 = QuotientExtension(GF(2), [1, 1, 1], var="w")
    sp = space_for(gamma0_cosets(11), F4, 2)
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
    # and the eigenblocks; the data file holds a run before the Q matrices
    # moved to integer numerators, and every later run must reproduce it
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
