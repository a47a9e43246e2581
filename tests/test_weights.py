import random
from fractions import Fraction

import pytest
import sympy

from heckesym.linalg import Matrix, charpoly
from heckesym.rings import GF, QQ, ZZ, QuotientExtension, UnsupportedRingError
from heckesym.triangle import (
    integral_lambda_ring,
    lambda_minimal_polynomial,
    mat2_mul,
    rational_lambda_ring,
    tau_matrix,
    word_matrix,
)
from heckesym.weights import (
    WeightModule,
    lambda_image_in,
    lambda_splitting_field_mod_p,
    local_term,
)

import oracles

SIGMA = (0, -1, 1, 0)
TAU = (1, -1, 1, 0)
# integer matrices of determinant 1 and of other determinants
POOL = [SIGMA, TAU, (1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 0, 3), (5, 2, 2, 1), (3, -2, 7, 4)]


def test_sigma_action_weight_four():
    V = WeightModule(QQ, 4)
    A = V.action_matrix(SIGMA)
    # X^2 -> Y^2, XY -> -XY, Y^2 -> X^2 (basis X^a Y^(2-a), a = 0..2)
    assert A.tuples() == ((0, 0, 1), (0, -1, 0), (1, 0, 0))


def test_weight_two_action_is_trivial():
    V = WeightModule(QQ, 2)
    assert V.action_matrix((3, 5, 1, 2)).tuples() == ((1,),)


def test_minus_identity_acts_by_parity():
    V3 = WeightModule(QQ, 3, variant="plus-minus-one")
    A = V3.action_matrix((-1, 0, 0, -1))
    assert A.tuples() == ((-1, 0), (0, -1))
    V4 = WeightModule(QQ, 4)
    assert V4.action_matrix((-1, 0, 0, -1)) == Matrix.identity(QQ, 3)


def test_projective_variant_rejects_odd_weight():
    with pytest.raises(UnsupportedRingError, match="odd weight"):
        WeightModule(QQ, 3)


def test_weight_below_two_rejected():
    with pytest.raises(UnsupportedRingError):
        WeightModule(QQ, 1)


@pytest.mark.parametrize("ring,k,variant", [(QQ, 6, "projective"), (GF(7), 5, "plus-minus-one")])
def test_action_is_multiplicative(ring, k, variant):
    rng = random.Random(5)
    V = WeightModule(ring, k, variant=variant)
    for _ in range(100):
        g, h = rng.choice(POOL), rng.choice(POOL)
        # a left action in the row convention: M_g M_h = M_(hg)
        hg = (
            h[0] * g[0] + h[1] * g[2],
            h[0] * g[1] + h[1] * g[3],
            h[2] * g[0] + h[3] * g[2],
            h[2] * g[1] + h[3] * g[3],
        )
        assert V.action_matrix(g).mul(V.action_matrix(h)) == V.action_matrix(hg)


LAM = sympy.Symbol("lam")


def _to_sympy(x):
    """A cocycle entry (int, or Z[lam] tuple low -> high) as a sympy expression."""
    if isinstance(x, int):
        return sympy.Integer(x)
    return sum(c * LAM**i for i, c in enumerate(x))


def _lambda5_pool():
    R5, lam = integral_lambda_ring(5)
    rng = random.Random(11)
    words = [
        tuple((rng.choice("st"), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 5)))
        for _ in range(6)
    ]
    return [word_matrix(R5, lam, w) for w in words]


@pytest.mark.parametrize(
    "ring,k,variant,n",
    [
        (QQ, 6, "projective", 3),
        (QQ, 5, "plus-minus-one", 3),
        (GF(7), 5, "plus-minus-one", 3),
        (rational_lambda_ring(5)[0], 4, "projective", 5),
        (rational_lambda_ring(5)[0], 6, "projective", 5),
    ],
    ids=["Q-k6", "Q-k5", "F7-k5", "lambda5-k4", "lambda5-k6"],
)
def test_action_rows_match_substitution_oracle(ring, k, variant, n):
    V = WeightModule(ring, k, variant=variant, n=n)
    if n == 3:
        pool = POOL

        def into(e):
            return ring.of_int(int(e))

    else:
        pool = _lambda5_pool()
        minpoly = sum(c * LAM**i for i, c in enumerate(lambda_minimal_polynomial(n)))

        def into(e):
            rem = sympy.Poly(sympy.rem(e, minpoly, LAM), LAM)
            coeffs = [Fraction(int(c)) for c in reversed(rem.all_coeffs())]
            return ring.from_coeffs(coeffs)

    for mat in pool:
        expected = oracles.weight_action_rows(k, [_to_sympy(x) for x in mat])
        got = V.action_matrix(mat)
        assert got.nrows == k - 1
        for row, exp in zip(got.rows, expected):
            assert row == [into(e) for e in exp]
        if ring is QQ:
            # built on ints: the integer form is in place before any product
            nums, d = got._integer_form
            assert d == 1 and nums.rows == [[int(e) for e in exp] for exp in expected]
            assert all(type(x) is Fraction for row in got.rows for x in row)


def test_action_determinant_is_unit():
    V = WeightModule(ZZ, 6)
    for mat in (SIGMA, TAU, (1, 7, 0, 1)):
        A = V.action_matrix(mat)
        det = charpoly(A)[0]
        if A.nrows % 2:
            det = -det
        assert det in (1, -1)


def test_action_over_lambda_extension():
    # n = 5: tau has entries in Z[lam]; check the multiplicative rule there
    R5, lam = integral_lambda_ring(5)
    ring, gen = lambda_splitting_field_mod_p(5, 19)  # x^2 - x - 1 has roots mod 19
    V = WeightModule(ring, 4, n=5)
    tau5 = tau_matrix(R5, lam)
    tau5_sq = mat2_mul(R5, tau5, tau5)
    A = V.action_matrix(tau5)
    assert A.mul(A) == V.action_matrix(tau5_sq)


# -- local terms ---------------------------------------------------------------


def test_local_term_weight_two_order_two_over_z():
    V = WeightModule(ZZ, 2)
    A = V.action_matrix(SIGMA)
    mod = local_term(ZZ, A, 2)
    assert mod.torsion() == (2,)
    assert mod.rank() == 0


def test_local_term_weight_two_order_four_over_z():
    mod = local_term(ZZ, Matrix.identity(ZZ, 1), 4)
    assert mod.torsion() == (4,)


def test_local_terms_vanish_over_q():
    V = WeightModule(QQ, 4)
    assert local_term(QQ, V.action_matrix(SIGMA), 2).dim() == 0
    assert local_term(QQ, V.action_matrix(TAU), 3).dim() == 0


def test_local_term_weight_four_sigma_mod_two():
    V = WeightModule(GF(2), 4)
    mod = local_term(GF(2), V.action_matrix(SIGMA), 2)
    assert mod.dim() == 1


# -- lambda embeddings -----------------------------------------------------------


def test_lambda_image_trivial_for_modular_group():
    assert lambda_image_in(QQ, 3) == QQ.one


def test_lambda_image_in_matching_extension():
    R = QuotientExtension(QQ, lambda_minimal_polynomial(5), var="lam")
    assert lambda_image_in(R, 5) == R.generator()


def test_lambda_image_in_wrong_extension_rejected():
    R = QuotientExtension(QQ, (-2, 0, 1), var="r")  # sqrt(2), not the n=5 lambda
    with pytest.raises(UnsupportedRingError):
        lambda_image_in(R, 5)


def test_lambda_image_in_prime_field():
    assert lambda_image_in(GF(7), 4) == 3  # 3^2 = 2 mod 7
    with pytest.raises(UnsupportedRingError):
        lambda_image_in(GF(5), 4)


def test_lambda_splitting_field():
    ring, lam = lambda_splitting_field_mod_p(4, 7)
    assert ring == GF(7) and lam == 3
    ring, lam = lambda_splitting_field_mod_p(4, 5)
    assert ring.degree == 2
    assert ring.mul(lam, lam) == ring.of_int(2)
