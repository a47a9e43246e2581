import inspect
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from heckesym import cli, linalg
from heckesym.rings import GF, QQ, ZZ, ShapeError, UnsupportedRingError
from heckesym.triangle import integral_lambda_ring, rational_lambda_ring
from heckesym.linalg import (
    FPModule,
    FPMap,
    IllDefinedMapError,
    Matrix,
    NotInSpanError,
    RowBasis,
    charpoly,
    charpoly_from_residues,
    hermite_basis,
    hermite_normal_form,
    lattice_quotient,
    left_kernel,
    matrix_rank,
    rref,
    smith_normal_form,
    subquotient,
    _IntegralExtension,
    _PrimeField,
    _Rationals,
    _arithmetic,
    _echelon,
    _int_rows,
    _leading,
    _load,
    _reduced,
    _residue_field,
    _snf_core,
)

import oracles

small_int = st.integers(-9, 9)


def int_matrix(max_n=5, max_m=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(small_int, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


@st.composite
def sparse_int_matrix(draw, max_n=8, max_m=8):
    """(rows, ncols): integer matrices of 0..8 rows and columns with 70-90%
    zero entries, the shape of the relation matrices, so zero rows and
    zero columns are common; nonzero entries lie in [-7, 7]."""
    n, m = draw(st.integers(0, max_n)), draw(st.integers(0, max_m))
    zero_tenths = draw(st.integers(7, 9))
    cell = st.tuples(st.integers(0, 9), st.integers(-7, 7).filter(bool))
    cells = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    return [[x if u >= zero_tenths else 0 for u, x in row] for row in cells], m


def as_zz(rows):
    return Matrix(ZZ, rows)


def assert_hermite_shape(H):
    """Staircase with positive pivots, entries above each pivot in
    [0, pivot), zero rows last."""
    lastcol = -1
    for r, row in enumerate(H.rows):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            assert not any(x for later in H.rows[r:] for x in later)
            break
        c = nz[0]
        assert c > lastcol
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in H.rows[:r])
        lastcol = c


# -- echelon / kernels -------------------------------------------------------


def test_rref_hand_example():
    A = Matrix(QQ, [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]])
    R, pivots = rref(A)
    assert pivots == (0, 2)
    assert R.rows[0] == [1, 2, 0]
    assert R.rows[1] == [0, 0, 1]


@settings(max_examples=80)
@given(int_matrix())
def test_rref_transform_reproduces_echelon(rows):
    A = Matrix(QQ, [[Fraction(x) for x in r] for r in rows])
    R, pivots, T = rref(A, with_transform=True)
    assert T.mul(A) == R
    for r, c in zip(range(len(pivots)), pivots):
        assert R.rows[r][c] == 1
        for rr in range(A.nrows):
            if rr != r:
                assert R.rows[rr][c] == 0


@settings(max_examples=60)
@given(int_matrix())
def test_rank_matches_sympy(rows):
    A = as_zz(rows)
    assert matrix_rank(A) == sympy.Matrix(rows).rank()


@settings(max_examples=60)
@given(int_matrix())
def test_right_kernel_annihilates_and_has_full_nullity(rows):
    # the right kernel of A is the left kernel of its transpose
    cols = [[Fraction(x) for x in col] for col in zip(*rows)]
    K = left_kernel(Matrix(QQ, cols, len(rows)))
    assert K.rows == oracles.dense_left_kernel(cols, oracles.RationalOps)
    for v in K.rows:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
    assert K.nrows == len(cols) - oracles.dense_rank(rows, oracles.RationalOps)


@settings(max_examples=60)
@given(int_matrix())
def test_left_kernel_over_z_is_saturated(rows):
    A = as_zz(rows)
    K = left_kernel(A)
    for v in K.rows:
        out = A.act_on_row(list(v)) if A.nrows == len(v) else None
        assert out is not None and all(x == 0 for x in out)
    assert K.nrows == A.nrows - matrix_rank(A)
    # saturation: if w is rational in the kernel with integer entries,
    # it must lie in the integer row span of K
    if K.nrows:
        basis = RowBasis(Matrix(ZZ, [list(r) for r in K.rows], K.ncols))
        Kq = left_kernel(Matrix(QQ, [[Fraction(x) for x in r] for r in rows]))
        for v in Kq.rows:
            den = 1
            for x in v:
                den = den * x.denominator // sympy.gcd(den, x.denominator)
            w = [int(x * den) for x in v]
            assert basis.contains(w)


def test_left_kernel_gf_example():
    F = GF(2)
    A = Matrix(F, [[1, 1], [1, 1], [0, 1]])
    K = left_kernel(A)
    assert K.nrows == 1
    assert K.rows[0] == [1, 1, 0]


def matrices(entry, max_n=6, max_m=6):
    """Small matrices whose entries are zero about half the time, so rows
    are sparse and often dependent."""
    cell = st.one_of(st.just(0), entry)
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


small_fraction = st.builds(Fraction, small_int, st.integers(1, 4))


def _sympy_rows(M):
    return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


def _check_rref_against(A, want, pivots_want):
    """rref with and without transform against an oracle's nonzero
    reduced rows; the rank and the transform identity ride along."""
    R, pivots, T = rref(A, with_transform=True)
    zero = R.ring.zero
    assert list(pivots) == list(pivots_want)
    assert R.rows[: len(pivots)] == want
    assert all(x == zero for row in R.rows[len(pivots):] for x in row)
    assert T.mul(A) == R
    assert rref(A) == (R, pivots)
    assert matrix_rank(A) == len(pivots)


@settings(max_examples=80, deadline=None)
@given(matrices(small_fraction))
def test_rref_rank_and_left_kernel_over_q_match_sympy(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    A = Matrix(QQ, rows)
    S, spiv = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).rref()
    _check_rref_against(A, _sympy_rows(S)[: len(spiv)], spiv)
    null = sympy.Matrix(rows).T.nullspace()
    want = []
    if null:
        K, kpiv = sympy.Matrix.hstack(*null).T.rref()
        want = _sympy_rows(K)[: len(kpiv)]
    assert left_kernel(A).rows == want


@settings(max_examples=60, deadline=None)
@given(matrices(small_int))
def test_rref_over_z_is_the_rational_rref(rows):
    S, spiv = sympy.Matrix(rows).rref()
    _check_rref_against(as_zz(rows), _sympy_rows(S)[: len(spiv)], spiv)


@settings(max_examples=80)
@given(
    st.sampled_from([2, 3, 7]).flatmap(
        lambda p: st.tuples(st.just(p), matrices(st.integers(1, p - 1)))
    )
)
def test_rref_rank_and_left_kernel_over_fp_match_oracle(case):
    p, rows = case
    ops = oracles.PrimeFieldOps(p)
    A = Matrix(GF(p), rows)
    want, pivots = oracles.dense_rref(rows, ops)
    _check_rref_against(A, want, pivots)
    assert left_kernel(A).rows == oracles.dense_left_kernel(rows, ops)


def _lambda_case(n):
    d = len(oracles.minpoly_2cos_pi_over(n)) - 1
    element = st.tuples(*[st.one_of(st.just(Fraction(0)), small_fraction)] * d)
    return st.tuples(st.just(n), matrices(element, 4, 4))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 5, 7]).flatmap(_lambda_case))
def test_rref_rank_and_left_kernel_over_lambda_field_match_oracle(case):
    n, rows = case
    ring = rational_lambda_ring(n)[0]
    ops = oracles.SimpleExtensionOps(oracles.minpoly_2cos_pi_over(n))
    rows = [[ops.zero if x == 0 else x for x in r] for r in rows]
    A = Matrix(ring, rows)
    want, pivots = oracles.dense_rref(rows, ops)
    _check_rref_against(A, want, pivots)
    assert left_kernel(A).rows == oracles.dense_left_kernel(rows, ops)


# -- dense arithmetic ----------------------------------------------------------


def _arithmetic_case(name):
    """(ring, oracle ops, element from a pair of small ints) for each ring
    the products run over; (0, 0) is zero in every one of them."""
    if name == "lambda5":
        ops = oracles.SimpleExtensionOps(oracles.minpoly_2cos_pi_over(5))
        return rational_lambda_ring(5)[0], ops, lambda a, b: (Fraction(a), Fraction(b, 2))
    if name in ("F2", "F7"):
        p = int(name[1:])
        return GF(p), oracles.PrimeFieldOps(p), lambda a, b: a % p
    if name == "Q":
        return QQ, oracles.RationalOps, lambda a, b: Fraction(a, 1 + b % 4)
    return (QQ if name == "Q-int" else ZZ), oracles.RationalOps, lambda a, b: a


@pytest.mark.parametrize("name", ["Q", "Q-int", "Z", "F2", "F7", "lambda5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_matrix_arithmetic_matches_the_textbook_ops(name, data):
    # shapes include 0 rows and 0 columns on every side of the product
    ring, ops, element = _arithmetic_case(name)
    n, m, l = (data.draw(st.integers(0, 4)) for _ in range(3))
    cell = st.one_of(st.just((0, 0)), st.tuples(small_int, small_int))

    def draw(r, c):
        return [[element(*data.draw(cell)) for _ in range(c)] for _ in range(r)]

    A, A2, B = draw(n, m), draw(n, m), draw(m, l)
    c = element(*data.draw(cell))
    MA, MA2, MB = Matrix(ring, A, m), Matrix(ring, A2, m), Matrix(ring, B, l)
    prod = MA.mul(MB)
    assert (prod.nrows, prod.ncols) == (n, l)
    assert prod.rows == oracles.dense_product(A, B, l, ops)

    def each(f, *mats):
        return [[f(*xs) for xs in zip(*rows)] for rows in zip(*mats)]

    assert MA.add(MA2).rows == each(ops.add, A, A2)
    assert MA.sub(MA2).rows == each(ops.sub, A, A2)
    assert MA.neg().rows == each(lambda x: ops.sub(ops.zero, x), A)
    assert MA.scale(c).rows == each(lambda x: ops.mul(c, x), A)


# -- the Q numerator kernel ----------------------------------------------------

# rationals with denominators 1..9, given as ints or Fractions
mixed_rational = st.one_of(
    small_int, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
)


def _mixed(data, n, m):
    cell = st.one_of(st.just(0), st.just(Fraction(0)), mixed_rational)
    return [[data.draw(cell) for _ in range(m)] for _ in range(n)]


def _all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rational_products_run_on_numerators_like_the_textbook(data):
    # vectors and matrices mix ints and Fractions, with non-unit common
    # denominators; shapes 0-4 on every side
    n, m, l = (data.draw(st.integers(0, 4)) for _ in range(3))
    A, B = _mixed(data, n, m), _mixed(data, m, l)
    MB = Matrix(QQ, B, l)
    want = oracles.dense_product(A, B, l, oracles.RationalOps)
    rows = [MB.act_on_row(r) for r in A]
    assert rows == want and _all_fractions(rows)
    prod = Matrix(QQ, A, m).mul(MB)
    assert (prod.nrows, prod.ncols) == (n, l)
    assert prod.rows == want and _all_fractions(prod.rows)
    nums, d = MB.integer_form()
    assert nums.ring is ZZ and d >= 1
    assert [[Fraction(x, d) for x in r] for r in nums.rows] == B


def test_a_second_product_reads_the_kept_integer_form():
    A = Matrix(QQ, [[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
    B = Matrix(QQ, [[Fraction(5, 4), 1], [2, Fraction(1, 6)]])
    first = A.mul(B)
    form = B.integer_form()
    assert form[1] == 12
    assert A.mul(B) == first and B.integer_form() is form
    # a rebuilt form would hide this substitution
    B._integer_form = (Matrix(ZZ, [[0, 0], [0, 0]]), 1)
    assert A.mul(B).is_zero()


def test_from_integers_keeps_its_rows_as_integer_form():
    M = Matrix.from_integers([[1, -2], [0, 3]])
    assert M.ring is QQ and _all_fractions(M.rows)
    assert M.rows == [[1, -2], [0, 3]]
    nums, d = M.integer_form()
    assert nums.rows == [[1, -2], [0, 3]] and d == 1


# -- the one row form ----------------------------------------------------------

# each ring's entries with zeros of every kind: int 0 among Fractions,
# multiples of p, and zero tuples with int or Fraction coefficients
ROW_FORM_CELLS = {
    "Z": (ZZ, st.one_of(st.just(0), st.integers(-9, 9))),
    "Q": (QQ, st.one_of(st.just(0), st.just(Fraction(0)), mixed_rational)),
    "F7": (GF(7), st.one_of(st.sampled_from([0, 7, -14]), st.integers(-20, 20))),
    "Q(lambda5)": (rational_lambda_ring(5)[0], st.one_of(
        st.sampled_from([(0, 0), (Fraction(0), 0), (Fraction(0), Fraction(0))]),
        st.tuples(mixed_rational, mixed_rational))),
}


@pytest.mark.parametrize("name", list(ROW_FORM_CELLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_and_sparse_born_matrices_share_one_row_form(name, data):
    ring, cell = ROW_FORM_CELLS[name]
    n, m = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows = [[data.draw(cell) for _ in range(m)] for _ in range(n)]
    dense = Matrix(ring, rows, m)
    born = Matrix.from_sparse(ring, [{j: x for j, x in enumerate(r) if x != ring.zero} for r in rows], m)
    vec = [data.draw(cell) for _ in range(n)]
    assert dense.rows == born.rows
    assert dense.sparse_rows() == born.sparse_rows()
    assert dense.integer_form() == born.integer_form()
    assert dense.act_on_row(vec) == born.act_on_row(vec)
    # the scan of the dense rows is kept, not redone
    assert dense.sparse_rows() is dense.sparse_rows()


FIELDS = ["Q", "F2", "F7"]


def _field_case(name):
    """(ring, oracle ops, entry type, rows drawer) for Q and F_p: over Q
    the entries mix ints and Fractions, over F_p they are residues."""
    if name == "Q":
        return QQ, oracles.RationalOps, Fraction, _mixed
    p = int(name[1:])

    def residues(data, n, m):
        cell = st.one_of(st.just(0), st.integers(0, p - 1))
        return [[data.draw(cell) for _ in range(m)] for _ in range(n)]

    return GF(p), oracles.PrimeFieldOps(p), int, residues


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rational_reduce_matches_the_textbook_quotient(data):
    for name in FIELDS:
        _check_reduce_against_the_textbook(data, *_field_case(name))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rational_express_matches_the_textbook_solve(data):
    for name in FIELDS:
        _check_express_against_the_textbook(data, *_field_case(name))


def _check_reduce_against_the_textbook(data, ring, ops, kind, draw):
    ngens = data.draw(st.integers(1, 6))
    relations = draw(data, data.draw(st.integers(0, 5)), ngens)
    vec = draw(data, 1, ngens)[0]
    mod = FPModule(ring, ngens, Matrix(ring, relations, ngens))
    got = mod.reduce(vec)
    assert list(got) == oracles.dense_quotient_coords(relations, vec, ops)
    assert all(type(x) is kind for x in got)
    assert RowBasis(Matrix(ring, relations, ngens)).contains(vec) == mod.is_zero_element(vec)


def _check_express_against_the_textbook(data, ring, ops, kind, draw):
    m = data.draw(st.integers(1, 6))
    # keep the rows that raise the rank, so the coefficients are unique
    rows = []
    for row in draw(data, data.draw(st.integers(0, 6)), m):
        if oracles.dense_rank(rows + [row], ops) > len(rows):
            rows.append(row)
    basis = RowBasis(Matrix(ring, rows, m))
    mod = FPModule(ring, m, Matrix(ring, rows, m))
    coeffs = draw(data, 1, len(rows))[0]
    inside = oracles.dense_product([coeffs], rows, m, ops)[0] if rows else [0] * m
    got = basis.express(inside)
    assert got == oracles.dense_solve(rows, inside, ops) == coeffs
    assert all(type(x) is kind for x in got)
    assert basis.contains(inside) and mod.is_zero_element(inside)
    other = draw(data, 1, m)[0]
    want = oracles.dense_solve(rows, other, ops)
    assert basis.contains(other) == mod.is_zero_element(other) == (want is not None)
    if want is None:
        with pytest.raises(NotInSpanError):
            basis.express(other)
    else:
        assert basis.express(other) == want


# -- extensions on integer forms ---------------------------------------------

EXTENSIONS = ["Z[lambda5]", "Q(lambda5)", "Q(lambda7)"]
EXTENSION_FIELDS = EXTENSIONS[1:]


def _extension_case(name):
    """(ring, oracle ops, coefficient strategy, coefficient type)."""
    fraction = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))
    if name == "Z[lambda5]":
        ops = oracles.SimpleExtensionOps(oracles.minpoly_2cos_pi_over(5))
        return integral_lambda_ring(5)[0], ops, st.integers(-7, 7), int
    n = int(name[len("Q(lambda"):-1])
    ops = oracles.SimpleExtensionOps(oracles.minpoly_2cos_pi_over(n))
    return rational_lambda_ring(n)[0], ops, fraction, Fraction


def _sparse_elements(data, ring, coeff, n, m):
    """n x m elements of ring, 70-90% of them zero, as relation matrices are."""
    zero_tenths = data.draw(st.integers(7, 9))
    element = st.tuples(*[coeff] * ring.degree)
    cell = st.tuples(st.integers(0, 9), element)
    return [[x if u >= zero_tenths else ring.zero for u, x in (data.draw(cell) for _ in range(m))]
            for _ in range(n)]


def _coefficients_of(rows, kind):
    return all(type(x) is kind for r in rows for e in r for x in e)


@pytest.mark.parametrize("name", EXTENSIONS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_extension_products_match_the_textbook(name, data):
    # shapes 0-8 on every side of the product
    ring, ops, coeff, kind = _extension_case(name)
    n, m, l = (data.draw(st.integers(0, 8)) for _ in range(3))
    A, B = _sparse_elements(data, ring, coeff, n, m), _sparse_elements(data, ring, coeff, m, l)
    MB = Matrix(ring, B, l)
    want = oracles.dense_product(A, B, l, ops)
    rows = [MB.act_on_row(r) for r in A]
    assert rows == want and _coefficients_of(rows, kind)
    prod = Matrix(ring, A, m).mul(MB)
    assert (prod.nrows, prod.ncols) == (n, l)
    assert prod.rows == want and _coefficients_of(prod.rows, kind)
    # the kept form: coefficient slices side by side over one denominator
    nums, d = MB.integer_form()
    assert nums.ring is ZZ and (nums.nrows, nums.ncols) == (m, ring.degree * l)
    assert [[tuple(Fraction(r[j * l + c], d) for j in range(ring.degree)) for c in range(l)]
            for r in nums.rows] == B


def test_a_second_extension_product_reads_the_kept_integer_form():
    R = rational_lambda_ring(5)[0]
    half, third = Fraction(1, 2), Fraction(1, 3)
    A = Matrix(R, [[(half, 1), (0, third)], [R.zero, (2, -1)]])
    B = Matrix(R, [[(1, half), (third, 0)], [(0, 1), (Fraction(1, 4), 2)]])
    first = A.mul(B)
    form = B.integer_form()
    assert form[1] == 12 and form[0].rows == [[12, 4, 6, 0], [0, 3, 12, 24]]
    assert A.mul(B) == first and B.integer_form() is form
    # a rebuilt form would hide this substitution
    B._integer_form = (Matrix(ZZ, [[0] * 4] * 2), 1)
    assert A.mul(B).is_zero()


@pytest.mark.parametrize("name", EXTENSION_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_extension_rref_and_left_kernel_match_the_textbook(name, data):
    ring, ops, coeff, _kind = _extension_case(name)
    n, m = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    rows = _sparse_elements(data, ring, coeff, n, m)
    A = Matrix(ring, rows, m)
    want, pivots = oracles.dense_rref(rows, ops)
    _check_rref_against(A, want, pivots)
    assert left_kernel(A).rows == oracles.dense_left_kernel(rows, ops)


@pytest.mark.parametrize("name", EXTENSION_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_extension_reduce_and_express_match_the_textbook(name, data):
    ring, ops, coeff, _kind = _extension_case(name)
    m = data.draw(st.integers(1, 8))
    relations = _sparse_elements(data, ring, coeff, data.draw(st.integers(0, 8)), m)
    mod = FPModule(ring, m, Matrix(ring, relations, m))
    vec = _sparse_elements(data, ring, coeff, 1, m)[0]
    assert list(mod.reduce(vec)) == oracles.dense_quotient_coords(relations, vec, ops)
    assert RowBasis(Matrix(ring, relations, m)).contains(vec) == mod.is_zero_element(vec)
    # keep the rows that raise the rank, so the coefficients are unique
    rows = []
    for row in relations:
        if oracles.dense_rank(rows + [row], ops) > len(rows):
            rows.append(row)
    basis = RowBasis(Matrix(ring, rows, m))
    coeffs = _sparse_elements(data, ring, coeff, 1, len(rows))[0]
    inside = oracles.dense_product([coeffs], rows, m, ops)[0] if rows else [ring.zero] * m
    assert basis.express(inside) == oracles.dense_solve(rows, inside, ops) == coeffs
    want = oracles.dense_solve(rows, vec, ops)
    if want is None:
        with pytest.raises(NotInSpanError):
            basis.express(vec)
    else:
        assert basis.express(vec) == want


@pytest.mark.parametrize("n", [5, 7])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lambda_elimination_keeps_primitive_rows_and_integer_pivots(n, data):
    # over Q(lambda) every pivot is a positive rational integer, and each
    # row is primitive together with its transform
    ring, _ops, coeff, _kind = _extension_case("Q(lambda%d)" % n)
    ncols = data.draw(st.integers(0, 8))
    rows = _sparse_elements(data, ring, coeff, data.draw(st.integers(0, 8)), ncols)
    ar = _arithmetic(ring)
    for reduce in (_echelon, _reduced):
        loaded, _scales = _load(ar, Matrix(ring, rows, ncols))
        out = reduce(ar, loaded, [{i: ar.one} for i in range(len(rows))])[0]
        pivots = [(c,) + out[c] for c in out] if isinstance(out, dict) else out
        for c, row, t in pivots:
            p = row[c]
            assert p[0] > 0 and not any(p[1:])
            assert gcd(*(x for e in list(row.values()) + list(t.values()) for x in e)) == 1


@pytest.mark.parametrize(
    "spec,n", [("q", 3), ("z", 3), ("fp:71", 3)] + [("lambda", n) for n in range(3, 8)]
)
def test_every_cli_ring_eliminates_on_integers(spec, n):
    # _build_ring reads only the signature n of the cosets
    ring = cli._build_ring(cli._ring_spec(spec), SimpleNamespace(n=n))
    assert type(_arithmetic(ring)) in (_Rationals, _PrimeField, _IntegralExtension)


def test_elimination_refuses_rings_without_an_integer_flavour():
    with pytest.raises(UnsupportedRingError):
        _arithmetic(integral_lambda_ring(5)[0])  # Z[lambda] is no field
    with pytest.raises(UnsupportedRingError):
        rref(Matrix(integral_lambda_ring(5)[0], [[(1, 0)]]))


# -- integer normal forms ----------------------------------------------------


@settings(max_examples=60)
@given(int_matrix())
def test_hermite_form_properties(rows):
    A = as_zz(rows)
    H, U = hermite_normal_form(A, with_transform=True)
    assert U.mul(A) == H
    assert abs(sympy.Matrix([r for r in U.rows]).det()) == 1
    assert_hermite_shape(H)


@settings(max_examples=150)
@given(sparse_int_matrix())
def test_sparse_hermite_form_matches_the_textbook_oracle(case):
    rows, m = case
    A = Matrix(ZZ, rows, m)
    H, U = hermite_normal_form(A, with_transform=True)
    assert H.rows == oracles.dense_hnf(rows, m)
    assert hermite_normal_form(A) == H
    assert U.mul(A) == H
    assert abs(sympy.Matrix(len(rows), len(rows), [x for r in U.rows for x in r]).det()) == 1
    assert_hermite_shape(H)


@st.composite
def hermite_inputs(draw):
    """A sparse integer matrix; with zero rows added, or replaced by its
    Hermite form (rows shuffled in among zero rows, or as it is)."""
    rows, m = draw(sparse_int_matrix(max_n=10, max_m=10))
    kind = draw(st.sampled_from(["random", "zero rows", "hermite", "hermite shuffled"]))
    if kind == "zero rows":
        rows = rows + [[0] * m for _ in range(draw(st.integers(1, 4)))]
    elif kind.startswith("hermite"):
        rows = oracles.dense_hnf(rows, m)
        if kind == "hermite shuffled":
            rows = draw(st.permutations(rows))
    return rows, m


@settings(max_examples=200, deadline=None)
@given(hermite_inputs())
def test_indexed_hermite_form_matches_the_scanning_oracle(case):
    # the column index changes which rows are visited, not the steps taken
    rows, m = case
    H, U = hermite_normal_form(Matrix(ZZ, rows, m), with_transform=True)
    want_h, want_u = oracles.hnf_by_scan(rows, m)
    assert H.sparse_rows() == want_h
    assert U.sparse_rows() == want_u
    assert hermite_normal_form(Matrix(ZZ, rows, m)).sparse_rows() == want_h


def test_hermite_form_of_a_hermite_basis_touches_no_row(monkeypatch):
    # an input already in Hermite form takes no combination and no
    # reduction: each column's only row is its pivot row
    rows = [r for r in oracles.dense_hnf([[2, 4, 1, 0, 3], [0, 3, 5, 1, 1], [1, 1, 1, 1, 7]], 5) if any(r)]
    calls = []
    monkeypatch.setattr(linalg, "_addmul", lambda *a: calls.append(a))
    monkeypatch.setattr(linalg, "_combine", lambda *a: calls.append(a))
    assert hermite_normal_form(Matrix(ZZ, rows, 5)).rows == rows
    assert calls == []


@settings(max_examples=150)
@given(sparse_int_matrix())
def test_sparse_smith_core_transforms(case):
    rows, m = case
    n = len(rows)
    D, U, W, Winv = (
        Matrix(ZZ, [[r.get(j, 0) for j in range(size)] for r in part], size)
        for part, size in zip(_snf_core(_int_rows(Matrix(ZZ, rows, m)), m), (m, n, m, m))
    )
    assert W.mul(Winv) == Matrix.identity(ZZ, m)
    assert U.mul(Matrix(ZZ, rows, m)).mul(W) == D
    diag = [D.rows[i][i] for i in range(min(n, m))]
    assert all(x == 0 for i, r in enumerate(D.rows) for j, x in enumerate(r) if i != j)
    assert all(d >= 0 for d in diag)
    assert all(y == 0 or (x and y % x == 0) for x, y in zip(diag, diag[1:]))


@settings(max_examples=100)
@given(sparse_int_matrix(), st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_integral_reduce_kills_relations_and_lifts_within_the_lattice(case, data):
    rows, m = case
    mod = FPModule(ZZ, m, Matrix(ZZ, rows, m))
    for r in rows:
        assert not any(mod.reduce(r))
    v = data[:m]
    coords = mod.reduce(v)
    back = mod.coords_to_ambient(coords)
    assert mod.reduce(back) == coords
    assert oracles.in_row_lattice(rows, m, [x - y for x, y in zip(back, v)])


@settings(max_examples=60)
@given(int_matrix())
def test_smith_form_matches_sympy_invariants(rows):
    A = as_zz(rows)
    D, U, W = smith_normal_form(A)
    assert U.mul(A).mul(W) == D
    assert abs(sympy.Matrix(U.rows).det()) == 1
    assert abs(sympy.Matrix(W.rows).det()) == 1
    got = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    S = sympy_snf(sympy.Matrix(rows))
    want = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
    assert sorted(got) == sorted(want)


@settings(max_examples=150)
@given(sparse_int_matrix(), st.booleans())
def test_invariants_from_the_hermite_form_are_the_smith_diagonal(case, unit_heavy):
    # unit pivots split off as factors 1; the rest is diagonalized alone.
    # Building the full form afterwards (reduce) checks the two agree.
    rows, m = case
    if unit_heavy:  # relation-like: many rows with a unit entry
        rows = [[1 if j == i % max(m, 1) else x for j, x in enumerate(r)] for i, r in enumerate(rows)]
    D = smith_normal_form(Matrix(ZZ, rows, m))[0]
    diag = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    mod = FPModule(ZZ, m, Matrix(ZZ, rows, m))
    assert mod.invariants() == tuple(diag + [0] * (m - len(diag)))
    assert mod.rank() == m - (matrix_rank(Matrix(ZZ, rows, m)) if rows else 0)
    mod.reduce([0] * m)


def test_smith_form_hand_example():
    D, U, W = smith_normal_form(as_zz([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert [D.rows[i][i] for i in range(3)] == [2, 2, 156]


# -- row bases ---------------------------------------------------------------


def test_rowbasis_express_rational():
    A = Matrix(QQ, [[Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(1)]])
    B = RowBasis(A)
    coeffs = B.express([Fraction(2), Fraction(1)])
    assert coeffs[0] * A.rows[0][0] + coeffs[1] * A.rows[1][0] == 2
    assert coeffs[0] * A.rows[0][1] + coeffs[1] * A.rows[1][1] == 1
    with pytest.raises(NotInSpanError):
        RowBasis(Matrix(QQ, [[Fraction(1), Fraction(0)]])).express([Fraction(0), Fraction(1)])


def test_rowbasis_integer_lattice():
    B = RowBasis(as_zz([[2, 0], [0, 3]]))
    assert B.contains([4, 3])
    assert not B.contains([1, 0])
    c = B.express([2, 3])
    assert c == [1, 1]


@settings(max_examples=150)
@given(sparse_int_matrix(), st.data())
def test_integral_express_solves_in_the_lattice_like_the_textbook(case, data):
    rows, m = case
    if len(rows) >= 2:  # one row certainly dependent on the others
        rows = rows + [[x - 2 * y for x, y in zip(rows[0], rows[1])]]
    basis = RowBasis(Matrix(ZZ, rows, m))
    ops = oracles.RationalOps
    coeffs = data.draw(st.lists(small_int, min_size=len(rows), max_size=len(rows)))
    inside = [int(x) for x in oracles.dense_product([coeffs], rows, m, ops)[0]]
    got = basis.express(inside)
    assert len(got) == len(rows) and all(type(x) is int for x in got)
    assert oracles.dense_product([got], rows, m, ops)[0] == inside
    # one unit off the lattice vector in each column: outside the lattice
    # when the column's Hermite pivot does not divide one, or it has none
    pivots = {}
    for row in oracles.dense_hnf(rows, m):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            pivots[c] = row[c]
    for c in range(m):
        vec = [x + (j == c) for j, x in enumerate(inside)]
        if oracles.in_row_lattice(rows, m, vec):
            assert oracles.dense_product([basis.express(vec)], rows, m, ops)[0] == vec
        else:
            with pytest.raises(NotInSpanError):
                basis.express(vec)
            assert not basis.contains(vec)
        if pivots.get(c) != 1:
            assert not oracles.in_row_lattice(rows, m, vec)


# -- presented modules -------------------------------------------------------


def test_fpmodule_z_torsion():
    M = FPModule(ZZ, 2, Matrix(ZZ, [[2, 0]]))
    assert M.rank() == 1
    assert M.torsion() == (2,)
    assert M.is_zero_element([2, 0])
    assert not M.is_zero_element([1, 0])


def test_fpmodule_field_dim_and_reduce():
    M = FPModule(QQ, 3, Matrix(QQ, [[Fraction(1), Fraction(1), Fraction(0)]]))
    assert M.dim() == 2
    r1 = M.reduce([Fraction(1), Fraction(0), Fraction(0)])
    r2 = M.reduce([Fraction(0), Fraction(-1), Fraction(0)])
    assert r1 == r2


def test_prime_field_reduce_returns_residues():
    # vectors of ints that are not residues 0..p-1 still reduce to residues,
    # as RowBasis and Matrix.act_on_row take them
    F = GF(5)
    assert FPModule(F, 1).is_zero_element([5])
    assert FPModule(F, 1).reduce([-3]) == (2,)
    assert FPModule(F, 2, Matrix(F, [[1, 2]])).reduce([0, 7]) == (2,)
    assert FPModule(F, 2, Matrix(F, [[1, 2]])).is_zero_element([6, 12])
    assert RowBasis(Matrix(F, [[1, 2]])).contains([5, 10])


def test_fpmap_welldefined_check():
    src = FPModule(ZZ, 1, Matrix(ZZ, [[2]]))
    dst = FPModule(ZZ, 1, Matrix(ZZ, [[3]]))
    with pytest.raises(IllDefinedMapError):
        FPMap(src, dst, Matrix(ZZ, [[1]]), check=True)
    ok = FPMap(src, FPModule(ZZ, 1, Matrix(ZZ, [[2]])), Matrix(ZZ, [[1]]), check=True)
    assert ok.matrix_on_generators().rows


def test_fpmap_kernel_image_cokernel_over_q():
    # map Q^2 -> Q^2 collapsing the second coordinate
    src = FPModule(QQ, 2)
    dst = FPModule(QQ, 2)
    A = Matrix(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    f = FPMap(src, dst, A)
    ker, kgens = f.kernel()
    assert ker.dim() == 1
    img, _ = f.image()
    assert img.dim() == 1
    cok = FPModule(QQ, 2, dst.relations.stack(f.ambient))
    assert cok.dim() == 1


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ], ids=["Q", "F7", "Z"])
def test_fpmap_pushes_rows_like_act_on_row(ring):
    # over a field matrix_on_generators reads the rows at the free
    # generators, over Z it multiplies the generator rows into the ambient;
    # both must agree with pushing each generator through the whole matrix
    rng = random.Random(3)

    def rand_rows(n, m, density=0.5):
        def entry():
            return ring.of_int(rng.randint(-3, 3)) if rng.random() < density else ring.zero

        return [[entry() for _ in range(m)] for _ in range(n)]

    for n, m in ((5, 4), (7, 6)):
        src = FPModule(ring, n, Matrix(ring, rand_rows(2, n), n))
        dst = FPModule(ring, m, Matrix(ring, rand_rows(2, m), m))
        f = FPMap(src, dst, Matrix(ring, rand_rows(n, m), m), check=False)
        gens = src.generator_ambient_rows().rows
        expected = [list(dst.reduce(f.ambient.act_on_row(g))) for g in gens]
        assert f.matrix_on_generators() == Matrix(ring, expected, dst.ncoords())


def test_fpmap_kernel_over_z_with_torsion_target():
    # multiplication by 1: Z -> Z/4 has kernel 4Z, presented as free rank 1
    src = FPModule(ZZ, 1)
    dst = FPModule(ZZ, 1, Matrix(ZZ, [[4]]))
    f = FPMap(src, dst, Matrix(ZZ, [[1]]))
    ker, kgens = f.kernel()
    assert kgens.rows == [[4]]
    assert ker.rank() == 1 and ker.torsion() == ()
    cok = FPModule(ZZ, 1, dst.relations.stack(f.ambient))
    assert cok.rank() == 0 and cok.torsion() == ()


def test_fpmap_image_with_torsion():
    # x -> 2x : Z/4 -> Z/4 has image of order 2, kernel of order 2
    src = FPModule(ZZ, 1, Matrix(ZZ, [[4]]))
    dst = FPModule(ZZ, 1, Matrix(ZZ, [[4]]))
    f = FPMap(src, dst, Matrix(ZZ, [[2]]))
    ker, kgens = f.kernel()
    assert ker.rank() == 0 and ker.torsion() == (2,)
    img, _ = f.image()
    assert img.rank() == 0 and img.torsion() == (2,)


def test_fpmodule_refuses_relations_over_another_ring():
    # the normal form is chosen from the module's ring; relations over
    # another ring once reduced to wrong coordinates or died in pow
    with pytest.raises(UnsupportedRingError, match="relations over fp:5"):
        FPModule(QQ, 2, Matrix(GF(5), [[3, 4]]))
    with pytest.raises(UnsupportedRingError, match="module over fp:5"):
        FPModule(GF(5), 2, Matrix(QQ, [[Fraction(1), Fraction(1, 2)]]))


def test_field_notions_are_refused_over_z():
    mod = FPModule(ZZ, 3, Matrix(ZZ, [[2, 0, 0]]))
    for read in (mod.free_generators, mod.dim):
        with pytest.raises(UnsupportedRingError, match="field notions"):
            read()
    assert mod.rank() == 2 and mod.torsion() == (2,)


def test_presentations_refuse_rings_that_are_neither_z_nor_a_field():
    Z5 = integral_lambda_ring(5)[0]  # Z[lambda] is no field
    rel = Matrix(Z5, [[Z5.one, Z5.zero]])
    for build in (lambda: FPModule(Z5, 2, rel), lambda: RowBasis(rel)):
        with pytest.raises(UnsupportedRingError, match="a field or the integers"):
            build()


@pytest.mark.parametrize("ring", [QQ, GF(7), ZZ], ids=["Q", "F7", "Z"])
def test_presentations_check_shapes(ring):
    one, zero = ring.one, ring.zero
    with pytest.raises(ShapeError):
        FPModule(ring, -1)
    with pytest.raises(ShapeError):
        FPModule(ring, 2, Matrix(ring, [[one]]))
    mod = FPModule(ring, 2, Matrix(ring, [[one, one]]))
    with pytest.raises(ShapeError):
        mod.reduce([one])
    with pytest.raises(ShapeError):
        RowBasis(Matrix(ring, [[one, zero]])).express([one])
    with pytest.raises(ShapeError):
        FPMap(mod, FPModule(ring, 3), Matrix(ring, [[one, zero], [zero, one]]))


def test_presentations_never_test_the_ring_kind():
    # _normal_form is the one place that chooses a normal form by the ring
    for cls in (FPModule, RowBasis, FPMap):
        assert not re.search(r"IntegerRing|is_field|isinstance\([^)]*ring", inspect.getsource(cls)), cls


@st.composite
def presented_maps(draw):
    """(n, m, source relations, ambient map, extra target relations) of
    small integer matrices. Relation rows are scaled by 2, 3, 6 or 7 now
    and then, for torsion that some of the primes divide. The target
    relations are the source relations pushed through the map, plus the
    extra rows, so the map is well defined over every ring."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def rows(count, width, scales=(1,)):
        row = st.tuples(st.sampled_from(scales), st.lists(st.integers(-4, 4), min_size=width, max_size=width))
        return [[c * x for x in r] for c, r in draw(st.lists(row, min_size=count[0], max_size=count[1]))]

    rel = rows((0, 3), n, (1, 2, 3, 6, 7))
    ambient = rows((n, n), m)
    extra = rows((0, 2), m, (1, 2, 3, 6, 7))
    return n, m, rel, ambient, extra


@settings(max_examples=60, deadline=None)
@given(presented_maps())
def test_normal_forms_agree_across_rings(case):
    n, m, rel, ambient, extra = case
    pushed = [[sum(r[i] * ambient[i][j] for i in range(n)) for j in range(m)] for r in rel]

    def presented_map(ring):
        def mat(rows, width):
            return Matrix(ring, [[ring.of_int(x) for x in r] for r in rows], width)

        src, dst = FPModule(ring, n, mat(rel, n)), FPModule(ring, m, mat(pushed + extra, m))
        return FPMap(src, dst, mat(ambient, m), check=True)

    z = presented_map(ZZ)
    for ring in (QQ, GF(2), GF(3), GF(7)):
        f = presented_map(ring)
        for over_z, over_f in ((z.src, f.src), (z.dst, f.dst)):
            # universal coefficients: Q sees the free rank, F_p also each
            # invariant factor that p divides
            p = getattr(ring, "p", None)
            torsion = [d for d in over_z.torsion() if p and d % p == 0]
            assert over_f.dim() == over_z.rank() + len(torsion), (ring, over_z.invariants())
        # rank-nullity over each field
        assert f.kernel()[0].dim() + f.rank() == f.src.dim() and f.image()[0].dim() == f.rank()
    # over Z, ranks are additive along 0 -> ker -> src -> im -> 0
    assert z.kernel()[0].rank() + z.rank() == z.src.rank()


# -- subquotients -------------------------------------------------------------


SUBQUOTIENT_RINGS = [
    pytest.param(QQ, id="q"),
    pytest.param(GF(7), id="fp7"),
    pytest.param(ZZ, id="z"),
    pytest.param(rational_lambda_ring(5)[0], id="lambda5"),
]


@pytest.mark.parametrize("ring", SUBQUOTIENT_RINGS)
def test_subquotient_writes_each_row_in_the_sub_rows(ring):
    e = ring.of_int
    sub = Matrix(ring, [[e(1), e(2), e(0)], [e(0), e(1), e(3)]])
    q = subquotient(sub, Matrix(ring, [[e(2), e(5), e(3)], [e(0), e(0), e(0)]]))
    assert q.ngens == 2
    assert q.relations == Matrix(ring, [[e(2), e(1)], [e(0), e(0)]])


@pytest.mark.parametrize("ring", SUBQUOTIENT_RINGS)
def test_subquotient_refuses_a_row_outside_the_span(ring):
    e = ring.of_int
    sub = Matrix(ring, [[e(1), e(2), e(0)], [e(0), e(1), e(3)]])
    with pytest.raises(NotInSpanError):
        subquotient(sub, Matrix(ring, [[e(1), e(2), e(0)], [e(0), e(0), e(1)]]))


def test_subquotient_over_z_refuses_a_row_outside_the_lattice():
    # (1, 0) is in the rational span of (2, 0) but not in its lattice
    with pytest.raises(NotInSpanError):
        subquotient(as_zz([[2, 0]]), as_zz([[1, 0]]))


@settings(max_examples=120)
@given(sparse_int_matrix(), st.data())
def test_lattice_quotient_is_the_two_hermite_kernel(case, data):
    # L(gens) / L(rows) on the Hermite basis gens: its relations are the
    # Hermite basis of the coordinates of rows, which is the saturated left
    # kernel of [gens; rows] cut to the gens columns
    rows, m = case
    gens = hermite_basis(Matrix(ZZ, rows, m))
    assert gens.rows == [r for r in oracles.dense_hnf(rows, m) if any(r)]
    k = data.draw(st.integers(0, 5))
    coeffs = data.draw(st.lists(st.lists(small_int, min_size=gens.nrows, max_size=gens.nrows),
                                min_size=k, max_size=k))
    rel = Matrix(ZZ, [gens.act_on_row(c) for c in coeffs], m)
    expected = _leading(left_kernel(gens.stack(rel)), gens.nrows)
    assert lattice_quotient(gens, rel).relations == expected


@settings(max_examples=40)
@given(int_matrix(4, 4), int_matrix(4, 4))
def test_fpmap_rank_nullity_over_q(rows_rel, rows_map):
    n = len(rows_map[0])
    src = FPModule(QQ, len(rows_map))
    dst = FPModule(QQ, n)
    A = Matrix(QQ, [[Fraction(x) for x in r] for r in rows_map])
    f = FPMap(src, dst, A)
    ker, _ = f.kernel()
    img, _ = f.image()
    assert ker.dim() + img.dim() == src.dim()


# -- characteristic polynomial ----------------------------------------------


@settings(max_examples=50)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_matches_sympy(rows):
    A = as_zz(rows)
    got = charpoly(A)
    want = oracles.sl2_charpoly(rows)
    assert tuple(Fraction(x) for x in got) == tuple(Fraction(x) for x in want)


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    _square(n, st.integers(-30, 30)),
    _square(n, st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12))))))
def test_residue_charpoly_is_the_charpoly_of_a_rational_conjugate(mp):
    m_rows, p_rows = mp
    P = sympy.Matrix(p_rows)
    if P.det() == 0:
        return
    conj = P.inv() * sympy.Matrix(m_rows) * P
    A = Matrix(QQ, [[Fraction(int(x.p), int(x.q)) for x in conj.row(i)] for i in range(conj.rows)])
    # every eigenvalue of M is at most its largest absolute row sum r, so
    # the coefficient of x^(n-i) is at most C(n, i) r^i
    n, r = len(m_rows), max(sum(abs(x) for x in row) for row in m_rows)
    bound = max(comb(n, i) * r**i for i in range(n + 1))
    got = charpoly_from_residues(A, bound)
    assert got == charpoly(A) == charpoly(as_zz(m_rows))
    assert all(type(c) is Fraction for c in got)


def test_residue_charpoly_skips_a_prime_of_the_denominator():
    q = _residue_field(0).p
    A = Matrix(QQ, [[Fraction(0), Fraction(q)], [Fraction(1, q), Fraction(0)]])
    assert A.integer_form()[1] == q
    assert charpoly_from_residues(A, 1) == charpoly(A) == [-1, 0, 1]


def test_residue_fields_are_found_once_and_never_at_import():
    code = ("import heckesym.cli, heckesym.hecke; from heckesym import linalg; "
            "assert linalg._RESIDUE_FIELDS == []")
    subprocess.run([sys.executable, "-c", code], check=True)
    fields = [_residue_field(i) for i in range(3)]
    assert all(a is b for a, b in zip(fields, [_residue_field(i) for i in range(3)]))
    qs = [f.p for f in fields]
    assert qs == sorted(qs, reverse=True) and qs[0] < 2**62 and qs[-1] > 2**61
    assert all(sympy.isprime(q) for q in qs)


def test_charpoly_over_gf():
    F = GF(5)
    A = Matrix(F, [[1, 2], [3, 4]])
    # char poly x^2 - 5x - 2 = x^2 + 3 over F_5
    assert charpoly(A) == [3, 0, 1]


def test_charpoly_over_extension_field():
    # the Hessenberg recursion divides; over Q(lambda) it is refused up front
    R, lam = rational_lambda_ring(5)
    with pytest.raises(UnsupportedRingError, match="charpoly runs over Q, Z or F_p"):
        charpoly(Matrix(R, [[lam, R.one], [R.zero, lam]]))
    Z5, mu = integral_lambda_ring(5)
    with pytest.raises(UnsupportedRingError):
        charpoly(Matrix(Z5, [[mu]]))


def test_prime_field_entries_outside_the_residues_are_reduced():
    # 5 is zero in F_5 wherever it enters: the zero test, matrix equality
    # and a Hessenberg pivot search
    F = GF(5)
    assert F.is_zero(5)
    assert Matrix(F, [[5]]) == Matrix(F, [[0]])
    assert charpoly(Matrix(F, [[0, 0, 0], [5, 0, 0], [1, 0, 0]])) == [0, 0, 0, 1]
    # sparse-born rows keep nonzero residues only
    assert Matrix.from_sparse(F, [{0: 5, 1: 7}], 2).sparse_rows() == [{1: 2}]
