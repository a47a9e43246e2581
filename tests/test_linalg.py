import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from heckesym.rings import GF, QQ, ZZ, QuotientExtension
from heckesym.triangle import rational_lambda_ring
from heckesym.linalg import (
    FPModule,
    FPMap,
    IllDefinedMapError,
    Matrix,
    NotInSpanError,
    RowBasis,
    charpoly,
    hermite_normal_form,
    left_kernel,
    matrix_rank,
    rref,
    smith_normal_form,
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


def as_zz(rows):
    return Matrix(ZZ, rows)


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


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rational_reduce_matches_the_textbook_quotient(data):
    ngens = data.draw(st.integers(1, 6))
    relations = _mixed(data, data.draw(st.integers(0, 5)), ngens)
    vec = _mixed(data, 1, ngens)[0]
    mod = FPModule(QQ, ngens, Matrix(QQ, relations, ngens))
    got = mod.reduce(vec)
    assert list(got) == oracles.dense_quotient_coords(relations, vec, oracles.RationalOps)
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rational_express_matches_the_textbook_solve(data):
    ops = oracles.RationalOps
    m = data.draw(st.integers(1, 6))
    # keep the rows that raise the rank, so the coefficients are unique
    rows = []
    for row in _mixed(data, data.draw(st.integers(0, 6)), m):
        if oracles.dense_rank(rows + [row], ops) > len(rows):
            rows.append(row)
    basis = RowBasis(Matrix(QQ, rows, m))
    coeffs = _mixed(data, 1, len(rows))[0]
    inside = oracles.dense_product([coeffs], rows, m, ops)[0] if rows else [0] * m
    got = basis.express(inside)
    assert got == oracles.dense_solve(rows, inside, ops) == coeffs
    assert all(type(x) is Fraction for x in got)
    other = _mixed(data, 1, m)[0]
    want = oracles.dense_solve(rows, other, ops)
    if want is None:
        with pytest.raises(NotInSpanError):
            basis.express(other)
    else:
        assert basis.express(other) == want


# -- integer normal forms ----------------------------------------------------


@settings(max_examples=60)
@given(int_matrix())
def test_hermite_form_properties(rows):
    A = as_zz(rows)
    H, U = hermite_normal_form(A, with_transform=True)
    assert U.mul(A) == H
    assert abs(sympy.Matrix([r for r in U.rows]).det()) == 1
    # staircase with positive pivots, entries above reduced
    lastcol = -1
    for r in H.rows:
        nz = [j for j, x in enumerate(r) if x]
        if not nz:
            continue
        c = nz[0]
        assert c > lastcol
        assert r[c] > 0
        lastcol = c


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


def test_charpoly_over_gf():
    F = GF(5)
    A = Matrix(F, [[1, 2], [3, 4]])
    # char poly x^2 - 5x - 2 = x^2 + 3 over F_5
    assert charpoly(A) == [3, 0, 1]


def test_charpoly_over_extension_field():
    R = QuotientExtension(QQ, (-1, -1, 1))
    lam = R.generator()
    A = Matrix(R, [[lam, R.one], [R.zero, lam]])
    p = charpoly(A)
    # (x - lam)^2 = x^2 - 2 lam x + lam^2, and lam^2 = lam + 1
    assert p == [R.add(lam, R.one), R.mul(R.of_int(-2), lam), R.one]
