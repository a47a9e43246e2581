"""Exact linear algebra over the rings in heckesym.rings.

Matrices are dense lists of rows at every interface. Inside, echelon
forms, ranks and kernels over a field run on one sparse elimination core
that keeps only the nonzero entries of each row, because the relation
matrices here (norms, differences and translations of block-permutation
actions) are a few percent nonzero. The core has three arithmetic
flavours: over Q (and Z read over Q) primitive integer rows with gcd
normalization, which is exact and faster than Fraction arithmetic; over
F_p residues; over any other field, such as Q(2cos(pi/n)), the ring
operations. Ranks take forward elimination alone. The integer Hermite and
Smith forms are dense.

Dense products share one kernel, Matrix.act_on_row, the only place a
matrix dispatches on the ring: a product pushes each row of the left
factor through it, and the elementwise operations call the ring's own.
Over Q it runs on integers: a matrix keeps its integer form (numerators
over one common denominator), built on its first product or given by
Matrix.from_integers, a vector has its denominators cleared, and each
output entry becomes a Fraction once; the rows stay Fractions. The pivot
rows of FPModule.reduce and RowBasis.express over Q take the same form.

Everything is sequential and deterministic, and the normal forms are
canonical: leading-one reduced echelon form over fields, nonnegative
divisibility chain for the Smith form.

Row-vector convention throughout: module elements are rows, maps act by
right multiplication, so the matrix of "f then g" is M_f * M_g.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rings import (
    QQ,
    ZZ,
    IntegerRing,
    PrimeField,
    QuotientExtension,
    RationalField,
    ShapeError,
    UnsupportedRingError,
    xgcd,
)


class InternalInvariantError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


class NotInSpanError(ValueError):
    pass


class Matrix:
    """A dense matrix: a list of rows of ring elements. The rows must not
    be mutated after construction, since over Q the matrix keeps their
    integer form (integer_form) for products; build a new matrix instead."""

    __slots__ = ("ring", "nrows", "ncols", "rows", "_integer_form")

    def __init__(self, ring, rows, ncols=None):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0]) if ncols is None else ncols
            for r in rows:
                if len(r) != ncols:
                    raise ShapeError("ragged rows")
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._integer_form = None

    # -- constructors ----------------------------------------------------
    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_integers(cls, rows):
        """The matrix over Q of nonempty integer rows, with its integer form
        (the rows themselves, denominator one) already in place."""
        ints = Matrix(ZZ, rows)
        mat = cls(QQ, [QQ.from_numerators(r) for r in ints.rows], ints.ncols)
        mat._integer_form = (ints, 1)
        return mat

    def integer_form(self):
        """(Z matrix of numerators, d) with self == numerators / d, d the
        least common denominator; over Q only, built once and kept."""
        form = self._integer_form
        if form is None:
            d = lcm(*{x.denominator for r in self.rows for x in r})
            nums = [[x.numerator * (d // x.denominator) for x in r] for r in self.rows]
            form = self._integer_form = (Matrix(ZZ, nums, self.ncols), d)
        return form

    # -- basics ----------------------------------------------------------
    def stack(self, other):
        if other.ncols != self.ncols:
            raise ShapeError("stack: column counts differ")
        return Matrix(self.ring, self.rows + other.rows, self.ncols)

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise ShapeError("hstack: row counts differ")
        return Matrix(self.ring, [a + b for a, b in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def is_zero(self):
        rz = self.ring.is_zero
        return all(rz(x) for row in self.rows for x in row)

    def tuples(self):
        return tuple(tuple(r) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.ring.kind, self.nrows, self.ncols)

    # -- arithmetic --------------------------------------------------------
    def add(self, other):
        self._same_shape(other)
        f = self.ring.add
        return Matrix(self.ring, [[f(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)], self.ncols)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        f = self.ring.neg
        return Matrix(self.ring, [[f(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        mul = self.ring.mul
        return Matrix(self.ring, [[mul(c, a) for a in r] for r in self.rows], self.ncols)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ShapeError("mul: %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        return Matrix(self.ring, [other.act_on_row(row) for row in self.rows], other.ncols)

    def __mul__(self, other):
        return self.mul(other)

    def act_on_row(self, vec):
        """vec * self for a plain list vec: the product kernel and the hot
        loop of the Hecke row builder. It skips the zero entries of vec and
        runs on native ints and residues, over Q on integer forms."""
        if len(vec) != self.nrows:
            raise ShapeError("act_on_row: length mismatch")
        ring = self.ring
        if isinstance(ring, RationalField):
            nums, d = self.integer_form()
            ivec, dv = _numerators(vec)
            return ring.from_numerators(nums.act_on_row(ivec), d * dv)
        if isinstance(ring, QuotientExtension):
            add, mul = ring.add, ring.mul
            out = [ring.zero] * self.ncols
            for v, row in zip(vec, self.rows):
                if not ring.is_zero(v):
                    out = [add(o, mul(v, a)) for o, a in zip(out, row)]
            return out
        out = [0] * self.ncols
        for v, row in zip(vec, self.rows):
            if v:
                out = [o + v * a for o, a in zip(out, row)]
        if isinstance(ring, PrimeField):
            p = ring.p
            out = [o % p for o in out]
        return out

    def _same_shape(self, other):
        if other.nrows != self.nrows or other.ncols != self.ncols:
            raise ShapeError("shape mismatch")


def _numerators(vec):
    """(integer numerators, d) with vec == numerators / d, d the least
    common denominator of the rational (int or Fraction) entries."""
    d = lcm(*{x.denominator for x in vec})
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // x.denominator) for x in vec], d


def _integral(rows):
    """(integer dicts, d) with rows == dicts / d for rational {index: value}
    dicts, d the least common denominator."""
    d = lcm(*{x.denominator for r in rows for x in r.values()})
    return [{j: x.numerator * (d // x.denominator) for j, x in r.items()} for r in rows], d


# ---------------------------------------------------------------------------
# sparse elimination core
# ---------------------------------------------------------------------------
#
# Rows are {column: value} dicts of the nonzero entries. A transform row is
# a {row index: coefficient} dict over the loaded input rows. Forward
# elimination takes the rows one at a time and reduces each against the
# pivot rows found so far, in increasing pivot-column order; a pivot sits
# at the leftmost entry of its row, so subtracting a pivot row only adds
# columns to the right of the one it clears. The reduced echelon form then
# takes one back-substitution pass over the pivots, right to left. The
# three arithmetic flavours below supply loading, the row operation, pivot
# normalization and dense output.


class _Field:
    """Any field, through its ring operations: pivots scaled to one. This
    flavour serves the quotient extensions; the two below are faster."""

    def __init__(self, ring):
        self.ring = ring
        self.zero, self.one = ring.zero, ring.one

    def sparse(self, row):
        is_zero = self.ring.is_zero
        return {j: x for j, x in enumerate(row) if not is_zero(x)}

    @staticmethod
    def load(row):
        """(loaded row, scale s) with loaded row == s * row."""
        return row, 1

    def eliminate(self, row, t, prow, pt, c):
        """Clear column c of row (and carry t) with the pivot row at c."""
        ring = self.ring
        sub, mul, neg, is_zero = ring.sub, ring.mul, ring.neg, ring.is_zero
        v = row[c]
        for dst, src in ((row, prow),) if t is None else ((row, prow), (t, pt)):
            for j, x in src.items():
                cur = dst.get(j)
                y = neg(mul(v, x)) if cur is None else sub(cur, mul(v, x))
                if is_zero(y):
                    dst.pop(j, None)
                else:
                    dst[j] = y

    def make_pivot(self, row, t, c):
        if row[c] != self.one:
            mul = self.ring.mul
            inv = self.ring.inv(row[c])
            for dst in (row,) if t is None else (row, t):
                for j in dst:
                    dst[j] = mul(inv, dst[j])

    @staticmethod
    def entries(row, p=1, scales=None):
        """(index, value) pairs of a reduced row or a transform row, as
        field elements; p and scales only matter over Q."""
        return list(row.items())


class _PrimeField(_Field):
    """F_p on residues 0..p-1."""

    def __init__(self, ring):
        super().__init__(ring)
        self.p = ring.p

    def sparse(self, row):
        p = self.p
        return {j: x % p for j, x in enumerate(row) if x % p}

    def eliminate(self, row, t, prow, pt, c):
        p, v = self.p, row[c]
        for dst, src in ((row, prow),) if t is None else ((row, prow), (t, pt)):
            for j, x in src.items():
                y = (dst.get(j, 0) - v * x) % p
                if y:
                    dst[j] = y
                else:
                    del dst[j]

    def make_pivot(self, row, t, c):
        p = self.p
        inv = pow(row[c], -1, p)
        if inv != 1:
            for dst in (row,) if t is None else (row, t):
                for j in dst:
                    dst[j] = dst[j] * inv % p


class _Rationals(_Field):
    """Q, and Z read over Q: primitive integer rows with positive pivots.

    Loading clears denominators and divides out the content; its scale
    carries transforms back to the original rows."""

    def __init__(self):
        super().__init__(QQ)
        self.one = 1

    @staticmethod
    def sparse(row):
        return {j: x for j, x in enumerate(row) if x}

    @staticmethod
    def load(row):
        nums, d = _numerators(row.values())
        g = gcd(*nums)
        if g > 1:
            nums = [x // g for x in nums]
        return dict(zip(row, nums)), Fraction(d, g or 1)

    @staticmethod
    def eliminate(row, t, prow, pt, c):
        p, v = prow[c], row[c]
        g = gcd(p, v)
        a, b = p // g, v // g
        pairs = ((row, prow),) if t is None else ((row, prow), (t, pt))
        for dst, src in pairs:
            if a != 1:
                for j in dst:
                    dst[j] *= a
            for j, x in src.items():
                y = dst.get(j, 0) - b * x
                if y:
                    dst[j] = y
                else:
                    del dst[j]
        if a != 1:
            g = gcd(*row.values())
            if g > 1 and t is not None:
                g = gcd(g, *t.values())
            if g > 1:
                for dst, _src in pairs:
                    for j in dst:
                        dst[j] //= g

    @staticmethod
    def make_pivot(row, t, c):
        if row[c] < 0:
            for dst in (row,) if t is None else (row, t):
                for j in dst:
                    dst[j] = -dst[j]

    @staticmethod
    def entries(row, p=1, scales=None):
        if scales is None:
            return [(j, Fraction(x, p)) for j, x in row.items()]
        return [
            (i, Fraction(x * scales[i].numerator, p * scales[i].denominator))
            for i, x in row.items()
        ]


def _field_for(ring):
    if isinstance(ring, IntegerRing):
        return QQ
    if ring.is_field:
        return ring
    raise UnsupportedRingError("field elimination over %s" % ring.kind)


def _arithmetic(ring):
    field = _field_for(ring)
    if isinstance(field, RationalField):
        return _Rationals()
    if isinstance(field, PrimeField):
        return _PrimeField(field)
    return _Field(field)


def _load(ar, dense_rows):
    """Loaded sparse rows of a dense matrix, and their scales."""
    loaded = [ar.load(ar.sparse(row)) for row in dense_rows]
    return [r for r, _ in loaded], [s for _, s in loaded]


def _echelon(ar, rows, ts=None):
    """Forward elimination of loaded rows, consumed in place.

    Returns (pivots, kernel): pivots maps each pivot column to its
    (row, transform) pair, and kernel lists the transforms of the rows that
    reduced to zero (left kernel vectors). With ts None nothing is carried.
    """
    pivots = {}
    kernel = []
    eliminate, make_pivot = ar.eliminate, ar.make_pivot
    for k, row in enumerate(rows):
        t = None if ts is None else ts[k]
        heap = [c for c in row if c in pivots]
        if heap:
            heapify(heap)
            while heap:
                c = heappop(heap)
                if c not in row:
                    continue
                prow, pt = pivots[c]
                eliminate(row, t, prow, pt, c)
                for j in prow.keys() & pivots.keys():
                    if j != c and j in row:
                        heappush(heap, j)
        if row:
            c = min(row)
            make_pivot(row, t, c)
            pivots[c] = (row, t)
        elif t is not None:
            kernel.append(t)
    return pivots, kernel


def _back_substitute(ar, pivots):
    """Clear every pivot column above its pivot: the reduced form."""
    eliminate = ar.eliminate
    for c in sorted(pivots, reverse=True):
        row, t = pivots[c]
        for j in row.keys() & pivots.keys():
            if j != c:
                prow, pt = pivots[j]
                eliminate(row, t, prow, pt, j)


def _reduced(ar, rows, ts=None):
    """Reduced echelon pivots of loaded rows, sorted by pivot column:
    [(column, row, transform)], plus the kernel transforms."""
    pivots, kernel = _echelon(ar, rows, ts)
    _back_substitute(ar, pivots)
    return [(c,) + pivots[c] for c in sorted(pivots)], kernel


def _dense(ar, pairs, size):
    out = [ar.zero] * size
    for j, x in pairs:
        out[j] = x
    return out


def rref(mat, with_transform=False):
    """Reduced row echelon form over the fraction field.

    Returns (R, pivots) or (R, pivots, T) with T * mat == R exactly.
    Pivot entries are 1; pivot columns are cleared elsewhere. Rows of T
    past the rank span the left kernel.
    """
    ar = _arithmetic(mat.ring)
    field = ar.ring
    n, m = mat.nrows, mat.ncols
    rows, scales = _load(ar, mat.rows)
    ts = [{i: ar.one} for i in range(n)] if with_transform else None
    piv, kernel = _reduced(ar, rows, ts)
    rrows = [_dense(ar, ar.entries(row, row[c]), m) for c, row, _t in piv]
    rrows += [[ar.zero] * m for _ in range(n - len(piv))]
    R = Matrix(field, rrows, m)
    pivcols = tuple(c for c, _r, _t in piv)
    if not with_transform:
        return R, pivcols
    trows = [_dense(ar, ar.entries(t, row[c], scales), n) for c, row, t in piv]
    trows += [_dense(ar, ar.entries(t, 1, scales), n) for t in kernel]
    return R, pivcols, Matrix(field, trows, n)


def matrix_rank(mat):
    """Rank over the fraction field, by forward elimination alone."""
    ar = _arithmetic(mat.ring)
    return len(_echelon(ar, _load(ar, mat.rows)[0])[0])


def left_kernel(mat):
    """Basis of {x : x * mat = 0}.

    Over a field: the reduced echelon basis (leading ones). Over Z: basis
    of the full (saturated) integer kernel lattice, Hermite-normalized.
    """
    if isinstance(mat.ring, IntegerRing):
        H, U = hermite_normal_form(mat, with_transform=True)
        ker = [U.rows[r] for r in range(mat.nrows) if all(x == 0 for x in H.rows[r])]
        if not ker:
            return Matrix(ZZ, [], mat.nrows)
        K = hermite_normal_form(Matrix(ZZ, ker, mat.nrows))
        rows = [r for r in K.rows if any(x != 0 for x in r)]
        return Matrix(ZZ, rows, mat.nrows)
    ar = _arithmetic(mat.ring)
    n = mat.nrows
    rows, scales = _load(ar, mat.rows)
    _piv, kernel = _echelon(ar, rows, [{i: ar.one} for i in range(n)])
    # the kernel rows are independent; re-reduce them to the canonical basis
    krows = [ar.load(dict(ar.entries(t, 1, scales)))[0] for t in kernel]
    piv, _ = _reduced(ar, krows)
    return Matrix(ar.ring, [_dense(ar, ar.entries(row, row[c]), n) for c, row, _t in piv], n)


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------


def _require_zz(mat, what):
    if not isinstance(mat.ring, IntegerRing):
        raise UnsupportedRingError("%s requires the integers, got %s" % (what, mat.ring.kind))


def hermite_normal_form(mat, with_transform=False):
    """Row Hermite normal form H with positive pivots, entries above
    reduced into [0, pivot). Optionally also U (unimodular) with U*A = H."""
    _require_zz(mat, "hermite_normal_form")
    n, m = mat.nrows, mat.ncols
    rows = [list(r) for r in mat.rows]
    urows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(m):
        # make all entries below `rank` in column c zero using xgcd combos
        nz = [r for r in range(rank, n) if rows[r][c]]
        if not nz:
            continue
        r0 = nz[0]
        for r in nz[1:]:
            a, b = rows[r0][c], rows[r][c]
            g, x, y = xgcd(a, b)
            aa, bb = a // g, b // g
            new0 = [x * u + y * v for u, v in zip(rows[r0], rows[r])]
            newr = [bb * u - aa * v for u, v in zip(rows[r0], rows[r])]
            rows[r0], rows[r] = new0, newr
            nu0 = [x * u + y * v for u, v in zip(urows[r0], urows[r])]
            nur = [bb * u - aa * v for u, v in zip(urows[r0], urows[r])]
            urows[r0], urows[r] = nu0, nur
        rows[rank], rows[r0] = rows[r0], rows[rank]
        urows[rank], urows[r0] = urows[r0], urows[rank]
        if rows[rank][c] < 0:
            rows[rank] = [-x for x in rows[rank]]
            urows[rank] = [-x for x in urows[rank]]
        p = rows[rank][c]
        for r in range(rank):
            q = rows[r][c] // p
            if q:
                rows[r] = [u - q * v for u, v in zip(rows[r], rows[rank])]
                urows[r] = [u - q * v for u, v in zip(urows[r], urows[rank])]
        rank += 1
    H = Matrix(ZZ, rows, m)
    if with_transform:
        return H, Matrix(ZZ, urows, n)
    return H


def _snf_core(mat, want_w_inv=False):
    """Smith form D = U*A*W with diag divisibility chain, d_i >= 0."""
    n, m = mat.nrows, mat.ncols
    a = [list(r) for r in mat.rows]
    U = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    W = [[1 if j == i else 0 for j in range(m)] for i in range(m)]
    Winv = [[1 if j == i else 0 for j in range(m)] for i in range(m)] if want_w_inv else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def addmul_row(i, j, q):  # row_i += q * row_j
        a[i] = [u + q * v for u, v in zip(a[i], a[j])]
        U[i] = [u + q * v for u, v in zip(U[i], U[j])]

    def neg_row(i):
        a[i] = [-u for u in a[i]]
        U[i] = [-u for u in U[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in W:
            row[i], row[j] = row[j], row[i]
        if Winv is not None:
            Winv[i], Winv[j] = Winv[j], Winv[i]

    def addmul_col(i, j, q):  # col_i += q * col_j ; Winv row_j -= q * row_i
        for row in a:
            row[i] += q * row[j]
        for row in W:
            row[i] += q * row[j]
        if Winv is not None:
            Winv[j] = [u - q * v for u, v in zip(Winv[j], Winv[i])]

    t = 0
    bound = min(n, m)
    while t < bound:
        # locate the nonzero entry of least magnitude in the trailing block
        piv = None
        pivabs = 0
        for i in range(t, n):
            row = a[i]
            for j in range(t, m):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if piv is None or av < pivabs:
                        piv, pivabs = (i, j), av
                        if av == 1:
                            break
            if piv is not None and pivabs == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, n):
                v = a[i][t]
                if v:
                    q = v // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, m):
                v = a[t][j]
                if v:
                    q = v // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            break
        if a[t][t] < 0:
            neg_row(t)
        # enforce the divisibility chain
        d = a[t][t]
        culprit = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            addmul_row(t, culprit, 1)
            continue
        t += 1
    D = Matrix(ZZ, a, m)
    if want_w_inv:
        return D, Matrix(ZZ, U, n), Matrix(ZZ, W, m), Matrix(ZZ, Winv, m)
    return D, Matrix(ZZ, U, n), Matrix(ZZ, W, m)


def smith_normal_form(mat):
    """Return (D, U, W) with U*A*W = D, verified by multiplication.

    Diagonal entries are nonnegative and form a divisibility chain. The
    input is Hermite-reduced first: the HNF's modular reduction keeps the
    entries small, where diagonalizing raw relation matrices directly can
    blow up the intermediate integers by many orders of magnitude.
    """
    _require_zz(mat, "smith_normal_form")
    H, U1 = hermite_normal_form(mat, with_transform=True)
    D, U2, W = _snf_core(H)
    U = U2.mul(U1)
    if U.mul(mat).mul(W) != D:
        raise InternalInvariantError("Smith form transform check failed")
    diag = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    for x, y in zip(diag, diag[1:]):
        if y and (x == 0 or y % x):
            raise InternalInvariantError("Smith diagonal not a divisibility chain")
    return D, U, W


# ---------------------------------------------------------------------------
# prepared row spaces
# ---------------------------------------------------------------------------


class RowBasis:
    """Row space of a matrix, prepared for membership and expression.

    Over a field the coefficients of an expression are unique when the rows
    are independent, which is how the library uses it; for dependent rows
    they are one valid choice."""

    def __init__(self, mat):
        self.mat = mat
        self.ring = mat.ring
        if isinstance(mat.ring, IntegerRing):
            self._H, self._U = hermite_normal_form(mat, with_transform=True)
            self._pivots = _hnf_pivots(self._H)
        else:
            # reduced rows with their transforms, as {index: value} dicts
            ar = _arithmetic(mat.ring)
            rows, scales = _load(ar, mat.rows)
            piv, _ = _reduced(ar, rows, [{i: ar.one} for i in range(mat.nrows)])
            rrows = [dict(ar.entries(row, row[c])) for c, row, _t in piv]
            trows = [dict(ar.entries(t, row[c], scales)) for c, row, t in piv]
            if isinstance(mat.ring, RationalField):
                # integer reduced rows over d, integer transforms over e
                (rrows, d), (trows, e) = _integral(rrows), _integral(trows)
                self._den = d, e
            self._pivots = [(c, r, t) for (c, _r, _t), r, t in zip(piv, rrows, trows)]
        self.rank = len(self._pivots)

    def contains(self, vec):
        try:
            self.express(vec)
            return True
        except NotInSpanError:
            return False

    def express(self, vec):
        """Coefficients c with c * rows(mat) == vec, else NotInSpanError."""
        if len(vec) != self.mat.ncols:
            raise ShapeError("express: length mismatch")
        if isinstance(self.ring, IntegerRing):
            v = list(vec)
            coeffs = [0] * self.mat.nrows
            for r, c in self._pivots:
                p = self._H.rows[r][c]
                q, rem = divmod(v[c], p)
                if rem:
                    raise NotInSpanError("not in the lattice")
                if q:
                    v = [x - q * y for x, y in zip(v, self._H.rows[r])]
                    coeffs = [x + q * y for x, y in zip(coeffs, self._U.rows[r])]
            if any(v):
                raise NotInSpanError("not in the lattice")
            return coeffs
        field = self.ring
        # pivot rows are zero at the other pivots: each coefficient is vec[c]
        if isinstance(field, RationalField):
            # vec = iv / dv; the residual is kept times dv * d
            iv, dv = _numerators(vec)
            d, e = self._den
            res = [x * d for x in iv]
            coeffs = [0] * self.mat.nrows
            for c, rrow, trow in self._pivots:
                coef = iv[c]
                if coef:
                    for j, x in rrow.items():
                        res[j] -= coef * x
                    for i, x in trow.items():
                        coeffs[i] += coef * x
            if any(res):
                raise NotInSpanError("not in the row space")
            return field.from_numerators(coeffs, dv * e)
        add, sub, mul, is_zero = field.add, field.sub, field.mul, field.is_zero
        vec = [field.of_int(x) if isinstance(x, int) else x for x in vec]
        v = {j: x for j, x in enumerate(vec) if not is_zero(x)}
        coeffs = [field.zero] * self.mat.nrows
        for c, rrow, trow in self._pivots:
            coef = v.get(c)
            if coef is None:
                continue
            for j, x in rrow.items():
                y = sub(v.get(j, field.zero), mul(coef, x))
                if is_zero(y):
                    v.pop(j, None)
                else:
                    v[j] = y
            for i, x in trow.items():
                coeffs[i] = add(coeffs[i], mul(coef, x))
        if v:
            raise NotInSpanError("not in the row space")
        return coeffs


def _hnf_pivots(H):
    pivots = []
    col = -1
    for r, row in enumerate(H.rows):
        for c in range(col + 1, len(row)):
            if row[c]:
                pivots.append((r, c))
                col = c
                break
        else:
            break
    return pivots


# ---------------------------------------------------------------------------
# finitely presented modules and maps
# ---------------------------------------------------------------------------


class FPModule:
    """Quotient of a free module R^ngens by the row span of `relations`.

    Over a field the normal form is the reduced echelon basis of the
    relations; over Z it is the Smith form (diagonal invariant factors).
    """

    def __init__(self, ring, ngens, relations=None):
        if ngens < 0:
            raise ShapeError("negative generator count")
        if relations is None:
            relations = Matrix(ring, [], ngens)
        if relations.ncols != ngens:
            raise ShapeError("relations have %d columns, expected %d" % (relations.ncols, ngens))
        if not (isinstance(ring, IntegerRing) or ring.is_field):
            raise UnsupportedRingError("presentations require a field or the integers")
        self.ring = ring
        self.ngens = ngens
        self.relations = relations
        self._normalized = False

    def _normalize(self):
        if self._normalized:
            return
        if isinstance(self.ring, IntegerRing):
            # Hermite-reduce first: same row lattice, so the same quotient,
            # but with entries the diagonalization can digest
            hnf = hermite_normal_form(self.relations)
            reduced = Matrix(ZZ, [list(r) for r in hnf.rows if any(r)], self.ngens)
            D, _U, W, Winv = _snf_core(reduced, want_w_inv=True)
            diag = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
            diag += [0] * (self.ngens - len(diag))
            self._diag = diag
            self._W = W
            self._Winv = Winv
        else:
            ar = _arithmetic(self.ring)
            piv, _ = _reduced(ar, _load(ar, self.relations.rows)[0])
            pivcols = {c for c, _r, _t in piv}
            self._free = [c for c in range(self.ngens) if c not in pivcols]
            where = {f: i for i, f in enumerate(self._free)}
            # (pivot column, {free coordinate: entry}) of each reduced row;
            # over Q integers over d, the lcm of the (positive) pivots
            if isinstance(self.ring, RationalField):
                d = self._den = lcm(*(row[c] for c, row, _t in piv))
                rows = [(c, {j: x * (d // row[c]) for j, x in row.items()}) for c, row, _t in piv]
            else:
                rows = [(c, dict(ar.entries(row, row[c]))) for c, row, _t in piv]
            self._pivot_tails = [(c, {where[j]: x for j, x in r.items() if j != c})
                                 for c, r in rows]
        self._normalized = True

    # -- structure -------------------------------------------------------
    def rank(self):
        self._normalize()
        if isinstance(self.ring, IntegerRing):
            return sum(1 for d in self._diag if d == 0)
        return len(self._free)

    def dim(self):
        if isinstance(self.ring, IntegerRing):
            raise UnsupportedRingError("dim is a field notion; use rank/invariants over Z")
        return self.rank()

    def invariants(self):
        """Diagonal of the Smith form of the relations (Z only)."""
        if not isinstance(self.ring, IntegerRing):
            return ()
        self._normalize()
        return tuple(self._diag)

    def torsion(self):
        return tuple(d for d in self.invariants() if d > 1)

    # -- elements ----------------------------------------------------------
    def reduce(self, vec):
        """Canonical coordinates of an ambient row vector in the quotient.

        Field: coordinates on the free (non-pivot) generator positions.
        Z: Smith coordinates, each reduced mod its invariant factor.
        """
        if len(vec) != self.ngens:
            raise ShapeError("reduce: length mismatch")
        self._normalize()
        if isinstance(self.ring, IntegerRing):
            y = self._W.act_on_row(list(vec))
            return tuple(v % d if d else v for v, d in zip(y, self._diag))
        field = self.ring
        if isinstance(field, RationalField):
            # vec = iv / dv; the coordinates are kept times dv * d
            iv, dv = _numerators(vec)
            d = self._den
            coords = [iv[f] * d for f in self._free]
            for c, tail in self._pivot_tails:
                v = iv[c]
                if v:
                    for i, t in tail.items():
                        coords[i] -= v * t
            return tuple(field.from_numerators(coords, dv * d))
        coords = [vec[f] for f in self._free]
        sub, mul, is_zero = field.sub, field.mul, field.is_zero
        for c, tail in self._pivot_tails:
            v = vec[c]
            if not is_zero(v):
                for i, t in tail.items():
                    coords[i] = sub(coords[i], mul(v, t))
        return tuple(coords)

    def is_zero_element(self, vec):
        rz = self.ring.is_zero
        return all(rz(x) for x in self.reduce(vec))

    def coords_to_ambient(self, coords):
        """A representative ambient vector for canonical coordinates."""
        self._normalize()
        if isinstance(self.ring, IntegerRing):
            return self._Winv.act_on_row(list(coords))
        vec = [self.ring.zero] * self.ngens
        for f, x in zip(self._free, coords):
            vec[f] = x
        return vec

    def free_generators(self):
        """Field only: the ambient coordinates that are not pivots of the
        relations; their unit vectors are the normalized generators."""
        self._normalize()
        return list(self._free)

    def generator_ambient_rows(self):
        """Ambient representatives of the normalized generators."""
        self._normalize()
        if isinstance(self.ring, IntegerRing):
            return Matrix(ZZ, [list(r) for r in self._Winv.rows], self.ngens)
        rows = []
        for f in self._free:
            v = [self.ring.zero] * self.ngens
            v[f] = self.ring.one
            rows.append(v)
        return Matrix(self.ring, rows, self.ngens)

    def ncoords(self):
        self._normalize()
        if isinstance(self.ring, IntegerRing):
            return self.ngens
        return len(self._free)

    def __repr__(self):
        if isinstance(self.ring, IntegerRing):
            return "FPModule(Z, rank %d, torsion %s)" % (self.rank(), list(self.torsion()))
        return "FPModule(%s, dim %d)" % (self.ring.kind, self.rank())


class IllDefinedMapError(ValueError):
    pass


class FPMap:
    """A map between presented modules, given on ambient generators.

    A map is immutable, so its matrix on generators is computed once."""

    def __init__(self, src, dst, ambient, check=True):
        if ambient.nrows != src.ngens or ambient.ncols != dst.ngens:
            raise ShapeError("ambient map shape mismatch")
        self.src = src
        self.dst = dst
        self.ambient = ambient
        if check:
            for row in src.relations.rows:
                if not dst.is_zero_element(ambient.act_on_row(row)):
                    raise IllDefinedMapError("source relation does not map into target relations")

    def rows_at(self, indices):
        """The ambient rows at the given source coordinates (read only)."""
        return [self.ambient.rows[r] for r in indices]

    def matrix_on_generators(self):
        """Matrix in canonical coordinates (rows: src generators), built on
        the first call and kept.

        Over a field the generators are the free coordinates, whose images
        are plain ambient rows."""
        mat = getattr(self, "_on_generators", None)
        if mat is None:
            if isinstance(self.src.ring, IntegerRing):
                images = self.src.generator_ambient_rows().mul(self.ambient).rows
            else:
                images = self.rows_at(self.src.free_generators())
            rows = [list(self.dst.reduce(v)) for v in images]
            mat = self._on_generators = Matrix(self.dst.ring, rows, self.dst.ncoords())
        return mat

    def kernel(self):
        """(FPModule K, ambient rows of its generators inside src)."""
        ring = self.src.ring
        if isinstance(ring, IntegerRing):
            stacked = self.ambient.stack(self.dst.relations)
            K = left_kernel(stacked)
            pre = [row[: self.src.ngens] for row in K.rows]
            pre = [r for r in pre if any(x != 0 for x in r)]
            if pre:
                Hpre = hermite_normal_form(Matrix(ZZ, pre, self.src.ngens))
                pre = [r for r in Hpre.rows if any(x != 0 for x in r)]
            gens = Matrix(ZZ, pre, self.src.ngens)
            if gens.nrows:
                stacked2 = gens.stack(self.src.relations)
                K2 = left_kernel(stacked2)
                relrows = [row[: gens.nrows] for row in K2.rows]
                rel = Matrix(ZZ, [r for r in relrows if any(x != 0 for x in r)], gens.nrows)
            else:
                rel = Matrix(ZZ, [], 0)
            return FPModule(ZZ, gens.nrows, rel), gens
        K = left_kernel(self.matrix_on_generators())
        gens = Matrix(ring, [self.src.coords_to_ambient(k) for k in K.rows], self.src.ngens)
        return FPModule(ring, gens.nrows), gens

    def image(self):
        """(FPModule I, ambient rows spanning the image inside dst)."""
        _K, kgens = self.kernel()
        rel = self.src.relations.stack(kgens)
        mod = FPModule(self.src.ring, self.src.ngens, rel)
        return mod, self.ambient

    def rank(self):
        """Rank of the induced map (field: dimension of the image)."""
        if isinstance(self.src.ring, IntegerRing):
            mod, _ = self.image()
            return mod.rank()
        return matrix_rank(self.matrix_on_generators())


# ---------------------------------------------------------------------------
# characteristic polynomial (Hessenberg recursion)
# ---------------------------------------------------------------------------


def charpoly(mat):
    """Monic characteristic polynomial, coefficients low -> high."""
    if mat.nrows != mat.ncols:
        raise ShapeError("charpoly needs a square matrix")
    field = _field_for(mat.ring)
    n = mat.nrows
    if n == 0:
        return [field.one]
    conv = (lambda x: Fraction(x)) if isinstance(field, RationalField) else (lambda x: x)
    a = [[conv(x) for x in row] for row in mat.rows]
    sub, mul, div, is_zero = field.sub, field.mul, field.div, field.is_zero
    add = field.add
    # reduce to upper Hessenberg by similarity
    for m in range(1, n - 1):
        piv = -1
        for i in range(m, n):
            if not is_zero(a[i][m - 1]):
                piv = i
                break
        if piv < 0:
            continue
        if piv != m:
            a[piv], a[m] = a[m], a[piv]
            for row in a:
                row[piv], row[m] = row[m], row[piv]
        t = a[m][m - 1]
        for i in range(m + 1, n):
            if not is_zero(a[i][m - 1]):
                u = div(a[i][m - 1], t)
                a[i] = [sub(x, mul(u, y)) for x, y in zip(a[i], a[m])]
                for row in a:
                    row[m] = add(row[m], mul(u, row[i]))
    # p_m(x) = (x - a[m][m]) p_{m-1}(x) - sum_i a[i][m] (prod subdiag) p_{i-1}(x)
    zero, one = field.zero, field.one
    polys = [[one]]
    for m in range(n):
        prev = polys[m]
        cur = [zero] + prev
        c = a[m][m]
        cur = [sub(x, mul(c, y)) for x, y in zip(cur, prev + [zero])]
        # correction terms use products of subdiagonal entries a[m][m-1]...a[i+1][i]
        t = one
        for i in range(m - 1, -1, -1):
            t = mul(t, a[i + 1][i])
            coef = mul(t, a[i][m])
            if not is_zero(coef):
                pi = polys[i]
                cur = [sub(x, mul(coef, y)) for x, y in zip(cur, pi + [zero] * (len(cur) - len(pi)))]
        polys.append(cur)
    return list(polys[n])
