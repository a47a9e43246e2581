"""Exact linear algebra over the rings in heckesym.rings.

A Matrix stores one row form: the {column: value} rows of its nonzero
entries (sparse_rows), which the product kernel, stacking, the
elimination core and the integer normal forms read. A sparse-born matrix
(Matrix.from_sparse: the operators of modsym.InducedModule, identities,
and the outputs of rref, left_kernel and the integer normal forms) is
built in that form; one built from dense rows scans them once, when
first needed, and keeps the result. The dense rows (.rows) are a view:
kept as given, or built on their first read. F_p entries are reduced to
residues whenever a matrix is built.

Echelon forms, ranks and kernels over a field run on one sparse
elimination core that keeps only the nonzero entries of each row. The
core has three arithmetic flavours, all on integers: over Q (and Z read
over Q) primitive integer rows with gcd normalization, which is exact and
faster than Fraction arithmetic; over an extension of Q by a root of an
integral monic polynomial, such as Q(2cos(pi/n)), the same on rows of
integer coefficient tuples whose pivots are made rational integers; over
F_p residues. Any other ring is refused. Ranks take forward elimination
alone.

FPModule, RowBasis and FPMap read a row space through its normal form,
one per ring kind, which _normal_form alone chooses from the ring. Over a
field it is _PivotForm: the reduced rows (free columns, pivot tails,
transforms) as numerators over one denominator, against which each entry
representation (ints for Q and F_p, integer tuples) has one reduce loop.
Over Z it is _LatticeForm: the Hermite rows, which give the invariant
factors, and the Smith transforms, built on the first coordinate read.

A subquotient span(K) / span(R) has one presentation, subquotient(K, R):
each row of R, written in the independent rows of K by RowBasis.express,
is one relation. Over Z, lattice_quotient replaces those relations by
their hermite_basis, the canonical basis of a row lattice; FPMap.kernel
over Z is one such quotient.

Products share one kernel, Matrix.act_on_row, the only product that
dispatches on the ring: a product pushes each row of the left factor
through it, and the elementwise operations call the ring's own.
Over Q and over every quotient extension it runs on integers: a matrix
keeps its integer form (numerators over one common denominator; over an
extension of degree k, its k coefficient slices side by side), built on
its first product or given by Matrix.from_integers, a vector has its
denominators cleared, and each output coefficient becomes a ring element
once; the rows stay ring elements. Integers leave through one exit per
ring, its from_numerators (over an extension, its base's, coefficientwise):
the products, the reduce loops and the rows of rref and left_kernel.

Everything is sequential and deterministic, and the normal forms are
canonical: leading-one reduced echelon form over fields, nonnegative
divisibility chain for the Smith form.

Row-vector convention throughout: module elements are rows, maps act by
right multiplication, so the matrix of "f then g" is M_f * M_g.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from fractions import Fraction
from operator import add as _add, mul as _mul, sub as _sub
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
    is_prime,
    multiplication_rows,
    xgcd,
)


class InternalInvariantError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


class NotInSpanError(ValueError):
    pass


class Matrix:
    """A matrix of ring elements, stored as the {column: value} rows of its
    nonzero entries (sparse_rows); the dense rows (.rows) are a view. Rows
    must not be mutated after construction, since the matrix keeps both
    forms and, over Q and the extensions, their integer form (integer_form)."""

    __slots__ = ("ring", "nrows", "ncols", "_rows", "_sparse", "_integer_form")

    def __init__(self, ring, rows, ncols=None):
        p = ring.p if isinstance(ring, PrimeField) else None
        rows = [list(r) if p is None else [x % p for x in r] for r in rows]
        if rows:
            ncols = len(rows[0]) if ncols is None else ncols
            for r in rows:
                if len(r) != ncols:
                    raise ShapeError("ragged rows")
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        self.ring = ring
        self._rows, self._sparse = rows, None
        self.nrows = len(rows)
        self.ncols = ncols
        self._integer_form = None

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_sparse(cls, ring, rows, ncols):
        """The sparse-born matrix of {column: value} rows of its nonzero
        entries, kept as they are (F_p values reduced, zeros dropped)."""
        if isinstance(ring, PrimeField):
            p = ring.p
            rows = [{j: x % p for j, x in r.items() if x % p} for r in rows]
        mat = cls.__new__(cls)
        mat.ring, mat.nrows, mat.ncols = ring, len(rows), ncols
        mat._rows, mat._sparse, mat._integer_form = None, rows, None
        return mat

    @classmethod
    def identity(cls, ring, n):
        return cls.from_sparse(ring, [{i: ring.one} for i in range(n)], n)

    @classmethod
    def from_integers(cls, rows, ring=QQ):
        """The matrix over Q, or over an extension of Z or Q, of nonempty
        rows of integers (integer coefficient tuples over an extension),
        with its integer form (denominator one) already in place."""
        if isinstance(ring, QuotientExtension):
            entries = [[tuple(ring.base.from_numerators(x)) for x in r] for r in rows]
            rows = _slices(rows, ring.degree)
        else:
            entries = [QQ.from_numerators(r) for r in rows]
        mat = cls(ring, entries)
        mat._integer_form = (Matrix(ZZ, rows), 1)
        return mat

    def integer_form(self):
        """(Z matrix of numerators, d) with self == numerators / d, d the
        least common denominator; built once and kept. Over Q the numerators
        have the shape of self. Over an extension of degree k they are its
        coefficient slices side by side: column j * ncols + c holds the
        coefficient of x^j in column c, so the matrix is k * ncols wide; over
        a Z base d is 1."""
        form = self._integer_form
        if form is None:
            ring, n, rows = self.ring, self.ncols, self.sparse_rows()
            if isinstance(ring, QuotientExtension):
                rows = [{i * n + c: y for c, x in r.items() for i, y in enumerate(x) if y} for r in rows]
            d = lcm(*{x.denominator for r in rows for x in r.values()})
            form = Matrix.from_sparse(ZZ, [{c: x.numerator * (d // x.denominator) for c, x in r.items()}
                                           for r in rows], n * getattr(ring, "degree", 1))
            form = self._integer_form = (form, d)
        return form

    # -- the two forms -----------------------------------------------------
    @property
    def rows(self):
        """The dense rows (read only)."""
        if self._rows is None:
            self._rows = self.rows_at(range(self.nrows))
        return self._rows

    def rows_at(self, indices):
        """The dense rows at the given indices (read only), built alone."""
        if self._rows is not None:
            return [self._rows[r] for r in indices]
        return [_dense(self.ring, self._sparse[r].items(), self.ncols) for r in indices]

    def sparse_rows(self):
        """The nonzero entries of each row as {column: value} dicts (read
        only), scanned from the dense rows on the first call and kept."""
        if self._sparse is None:
            if isinstance(self.ring, QuotientExtension):
                self._sparse = [{j: x for j, x in enumerate(r) if any(x)} for r in self._rows]
            else:
                self._sparse = [{j: x for j, x in enumerate(r) if x} for r in self._rows]
        return self._sparse

    # -- basics ----------------------------------------------------------
    def stack(self, other):
        if other.ncols != self.ncols:
            raise ShapeError("stack: column counts differ")
        return Matrix.from_sparse(self.ring, self.sparse_rows() + other.sparse_rows(), self.ncols)

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise ShapeError("hstack: row counts differ")
        n = self.ncols
        return Matrix.from_sparse(
            self.ring, [{**a, **{j + n: x for j, x in b.items()}}
                        for a, b in zip(self.sparse_rows(), other.sparse_rows())], n + other.ncols)

    def is_zero(self):
        return not any(self.sparse_rows())

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

    def act_on_row(self, vec):
        """vec * self for a plain list vec: the one vector-matrix product
        loop, and the hot loop of the Hecke row builder. It skips the zero
        entries of vec and runs on native ints and residues over the sparse
        rows; over Q and over the extensions it runs on the integer form.

        Over an extension of degree k, the integer slice i of vec (the
        coefficients of x^i, denominators cleared) goes through the integer
        form, whose slice j lands in the accumulator of x^(i+j); the
        accumulators are reduced by the integral minimal polynomial once per
        output entry, then turned into ring elements."""
        if len(vec) != self.nrows:
            raise ShapeError("act_on_row: length mismatch")
        ring = self.ring
        if isinstance(ring, RationalField):
            nums, d = self.integer_form()
            ivec, dv = _numerators(vec)
            return ring.from_numerators(nums.act_on_row(ivec), d * dv)
        if isinstance(ring, QuotientExtension):
            nums, d = self.integer_form()
            k, n = ring.degree, self.ncols
            ivec, dv = _numerators([x for v in vec for x in v])
            acc = [None] * (2 * k - 1)
            for i in range(k):
                s = ivec[i::k]
                if any(s):
                    out = nums.act_on_row(s)
                    for j in range(k):
                        part, cur = out[j * n:(j + 1) * n], acc[i + j]
                        acc[i + j] = part if cur is None else [a + b for a, b in zip(cur, part)]
            zero = [0] * n
            acc = [zero if a is None else a for a in acc]
            m = ring.integer_minpoly
            for top in range(2 * k - 2, k - 1, -1):
                c = acc[top]
                for j in range(k):
                    if m[j]:
                        acc[top - k + j] = [a - m[j] * x for a, x in zip(acc[top - k + j], c)]
            return list(zip(*(ring.base.from_numerators(a, d * dv) for a in acc[:k])))
        out = [0] * self.ncols
        for v, row in zip(vec, self.sparse_rows()):
            if v:
                for j, a in row.items():
                    out[j] += v * a
        return ring.from_numerators(out)

    def _same_shape(self, other):
        if other.nrows != self.nrows or other.ncols != self.ncols:
            raise ShapeError("shape mismatch")


def _slices(rows, k):
    """Rows of degree-k extension elements as their coefficient slices side
    by side: the coefficients of x^0 of the row, then those of x^1, ..."""
    return [[x[j] for j in range(k) for x in r] for r in rows]


def _numerators(vec):
    """(integer numerators, d) with vec == numerators / d, d the least
    common denominator of the rational (int or Fraction) entries."""
    d = lcm(*{x.denominator for x in vec})
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // x.denominator) for x in vec], d


def _over_one_denominator(ar, rows, pivots, scales=None):
    """(numerator rows, e): {index: x} rows of an integer flavour, entry i
    of row k standing for x * scales[i] / pivots[k] (scales None: one), as
    numerators over e, the least common denominator of those values."""
    parts = []
    for r, p in zip(rows, pivots):
        if scales is not None:
            L = lcm(*(scales[i].denominator for i in r))
            r, p = {i: ar.scaled(x, scales[i].numerator * L // scales[i].denominator, 1)
                    for i, x in r.items()}, p * L
        parts.append((r, p, p // gcd(p, ar.content(r.values()))))
    e = lcm(*(den for _r, _p, den in parts))
    return [r if p == e else {i: ar.scaled(x, e, p) for i, x in r.items()} for r, p, _ in parts], e


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
# normalization and the exit to ring elements, and each representation of
# entries (ints, integer tuples) has one reduce loop that runs a vector
# against a _PivotForm.


class _Ints:
    """The flavours on int entries, F_p and Q: one reduce loop on ints, run
    on the vector's numerators as the flavour's vector method gives them."""

    def __init__(self, ring):
        self.ring, self.one = ring, 1

    def elements(self, nums, d):
        return self.ring.from_numerators(nums, d)

    def reduce(self, form, vec):
        """(coordinates, coefficients) of vec against a _PivotForm: its free
        coordinates modulo the pivot rows, zero exactly on their span, and
        the sum of vec[c] times the transform row at each pivot column c.
        They run on numerators, vec == iv / dv: the coordinates kept times
        dv * den, the coefficients times dv * tden."""
        iv, dv = self.vector(vec)
        d = form.den
        coords = [iv[f] * d for f in form.free]
        coeffs = [0] * form.nrows
        for c, tail, trow in form.pivots:
            v = iv[c]
            if v:
                for i, t in tail.items():
                    coords[i] -= v * t
                for i, t in trow.items():
                    coeffs[i] += v * t
        return self.elements(coords, dv * d), self.elements(coeffs, dv * form.tden)


class _PrimeField(_Ints):
    """F_p on residues 0..p-1."""

    # residues are their own numerators (and pivots and scales are one);
    # load copies, since elimination consumes its rows in place
    vector = staticmethod(lambda vec: (vec, 1))
    load = staticmethod(lambda row: (dict(row), 1))
    numerators = staticmethod(lambda rows, pivots, scales=None: (rows, 1))

    def __init__(self, ring):
        super().__init__(ring)
        self.p = ring.p

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


class _Rationals(_Ints):
    """Q, and Z read over Q: primitive integer rows with positive pivots.

    Loading clears denominators and divides out the content; its scale
    carries transforms back to the original rows."""

    scaled = staticmethod(lambda x, a, b: x * a // b)
    content = staticmethod(lambda values: gcd(*values))
    numerators = _over_one_denominator
    vector = staticmethod(_numerators)

    def __init__(self):
        super().__init__(QQ)

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


class _IntegralExtension:
    """Q[x]/(m) for an integral m, such as Q(2cos(pi/n)): rows of primitive
    integer coefficient tuples, held up to a rational scale like the rows
    of _Rationals, with every pivot a positive rational integer.

    A pivot p becomes one when its row is multiplied by the adjugate
    N(p)/p, which has integer coefficients because m is integral (it is
    row 0 of the adjugate of the integer matrix of p, and p times it is the
    norm N(p)); elimination against a pivot P cross-multiplies by P/g and
    v/g, g = gcd(P, v), and both then remove their integer content."""

    def __init__(self, ring):
        self.ring, self.degree = ring, ring.degree
        self.one = (1,) + (0,) * (ring.degree - 1)
        self.minpoly = ring.integer_minpoly

    def load(self, row):
        nums, d = self.vector(row.values())
        g = self.content(nums)
        if g > 1:
            nums = [self.scaled(v, 1, g) for v in nums]
        return dict(zip(row, nums)), Fraction(d, g or 1)

    def times(self, b):
        """The function y -> b * y on integer coefficient tuples."""
        cols = list(zip(*multiplication_rows(ZZ, b, self.minpoly)))
        return lambda y: tuple([sum(map(_mul, y, col)) for col in cols])

    def eliminate(self, row, t, prow, pt, c):
        p, v = prow[c][0], row[c]
        g = gcd(p, *v)
        a = p // g
        bx = self.times(tuple(x // g for x in v))
        pairs = ((row, prow),) if t is None else ((row, prow), (t, pt))
        for dst, src in pairs:
            if a != 1:
                for j, x in dst.items():
                    dst[j] = tuple([a * u for u in x])
            for j, x in src.items():
                w = bx(x)
                cur = dst.get(j)
                y = _neg(w) if cur is None else tuple([u - z for u, z in zip(cur, w)])
                if any(y):
                    dst[j] = y
                else:
                    dst.pop(j, None)
        _remove_content(row, t)

    def make_pivot(self, row, t, c):
        p = row[c]
        if any(p[1:]):
            # the adjugate N(p)/p: row 0 of the adjugate of the matrix of p
            rows = multiplication_rows(ZZ, p, self.minpoly)
            adj = tuple([(-1) ** j * _det([r[1:] for i, r in enumerate(rows) if i != j])
                         for j in range(len(rows))])
            if self.times(adj)(p)[0] < 0:  # p * adj = N(p); keep the pivot positive
                adj = _neg(adj)
            q = self.times(adj)
        elif p[0] < 0:
            q = _neg
        else:
            return
        for dst in (row,) if t is None else (row, t):
            for j, x in dst.items():
                dst[j] = q(x)
        _remove_content(row, t)

    scaled = staticmethod(lambda x, a, b: tuple([u * a // b for u in x]))
    content = staticmethod(lambda values: gcd(*(u for x in values for u in x)))

    def numerators(self, rows, pivots, scales=None):
        return _over_one_denominator(self, rows, [p[0] for p in pivots], scales)

    def vector(self, vec):
        """_numerators of a list of extension elements, as integer tuples."""
        nums, d = _numerators([x for v in vec for x in v])
        k = self.degree
        return list(zip(*(nums[i::k] for i in range(k)))), d

    def elements(self, nums, d):
        out = self.ring.base.from_numerators
        return [tuple(out(x, d)) for x in nums]

    def reduce(self, form, vec):
        """_Ints.reduce on integer coefficient tuples."""
        k = self.degree
        iv, dv = self.vector(vec)
        d = form.den
        coords = [tuple([x * d for x in iv[f]]) for f in form.free]
        coeffs = [(0,) * k] * form.nrows
        for c, tail, trow in form.pivots:
            v = iv[c]
            if any(v):
                times = self.times(v)
                for i, t in tail.items():
                    coords[i] = tuple(map(_sub, coords[i], times(t)))
                for i, t in trow.items():
                    coeffs[i] = tuple(map(_add, coeffs[i], times(t)))
        return self.elements(coords, dv * d), self.elements(coeffs, dv * form.tden)


def _neg(x):
    return tuple([-u for u in x])


def _remove_content(row, t):
    """Divide an integer tuple row (and its transform) by their content."""
    g = 0
    for dst in (row,) if t is None else (row, t):
        for x in dst.values():
            g = gcd(g, *x)
            if g == 1:
                return
    if g > 1:
        for dst in (row,) if t is None else (row, t):
            for j, x in dst.items():
                dst[j] = tuple([u // g for u in x])


def _det(rows):
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            s = next((i for i in range(k + 1, n) if a[i][k]), None)
            if s is None:
                return 0
            a[k], a[s] = a[s], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _arithmetic(ring):
    """The elimination flavour of a ring; Z is read over Q."""
    if isinstance(ring, (IntegerRing, RationalField)):
        return _Rationals()
    if isinstance(ring, PrimeField):
        return _PrimeField(ring)
    if isinstance(ring, QuotientExtension) and ring.is_field:
        return _IntegralExtension(ring)
    raise UnsupportedRingError("field elimination over %s" % ring.kind)


def _normal_form(ring):
    """The normal form of row spaces over a ring, a function of (matrix,
    with_transform=False): _LatticeForm over Z, _PivotForm over a field,
    else refused. Only here do FPModule, RowBasis and FPMap learn the ring
    kind. Both forms give pivots, invariants, reduce, generator rows, free
    generators, express, and a map's generator images, kernel and rank."""
    if isinstance(ring, IntegerRing):
        return _LatticeForm
    if not ring.is_field:
        raise UnsupportedRingError("presentations require a field or the integers")
    ar = _arithmetic(ring)
    return lambda mat, with_transform=False: _PivotForm(ar, mat, with_transform=with_transform)


def _load(ar, mat):
    """Loaded copies of the sparse rows of a matrix, and their scales."""
    loaded = [ar.load(row) for row in mat.sparse_rows()]
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


def _dense(ring, pairs, size):
    out = [ring.zero] * size
    for j, x in pairs:
        out[j] = x
    return out


def _element_rows(ar, pairs, scales=None):
    """{column: field element} rows of (reduced or transform row, pivot
    entry) pairs, each row over its own denominator."""
    out = []
    for row, p in pairs:
        (nums,), e = ar.numerators([row], [p], scales)
        out.append(dict(zip(nums, ar.elements(list(nums.values()), e))))
    return out


def rref(mat, with_transform=False):
    """Reduced row echelon form over the fraction field.

    Returns (R, pivots) or (R, pivots, T) with T * mat == R exactly.
    Pivot entries are 1; pivot columns are cleared elsewhere. Rows of T
    past the rank span the left kernel.
    """
    ar = _arithmetic(mat.ring)
    n, m = mat.nrows, mat.ncols
    rows, scales = _load(ar, mat)
    ts = [{i: ar.one} for i in range(n)] if with_transform else None
    piv, kernel = _reduced(ar, rows, ts)
    rrows = _element_rows(ar, [(row, row[c]) for c, row, _t in piv])
    R = Matrix.from_sparse(ar.ring, rrows + [{} for _ in range(n - len(piv))], m)
    pivcols = tuple(c for c, _r, _t in piv)
    if not with_transform:
        return R, pivcols
    trows = _element_rows(ar, [(t, row[c]) for c, row, t in piv] + [(t, ar.one) for t in kernel],
                          scales)
    return R, pivcols, Matrix.from_sparse(ar.ring, trows, n)


def matrix_rank(mat):
    """Rank over the fraction field, by forward elimination alone."""
    ar = _arithmetic(mat.ring)
    return len(_echelon(ar, _load(ar, mat)[0])[0])


def left_kernel(mat):
    """Basis of {x : x * mat = 0}.

    Over a field: the reduced echelon basis (leading ones). Over Z: basis
    of the full (saturated) integer kernel lattice, Hermite-normalized.
    """
    if isinstance(mat.ring, IntegerRing):
        H, U = hermite_normal_form(mat, with_transform=True)
        ker = [u for h, u in zip(H.sparse_rows(), U.sparse_rows()) if not h]
        return hermite_basis(Matrix.from_sparse(ZZ, ker, mat.nrows))
    ar = _arithmetic(mat.ring)
    n = mat.nrows
    rows, scales = _load(ar, mat)
    _piv, kernel = _echelon(ar, rows, [{i: ar.one} for i in range(n)])
    # the kernel rows are independent; re-reduce them to the canonical basis
    krows, _e = ar.numerators(kernel, [ar.one] * len(kernel), scales)
    piv, _ = _reduced(ar, [ar.load(r)[0] for r in krows])
    return Matrix.from_sparse(ar.ring, _element_rows(ar, [(row, row[c]) for c, row, _t in piv]), n)


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------


def _require_zz(mat, what):
    if not isinstance(mat.ring, IntegerRing):
        raise UnsupportedRingError("%s requires the integers, got %s" % (what, mat.ring.kind))


def _int_rows(mat):
    """Copies of the sparse rows of an integer matrix, which the normal
    forms consume in place."""
    return [dict(r) for r in mat.sparse_rows()]


def _leading(mat, n):
    """The nonzero rows of an integer matrix cut to its first n columns."""
    rows = ({j: x for j, x in r.items() if j < n} for r in mat.sparse_rows())
    return Matrix.from_sparse(ZZ, [r for r in rows if r], n)


def _addmul(dst, q, src):
    """dst += q * src on integer dict rows, in place; q is nonzero."""
    for k, w in src.items():
        s = dst.get(k, 0) + q * w
        if s:
            dst[k] = s
        else:
            del dst[k]


def _combine(x, u, y, v):
    """x * u + y * v as a new integer dict row."""
    out = {k: x * w for k, w in u.items()} if x else {}
    if y:
        _addmul(out, y, v)
    return out


def hermite_normal_form(mat, with_transform=False):
    """Row Hermite normal form H with positive pivots, entries above
    reduced into [0, pivot). Optionally also U (unimodular) with U*A = H.

    Column by column, xgcd combinations clear the column below the first
    row that has it, then the pivot reduces the entries above it. An index
    from each column to the rows holding it keeps both steps to those rows,
    so an input already in Hermite form costs time linear in its entries."""
    _require_zz(mat, "hermite_normal_form")
    n, m = mat.nrows, mat.ncols
    rows = _int_rows(mat)
    tabs = (rows, [{i: 1} for i in range(n)]) if with_transform else (rows,)
    # held[c]: every row that holds column c, and maybe rows that no longer
    # do; a row is added whenever it gains a column
    held = defaultdict(set)
    for r, row in enumerate(rows):
        for c in row:
            held[c].add(r)
    rank = 0
    for c in range(m):
        nz = sorted(r for r in held.get(c, ()) if r >= rank and c in rows[r])
        if not nz:
            continue
        r0 = nz[0]
        for r in nz[1:]:
            a, b = rows[r0][c], rows[r][c]
            g, x, y = xgcd(a, b)
            aa, bb = a // g, b // g
            before = rows[r0], rows[r]
            for tab in tabs:
                u, v = tab[r0], tab[r]
                if x != 1 or y:  # else the pivot divides b and row r0 stays
                    tab[r0] = _combine(x, u, y, v)
                tab[r] = _combine(bb, u, -aa, v)
            for r1, row in ((r0, before[1]), (r, before[0])):
                for k in row:
                    held[k].add(r1)
        if r0 != rank:
            for tab in tabs:
                tab[rank], tab[r0] = tab[r0], tab[rank]
            for r1 in (rank, r0):
                for k in rows[r1]:
                    held[k].add(r1)
        if rows[rank][c] < 0:
            for tab in tabs:
                row = tab[rank]
                for k in row:
                    row[k] = -row[k]
        p = rows[rank][c]
        for r in [r for r in held[c] if r < rank]:
            q = rows[r].get(c, 0) // p
            if q:
                for tab in tabs:
                    _addmul(tab[r], -q, tab[rank])
                for k in rows[rank]:
                    held[k].add(r)
        rank += 1
    H = Matrix.from_sparse(ZZ, rows, m)
    if with_transform:
        return H, Matrix.from_sparse(ZZ, tabs[1], n)
    return H


def hermite_basis(mat):
    """The nonzero rows of the Hermite form of an integer matrix: the
    canonical basis of its row lattice."""
    return _leading(hermite_normal_form(mat), mat.ncols)


def _snf_core(a, m, transforms=True):
    """Smith form of the integer dict rows a (m columns), consumed in
    place: (D, U, W, Winv) as dict rows, with D = U*A*W diagonal, a
    divisibility chain with d_i >= 0. Without transforms, U, W and Winv
    come back as empty rows; their entries can grow far beyond D's.

    Step t moves an entry of least magnitude of the trailing block to
    (t, t), clears row and column t by division with remainder, swapping a
    remainder in as the new pivot until both are clear, and adds a row
    that the pivot does not divide into row t. The rows above t then hold
    only their diagonal entry, so column operations need only visit the
    rows from t on."""
    n = len(a)
    U, Wcols, Winv = ([{i: 1} if transforms else {} for i in range(k)] for k in (n, m, m))

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def addmul_row(i, j, q):  # row_i += q * row_j
        _addmul(a[i], q, a[j])
        _addmul(U[i], q, U[j])

    def swap_cols(i, j):
        for r in range(t, n):
            row = a[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y
        Wcols[i], Wcols[j] = Wcols[j], Wcols[i]
        Winv[i], Winv[j] = Winv[j], Winv[i]

    def addmul_col(i, j, q):  # col_i += q * col_j ; Winv row_j -= q * row_i
        for r in range(t, n):
            row = a[r]
            y = row.get(j)
            if y:
                s = row.get(i, 0) + q * y
                if s:
                    row[i] = s
                else:
                    del row[i]
        _addmul(Wcols[i], q, Wcols[j])
        _addmul(Winv[j], -q, Winv[i])

    t = 0
    while t < min(n, m):
        # the nonzero entry of least magnitude in the trailing block, the
        # first in row-major order among equals
        piv = None
        for i in range(t, n):
            if a[i]:
                av, j = min((abs(v), j) for j, v in a[i].items())
                if piv is None or av < piv[0]:
                    piv = (av, i, j)
                    if av == 1:
                        break
        if piv is None:
            break
        if piv[1] != t:
            swap_rows(t, piv[1])
        if piv[2] != t:
            swap_cols(t, piv[2])
        dirty = True
        while dirty:
            dirty = False
            # clear column t
            for i in range(t + 1, n):
                v = a[i].get(t)
                if v:
                    q = v // a[t][t]
                    if q:
                        addmul_row(i, t, -q)
                    if t in a[i]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t; each step changes only columns t and j
            for j in sorted(k for k in a[t] if k > t):
                q = a[t][j] // a[t][t]
                if q:
                    addmul_col(j, t, -q)
                if j in a[t]:
                    swap_cols(t, j)
                    dirty = True
        if a[t][t] < 0:
            for row in (a[t], U[t]):
                for k in row:
                    row[k] = -row[k]
        # enforce the divisibility chain
        d = a[t][t]
        culprit = None
        if d > 1:
            culprit = next((i for i in range(t + 1, n) if any(v % d for v in a[i].values())), None)
        if culprit is not None:
            addmul_row(t, culprit, 1)
            continue
        t += 1
    W = [{} for _ in range(m)]
    for i, col in enumerate(Wcols):
        for r, x in col.items():
            W[r][i] = x
    return a, U, W, Winv


def smith_normal_form(mat):
    """Return dense (D, U, W) with U*A*W = D, verified by multiplication.

    Diagonal entries are nonnegative and form a divisibility chain, which
    is checked too. The input is Hermite-reduced first: the HNF's modular
    reduction keeps the entries small, where diagonalizing raw relation
    matrices directly can blow up the intermediate integers by many orders
    of magnitude. Both forms work on sparse rows inside.
    """
    _require_zz(mat, "smith_normal_form")
    H, U1 = hermite_normal_form(mat, with_transform=True)
    m = mat.ncols
    a, U2, W, _Winv = _snf_core(_int_rows(H), m)
    D, W = Matrix.from_sparse(ZZ, a, m), Matrix.from_sparse(ZZ, W, m)
    U = Matrix.from_sparse(ZZ, U2, mat.nrows).mul(U1)
    if U.mul(mat).mul(W) != D:
        raise InternalInvariantError("Smith form transform check failed")
    diag = [D.rows[i][i] for i in range(min(D.nrows, D.ncols))]
    for x, y in zip(diag, diag[1:]):
        if y and (x == 0 or y % x):
            raise InternalInvariantError("Smith diagonal not a divisibility chain")
    return D, U, W


def _hermite_invariants(rows, m):
    """The Smith diagonal of a Hermite basis (dict rows, m columns). A unit
    pivot is the only entry of its column, so a column operation clears
    the rest of its row and the row splits off as an invariant factor 1;
    only the other rows are diagonalized, on the columns they hold, and
    without transforms."""
    rest = [r for r in rows if r[min(r)] != 1]
    cols = {c: i for i, c in enumerate(sorted({j for r in rest for j in r}))}
    a = _snf_core([{cols[j]: x for j, x in r.items()} for r in rest], len(cols), False)[0]
    diag = [1] * (len(rows) - len(rest)) + [a[i].get(i, 0) for i in range(len(a))]
    return diag + [0] * (m - len(diag))


# ---------------------------------------------------------------------------
# normal forms of row spaces
# ---------------------------------------------------------------------------


class _PivotForm:
    """The reduced echelon basis of a row space over a field: the free
    (non-pivot) columns, which are the coordinates, and per pivot column c
    the tail of its row on them and its transform row over the nrows input
    rows (empty unless kept); the integer flavours keep tails and
    transforms as numerators over den and tden."""

    __slots__ = ("ar", "free", "pivots", "den", "tden", "nrows", "ncols")

    def __init__(self, ar, mat, with_transform=False):
        self.ar, self.nrows, self.ncols = ar, mat.nrows if with_transform else 0, mat.ncols
        rows, scales = _load(ar, mat)
        ts = [{i: ar.one} for i in range(self.nrows)] if with_transform else None
        piv, _ = _reduced(ar, rows, ts)
        pivcols = {c for c, _r, _t in piv}
        self.free = [c for c in range(mat.ncols) if c not in pivcols]
        where = {f: i for i, f in enumerate(self.free)}
        ps = [row[c] for c, row, _t in piv]
        tails, self.den = ar.numerators(
            [{where[j]: x for j, x in row.items() if j != c} for c, row, _t in piv], ps)
        trows, self.tden = (ar.numerators([t for _c, _r, t in piv], ps, scales) if with_transform
                            else ([{}] * len(piv), 1))
        self.pivots = [(c, tail, t) for (c, _r, _t), tail, t in zip(piv, tails, trows)]

    def invariants(self):
        return ()

    def reduce(self, vec):
        return tuple(self.ar.reduce(self, vec)[0])

    def generator_rows(self):
        one = self.ar.ring.one
        return Matrix.from_sparse(self.ar.ring, [{f: one} for f in self.free], self.ncols)

    def free_generators(self):
        return list(self.free)

    def express(self, vec):
        coords, coeffs = self.ar.reduce(self, vec)
        if coords.count(self.ar.ring.zero) != len(coords):
            raise NotInSpanError("not in the row space")
        return coeffs

    def generator_images(self, fmap):
        """The generators are unit rows, so their images are plain rows."""
        return fmap.rows_at(self.free)

    def kernel_generators(self, fmap):
        K = left_kernel(fmap.matrix_on_generators()).sparse_rows()
        return Matrix.from_sparse(self.ar.ring, [{self.free[i]: x for i, x in r.items()} for r in K], self.ncols)

    def kernel_module(self, gens, relations):
        """The kernel is free on its generators, which avoid the pivots."""
        return FPModule(self.ar.ring, gens.nrows)

    def map_rank(self, fmap):
        return matrix_rank(fmap.matrix_on_generators())


class _LatticeForm:
    """The Hermite basis of a row lattice over Z, built on first need (a
    map's kernel reads none of its source's): (pivot column, Hermite row,
    transform row) per nonzero row, transform rows only with_transform. The
    invariant factors come from the Hermite rows alone; coordinates are
    Smith coordinates, from their Smith form, built on the first coordinate
    read, whose diagonal must agree with the factors."""

    def __init__(self, mat, with_transform=False):
        self.mat, self.with_transform, self._diag = mat, with_transform, None

    @cached_property
    def pivots(self):
        if self.with_transform:
            H, U = hermite_normal_form(self.mat, with_transform=True)
            return [(min(h), h, u) for h, u in zip(H.sparse_rows(), U.sparse_rows()) if h]
        return [(min(h), h, None) for h in hermite_basis(self.mat).sparse_rows()]

    @cached_property
    def _smith(self):
        """(W without the columns of unit invariant factors, where every
        coordinate is zero; Winv) of the Smith form of the Hermite rows."""
        n = self.mat.ncols
        a, _U, W, Winv = _snf_core([dict(h) for _c, h, _u in self.pivots], n)
        diag = [a[i].get(i, 0) for i in range(min(len(a), n))]
        diag += [0] * (n - len(diag))
        if self._diag is not None and diag != self._diag:
            raise InternalInvariantError(
                "Smith diagonal check: the invariant factors read from the Hermite "
                "form %s differ from the full Smith form's %s" % (self._diag, diag))
        self._diag = diag
        return (Matrix.from_sparse(ZZ, [{i: x for i, x in r.items() if diag[i] != 1} for r in W], n),
                Matrix.from_sparse(ZZ, Winv, n))

    def free_generators(self):
        raise UnsupportedRingError("free generators and dim are field notions; use rank/invariants over Z")

    def invariants(self):
        if self._diag is None:
            self._diag = _hermite_invariants([h for _c, h, _u in self.pivots], self.mat.ncols)
        return tuple(self._diag)

    def reduce(self, vec):
        W = self._smith[0]
        return tuple(v % d if d else v for v, d in zip(W.act_on_row(vec), self._diag))

    def generator_rows(self):
        return self._smith[1]

    def express(self, vec):
        """The triangular solve on dict rows: a Hermite row clears its pivot
        column and changes only the columns right of it."""
        v = {j: x for j, x in enumerate(vec) if x}
        coeffs = {}
        for c, h, u in self.pivots:
            x = v.get(c)
            if x:
                q, rem = divmod(x, h[c])
                if rem:
                    raise NotInSpanError("not in the lattice")
                _addmul(v, -q, h)
                _addmul(coeffs, q, u)
        if v:
            raise NotInSpanError("not in the lattice")
        return _dense(ZZ, coeffs.items(), self.mat.nrows)

    def generator_images(self, fmap):
        return self.generator_rows().mul(fmap.ambient).rows

    def kernel_generators(self, fmap):
        """The kernel's Hermite rows cut to the source columns: the Hermite
        basis of the preimage lattice, which holds the source relations."""
        return _leading(left_kernel(fmap.ambient.stack(fmap.dst.relations)), self.mat.ncols)

    kernel_module = staticmethod(lambda gens, relations: lattice_quotient(gens, relations))

    def map_rank(self, fmap):
        return fmap.image()[0].rank()


class RowBasis:
    """Row space of a matrix, prepared for membership and expression by its
    normal form with transforms. Over a field the coefficients of an
    expression are unique when the rows are independent, which is how the
    library uses it; for dependent rows they are one valid choice."""

    def __init__(self, mat):
        self.mat = mat
        self.ring = mat.ring
        self._form = _normal_form(mat.ring)(mat, with_transform=True)
        self.rank = len(self._form.pivots)

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
        return self._form.express(vec)


# ---------------------------------------------------------------------------
# finitely presented modules and maps
# ---------------------------------------------------------------------------


class FPModule:
    """Quotient of a free module R^ngens by the row span of `relations`,
    over a field or Z, read through the normal form of the relations that
    _normal_form chooses from the ring, built on first need: the reduced
    echelon basis over a field (_PivotForm), the Hermite basis with Smith
    coordinates over Z (_LatticeForm)."""

    def __init__(self, ring, ngens, relations=None):
        if ngens < 0:
            raise ShapeError("negative generator count")
        if relations is None:
            relations = Matrix(ring, [], ngens)
        if relations.ncols != ngens:
            raise ShapeError("relations have %d columns, expected %d" % (relations.ncols, ngens))
        if relations.ring != ring:
            raise UnsupportedRingError("relations over %s, module over %s" % (relations.ring.kind, ring.kind))
        self.ring = ring
        self.ngens = ngens
        self.relations = relations
        self._make_form = _normal_form(ring)

    @cached_property
    def _form(self):
        return self._make_form(self.relations)

    def rank(self):
        """Generators minus the rank of the relations, their pivot count."""
        return self.ngens - len(self._form.pivots)

    def dim(self):
        return len(self.free_generators())

    def invariants(self):
        """Diagonal of the Smith form of the relations (Z only)."""
        return self._form.invariants()

    def torsion(self):
        return tuple(d for d in self.invariants() if d > 1)

    def reduce(self, vec):
        """Canonical coordinates of an ambient row vector in the quotient:
        over a field on the free (non-pivot) generator positions, over Z the
        Smith coordinates, each reduced mod its invariant factor."""
        if len(vec) != self.ngens:
            raise ShapeError("reduce: length mismatch")
        return self._form.reduce(vec)

    def is_zero_element(self, vec):
        rz = self.ring.is_zero
        return all(rz(x) for x in self.reduce(vec))

    def coords_to_ambient(self, coords):
        """A representative ambient vector for canonical coordinates."""
        return self.generator_ambient_rows().act_on_row(list(coords))

    def free_generators(self):
        """Field only: the ambient coordinates that are not pivots of the
        relations; their unit vectors are the normalized generators."""
        return self._form.free_generators()

    def generator_ambient_rows(self):
        """Ambient representatives of the normalized generators."""
        return self._form.generator_rows()

    def ncoords(self):
        return self.generator_ambient_rows().nrows

    def __repr__(self):
        return "FPModule(%s, rank %d, torsion %s)" % (self.ring.kind, self.rank(), list(self.torsion()))


def subquotient(sub, rows):
    """span(sub) / span(rows), presented on the rows of sub, which must be
    independent: each row of the matrix `rows`, written in them, is one
    relation. A row outside span(sub) raises NotInSpanError."""
    basis = RowBasis(sub)
    return FPModule(sub.ring, sub.nrows, Matrix(sub.ring, [basis.express(r) for r in rows.rows], sub.nrows))


def lattice_quotient(gens, rows):
    """The subquotient of two integer lattices with its relations replaced
    by their Hermite basis, so equal lattices give equal relation rows."""
    return FPModule(ZZ, gens.nrows, hermite_basis(subquotient(gens, rows).relations))


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
        return self.ambient.rows_at(indices)

    def matrix_on_generators(self):
        """Matrix in canonical coordinates (rows: src generators), built on
        the first call and kept."""
        mat = getattr(self, "_on_generators", None)
        if mat is None:
            rows = [list(self.dst.reduce(v)) for v in self.src._form.generator_images(self)]
            mat = self._on_generators = Matrix(self.dst.ring, rows, self.dst.ncoords())
        return mat

    def kernel(self):
        """(FPModule K, ambient rows of its generators inside src)."""
        gens = self.src._form.kernel_generators(self)
        return self.src._form.kernel_module(gens, self.src.relations), gens

    def image(self):
        """(FPModule I, ambient rows spanning the image inside dst)."""
        rel = self.src.relations.stack(self.src._form.kernel_generators(self))
        return FPModule(self.src.ring, self.src.ngens, rel), self.ambient

    def rank(self):
        """Rank of the induced map (field: dimension of the image)."""
        return self.src._form.map_rank(self)


# ---------------------------------------------------------------------------
# characteristic polynomial (Hessenberg recursion)
# ---------------------------------------------------------------------------


def charpoly(mat):
    """Monic characteristic polynomial, coefficients low -> high, over Q,
    Z (read over Q) or F_p."""
    ar = _arithmetic(mat.ring)
    if isinstance(ar, _IntegralExtension):
        raise UnsupportedRingError("charpoly runs over Q, Z or F_p, not %s" % mat.ring.kind)
    field = ar.ring
    if mat.nrows != mat.ncols:
        raise ShapeError("charpoly needs a square matrix")
    n = mat.nrows
    if n == 0:
        return [field.one]
    conv = Fraction if field is QQ else (lambda x: x)
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


# the prime fields F_q of charpoly_from_residues, largest q < 2^62 first,
# found when first needed and kept
_RESIDUE_FIELDS = []


def _residue_field(i):
    while len(_RESIDUE_FIELDS) <= i:
        q = _RESIDUE_FIELDS[-1].p - 2 if _RESIDUE_FIELDS else (1 << 62) - 1
        while not is_prime(q):
            q -= 2
        _RESIDUE_FIELDS.append(PrimeField(q))
    return _RESIDUE_FIELDS[i]


def charpoly_from_residues(mat, bound):
    """Monic characteristic polynomial, coefficients low -> high, of a
    square matrix over Q whose characteristic polynomial has integer
    coefficients of absolute value at most `bound`.

    The integer form is reduced modulo 62-bit primes q that do not divide
    its denominator, charpoly runs over each F_q, and the residues are
    combined by CRT until the modulus exceeds 2 * bound, then lifted to the
    symmetric range. The answer is right only when the bound holds, so
    callers check it."""
    nums, d = mat.integer_form()
    coeffs, modulus, i = [0] * (mat.nrows + 1), 1, 0
    while modulus <= 2 * bound:
        field = _residue_field(i)
        i += 1
        q = field.p
        if d % q == 0:
            continue
        s = pow(d, -1, q)
        residues = charpoly(Matrix(field, [[x * s for x in row] for row in nums.rows]))
        t = pow(modulus, -1, q)
        coeffs = [c + modulus * ((r - c) * t % q) for c, r in zip(coeffs, residues)]
        modulus *= q
    half = modulus // 2
    return QQ.from_numerators([c - modulus if c > half else c for c in coeffs])
