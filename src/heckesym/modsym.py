"""Modular symbol spaces for finite-index subgroups of Hecke triangle groups.

A subgroup of index mu, given either as a congruence coset table (with exact
integer lifts) or as a permutation pair, induces a module of rank
mu * (k - 1) over the coefficient ring: one block per right coset, one
coordinate per basis monomial of the weight action. The two group generators
act on the right through block-permutation matrices built from Schreier
cocycles. Modular symbols are the quotient by the sigma- and tau-norm
relations; the boundary space is the quotient by the translation relations,
and the boundary map sends a symbol to the difference of its endpoints.
Cuspidal and Eisenstein parts are its kernel and image.

The module splits along the coset orbits of each generator g of order o
(Shapiro's lemma; Brown, Cohomology of Groups, III.5-6): on an orbit
c_0..c_(l-1) from its least coset, e_(c_0, v) g^k = e_(c_k, v Q_k), and
g^l acts on the block at c_0 by the stabilizer block H. So the relations
are one coset's norm rows per orbit: e_(c_0, v) N = sum_k e_(c_k, v N_H Q_k)
with N_H = 1 + H + ... + H^(o/l - 1), and since e_(c_k, w) N =
e_(c_0, w Q_k^-1) N, these rows span the same row module over any ring
as the norm rows at every coset.

Both kinds of table, congruence.CongruenceCosets and PermCosets here, share
one interface, and everything in this module reads a table through it alone:
n and mu; twist(i, letter), the coset reached from i by the letter with
the cocycle that multiplies the coefficient; the weight_variant class
attribute naming the matching weight action; label(); and subgroup, the
TriangleSubgroup of the coset permutations, all that weight 2 reads (every
cocycle acts there as 1). Cocycles are plain 2x2 matrices, 4-tuples over Z
for congruence tables and over the group's own Z[2cos(pi/n)] for
permutation tables, which the weight module of signature n turns into
row-convention action matrices. Only path conversion and matrix right
actions need more (congruence cusp arithmetic), and they ask for it
through congruence.require_congruence.
"""

from collections import namedtuple
from functools import cached_property

from .congruence import continued_fraction_path, require_congruence
from .linalg import FPMap, FPModule, Matrix, left_kernel
from .rings import UnsupportedRingError
from .triangle import mat2_inv_det_one, psl_canonical
from .weights import WeightModule, norm


Subspace = namedtuple("Subspace", ["module", "ambient_rows"])
Orbit = namedtuple("Orbit", ["cycle", "steps", "stabilizer"])


class PermCosets:
    """Coset-table view of a permutation-presented triangle subgroup.

    Cocycles come back as exact 2x2 matrices over the group's Z[lam],
    sign-canonicalized.
    The signs are only projective, hence the projective weight variant.
    """

    weight_variant = "projective"

    def __init__(self, group):
        self.subgroup = group
        self.n = group.n
        self.mu = group.mu

    def twist(self, i, letter):
        """(j, cocycle of the inverse Schreier element) for coset i under
        the letter; the cocycle is exactly what multiplies the coefficient."""
        gam, j = self.subgroup.cocycle_matrix(i, ((letter, 1),))
        ring = self.subgroup.ring
        return j, psl_canonical(ring, mat2_inv_det_one(ring, gam))

    def label(self):
        return "perm(n=%d, mu=%d)" % (self.n, self.mu)

    def __repr__(self):
        return "PermCosets(n=%d, mu=%d)" % (self.n, self.mu)


def weight_module_for(cosets, ring, k):
    """The weight action flavor matching the coset table: sign-normalized
    SL2 matrices for congruence tables (so odd weights make sense when the
    subgroup misses -1), plain projective matrices for permutation tables,
    each over the table's signature."""
    return WeightModule(ring, k, variant=cosets.weight_variant, n=cosets.n)


class InducedModule:
    """The coefficient module induced along a coset table.

    Coordinates come in mu blocks of size weight.dim, one block per coset,
    stored row-major. Group elements act on the right via block-permutation
    matrices: coset i is carried to coset j while the coefficient picks up
    the action of the inverse Schreier cocycle. The generator actions are
    validated to have orders 2 and n; that fails exactly when the weight
    cannot act through the projective group (for instance odd weight over a
    subgroup containing minus the identity), which is reported as an
    unsupported combination.
    """

    def __init__(self, cosets, weight):
        self.cosets = cosets
        self.weight = weight
        self.ring = weight.ring
        self.n = cosets.n
        self.mu = cosets.mu
        self.block = weight.dim
        self.rank = self.mu * self.block
        self._cache = {}
        ident = Matrix.identity(self.ring, self.block)
        self._identity = [(i, ident) for i in range(self.mu)]
        # g^o = 1 on the module exactly when, on each orbit of g, the
        # stabilizer block H has H^(o / l) = 1: g^o is conjugate to it on
        # every block of the orbit (in weight 2 every block is the identity)
        for letter, name, order in (("s", "sigma", 2), ("t", "tau", self.n)):
            for orbit in self.orbits(letter):
                m, rest = divmod(order, len(orbit.cycle))
                h = power = orbit.stabilizer
                if not rest and h != ident:
                    for _ in range(m - 1):
                        power = power.mul(h)
                    rest = power != ident
                if rest:
                    raise UnsupportedRingError(
                        "%s does not act with order %d on the induced module; the "
                        "weight twist is incompatible with these cosets" % (name, order)
                    )

    # -- block maps: [(j, B)] with (i (x) v) * g = (j (x) v B) row-wise ----

    def _from_twists(self, twists):
        """Block map of (j, cocycle) twists listed by source coset."""
        act = self.weight.action_matrix
        return [(j, act(coc)) for j, coc in twists]

    def cached(self, key, build):
        """The cached value under key; `build` runs only on a miss."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    def _letter(self, letter):
        if self.block == 1:
            # in weight 2 every cocycle acts as 1: no cocycle is built
            target, one = self.cosets.subgroup.apply_letter, self.weight.action_matrix((1, 0, 0, 1))
            build = lambda: [(target(i, letter), one) for i in range(self.mu)]
        else:
            twist = self.cosets.twist
            build = lambda: self._from_twists(twist(i, letter) for i in range(self.mu))
        return self.cached("B" + letter, build)

    def orbits(self, name):
        """The orbits of sigma ("s"), tau ("t") or T ("T") on the cosets, by
        least coset c0: Orbit(cycle c_0..c_(l-1), steps Q_0..Q_(l-1),
        stabilizer H) with e_(c0, v) g^k = e_(c_k, v Q_k) and H = Q_l, the
        action of g^l on the block at c0. Walking a cycle takes one block
        product per coset, and none in weight 2."""

        def build():
            bm, ident, out = self.block_map(name), self._identity[0][1], []
            seen = [False] * self.mu
            for c0 in range(self.mu):
                if seen[c0]:
                    continue
                cycle, j = [c0], bm[c0][0]
                while j != c0:
                    seen[j] = True
                    cycle.append(j)
                    j = bm[j][0]
                steps, Q = [ident], bm[c0][1]
                for c in cycle[1:]:
                    steps.append(Q)
                    Q = self._then(Q, bm[c][1])
                out.append(Orbit(cycle, steps, Q))
            return out

        return self.cached("O" + name, build)

    def spread(self, orbit, K):
        """The rows of K placed in the block at c0 and carried around the
        orbit: row v becomes the {column: value} row with block v Q_k at
        each c_k."""
        blk = self.block
        rows = [{} for _ in range(K.nrows)]
        for k, (c, Q) in enumerate(zip(orbit.cycle, orbit.steps)):
            base = c * blk
            for row, krow in zip(rows, (self._then(K, Q) if k else K).sparse_rows()):
                for b, x in krow.items():
                    row[base + b] = x
        return rows

    def _then(self, A, B):
        """A * B for blocks; in weight 2 every block is the identity."""
        return A if self.block == 1 else A.mul(B)

    def _compose(self, first, then):
        """Block map of 'first, then then' (right actions compose in order).
        In weight 2 every block is the identity, so only the cosets move."""
        return [(then[j][0], self._then(B, then[j][1])) for j, B in first]

    def _assemble(self, terms):
        """Sparse-born matrix of a signed sum of block maps, terms
        [(+1 or -1, bm)]: each row is the {column: value} dict of the nonzero
        entries of its block rows, where an entry that several terms hit is
        their sum, so no rank x rank list is allocated."""
        ring, blk = self.ring, self.block
        neg, add, is_zero = ring.neg, ring.add, ring.is_zero
        rows = [{} for _ in range(self.rank)]
        for sign, bm in terms:
            for i, (j, B) in enumerate(bm):
                base = j * blk
                for row, brow in zip(rows[i * blk : (i + 1) * blk], B.sparse_rows()):
                    for b, x in brow.items():
                        c = base + b
                        if sign < 0:
                            x = neg(x)
                        if c in row:
                            x = add(row[c], x)
                            if is_zero(x):
                                del row[c]
                                continue
                        row[c] = x
        return Matrix.from_sparse(ring, rows, self.rank)

    # -- operators ---------------------------------------------------------

    def block_map(self, name):
        """Block map [(j, B)] of sigma ("s"), tau ("t") or T ("T"), listed
        by source coset."""
        if name == "s" or name == "t":
            return self._letter(name)
        if name == "T":
            return self.cached("BT", lambda: self._compose(self._letter("t"), self._letter("s")))
        raise ValueError(name)

    def right_matrix(self, name):
        """Matrix of the right action of sigma ("s"), tau ("t") or the
        translation T = tau sigma ("T")."""
        return self.cached("R" + name, lambda: self._assemble([(1, self.block_map(name))]))

    def right_difference(self, name):
        """Matrix of (identity - right action)."""
        return self.cached(
            "D" + name,
            lambda: self._assemble([(1, self._identity), (-1, self.block_map(name))]),
        )

    def norm_matrix(self, letter):
        """Sum of the right actions of the powers of a generator g below its
        order o (2 for sigma, n for tau): o / r times the sum below the first
        power g^r that moves no coset and is the identity (r divides o)."""

        def build():
            order, g = (2 if letter == "s" else self.n), self._letter(letter)
            powers, fixed = [self._identity], list(range(self.mu))
            while len(powers) < order:
                power = self._compose(powers[-1], g) if len(powers) > 1 else g
                if [j for j, _ in power] == fixed and power == self._identity:
                    c = self.ring.of_int(order // len(powers))
                    powers = [[(j, B.scale(c)) for j, B in bm] for bm in powers]
                    break
                powers.append(power)
            return self._assemble([(1, bm) for bm in powers])

        return self.cached("N" + letter, build)

    def norm_kernel(self, letter):
        """Basis of the row vectors killed by a generator norm. These are
        the admissible cocycle values on that generator."""
        return self.cached("K" + letter, lambda: left_kernel(self.norm_matrix(letter)))

    def fixed_vectors(self, name):
        """Basis of the vectors fixed by the right action of "s", "t" or
        the translation "T": on each orbit, a basis of V^H spread around it
        (Shapiro's lemma). Every leading entry lies in the block at c0, so
        sorted by leading column this is the reduced echelon basis of
        left_kernel(right_difference(name)), or its Hermite basis over Z."""

        def build():
            ident = self._identity[0][1]
            rows = []
            for orbit in self.orbits(name):
                H = orbit.stabilizer
                rows += self.spread(orbit, ident if H == ident else left_kernel(H.sub(ident)))
            rows.sort(key=min)
            return Matrix.from_sparse(self.ring, rows, self.rank)

        return self.cached("F" + name, build)

    def group_fixed_vectors(self):
        """Basis of the vectors fixed by the whole group action."""
        return self.cached(
            "FG",
            lambda: left_kernel(
                self.right_difference("s").hstack(self.right_difference("t"))
            ),
        )

    def right_operator(self, g):
        """Right action of an arbitrary determinant-1 integer matrix, on a
        congruence table; the diamond operators use hecke._operator_rows."""
        require_congruence(self.cosets, "matrix right actions")
        twist_by = self.cosets.twist_by
        bm = self._from_twists(twist_by(i, g) for i in range(self.mu))
        return self._assemble([(1, bm)])

    def __repr__(self):
        return "InducedModule(mu=%d, block=%d, %s)" % (
            self.mu,
            self.block,
            self.ring.kind,
        )


class _QuotientSpace:
    """The induced module modulo the row span of the relation matrix that
    _relations builds, on the first read of the presentation."""

    def __init__(self, module):
        self.module = module
        self.ring = module.ring

    @cached_property
    def presentation(self):
        return FPModule(self.ring, self.module.rank, self._relations())

    def rank(self):
        return self.presentation.rank()

    def dim(self):
        return self.presentation.dim()

    def torsion(self):
        return self.presentation.torsion()

    def __repr__(self):
        return "%s(rank=%d of %d, %s)" % (
            type(self).__name__,
            self.presentation.rank(),
            self.module.rank,
            self.ring.kind,
        )


class ManinSymbolSpace(_QuotientSpace):
    """Quotient of the induced module by the two norm relation families."""

    def __init__(self, module):
        super().__init__(module)
        self.cosets = module.cosets
        self.weight = module.weight

    def _relations(self):
        """The norm rows at the least coset c0 of each orbit of sigma and
        tau: N_H Q_k at c_k, N_H the norm of the stabilizer H of order o / l."""
        module = self.module
        rows = []
        for letter, order in (("s", 2), ("t", module.n)):
            for orbit in module.orbits(letter):
                rows += module.spread(orbit, norm(orbit.stabilizer, order // len(orbit.cycle)))
        return Matrix.from_sparse(module.ring, rows, module.rank)


class BoundarySpace(_QuotientSpace):
    """Quotient of the induced module by the translation relations; classes
    are indexed by the cusps of the subgroup, each cut down by the twisted
    action of its width translation."""

    def _relations(self):
        return self.module.right_difference("T")


def manin_space(cosets, weight):
    return ManinSymbolSpace(InducedModule(cosets, weight))


def boundary_space(source):
    """Boundary space attached to a ManinSymbolSpace or an InducedModule."""
    module = source.module if isinstance(source, ManinSymbolSpace) else source
    return BoundarySpace(module)


def boundary_map(space):
    """Difference-of-endpoints map from symbols to the boundary space.

    Well-definedness needs both norm relation families to land in the
    translation relations. That is automatic here: the generator order
    identities validated when the induced module was built give exactly
    N_sigma (1 - sigma) = 1 - sigma^2 = 0 and
    N_tau (1 - sigma) = N_tau (1 - tau sigma), whose rows are visibly
    combinations of the rows of 1 - T."""
    ambient = space.module.right_difference("s")
    return FPMap(space.presentation, boundary_space(space).presentation, ambient, check=False)


def cuspidal_subspace(space):
    """Kernel of the boundary map, with ambient generator rows."""
    module, rows = boundary_map(space).kernel()
    return Subspace(module, rows)


def eisenstein_subspace(space):
    """Image of the boundary map, presented on the symbol generators."""
    module, _ = boundary_map(space).image()
    return module


def convert_symbol(space, alpha, beta, coeffs=None):
    """Ambient coordinates of the path symbol {alpha, beta} (x) coeffs.

    Endpoints are Fractions (or ints) with None for the infinite cusp;
    coeffs is a coefficient list of length k - 1 over the weight ring and
    defaults to the first basis monomial. Requires a congruence coset table,
    since the path is cut into unimodular segments by continued fractions."""
    cosets = space.cosets
    require_congruence(cosets, "path conversions")
    module = space.module
    ring = space.ring
    blk = module.block
    if coeffs is None:
        v = [ring.one] + [ring.zero] * (blk - 1)
    else:
        v = list(coeffs)
        if len(v) != blk:
            raise ValueError("coefficient length must be the weight dimension")
    out = [ring.zero] * module.rank
    for seg, sign in continued_fraction_path(alpha, beta):
        j, gamma = cosets.symbol_cocycle(seg)
        acted = space.weight.action_matrix(gamma).act_on_row(v)
        base = j * blk
        if sign == 1:
            add = acted
        else:
            add = [ring.neg(x) for x in acted]
        out[base : base + blk] = [ring.add(a, b) for a, b in zip(out[base : base + blk], add)]
    return out
