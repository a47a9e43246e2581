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

Every block is the weight action of one 2x2 cocycle, and the action turns
a product gh into M_h M_g, so group elements are composed on the 2x2 side
and acted once: T's cocycles, each orbit's stabilizer, the order check and
the letter powers of the norms are cocycle products, never d x d block
products.

The module splits along the coset orbits of each generator g of order o
(Shapiro's lemma; Brown, Cohomology of Groups, III.5-6): on an orbit
c_0..c_(l-1) from its least coset, with B_k g's block at c_k,
e_(c_0, v) g^k = e_(c_k, v Q_k) for Q_k = B_0 ... B_(k-1), and g^l acts on
the block at c_0 by the stabilizer block H = Q_l. So the relations are one
coset's norm rows per orbit: e_(c_0, v) N = sum_k e_(c_k, v N_H Q_k) with
N_H = 1 + H + ... + H^(o/l - 1), and since e_(c_k, w) N =
e_(c_0, w Q_k^-1) N, these rows span the same row module over any ring
as the norm rows at every coset. spread carries such rows around an orbit
block by block. Each Orbit builds V^H, N_H and the local term V^H / N_H V
once for all readers, and M^G comes from shapiro_walk.

Both kinds of table, congruence.CongruenceCosets and PermCosets here, share
one interface, and everything in this module reads a table through it alone:
n and mu; twist(i, letter), the coset reached from i by the letter with
the cocycle that multiplies the coefficient; the weight_variant class
attribute naming the matching weight action; label(); and subgroup, the
TriangleSubgroup of the coset permutations s, t and perm_T, all that
weight 2 reads (every cocycle acts there as 1), whose mul is the cocycles'
2x2 product. Cocycles are plain 2x2 matrices, 4-tuples over Z for congruence
tables and over the group's own Z[2cos(pi/n)] for permutation tables, which
the weight module of signature n turns into row-convention action matrices.
Only path conversion and matrix right actions need more (congruence cusp
arithmetic), and they ask for it through congruence.require_congruence.
"""

from collections import namedtuple
from functools import cached_property

from .congruence import continued_fraction_path, require_congruence
from .linalg import FPMap, FPModule, InternalInvariantError, Matrix, left_kernel, subquotient
from .rings import UnsupportedRingError
from .triangle import mat2_inv_det_one, mat2_pow, psl_canonical
from .weights import WeightModule, norm as action_norm


Subspace = namedtuple("Subspace", ["module", "ambient_rows"])


class Orbit(namedtuple("Orbit", ["cycle", "blocks", "stabilizer", "order", "one"])):
    """An orbit c_0..c_(l-1) of a generator g on the cosets, from its least
    coset, with the letter's blocks B_k at c_k (e_(c_k, v) g = e_(c_(k+1),
    v B_k)), the stabilizer block H = B_0 ... B_(l-1), the action of the
    product of the 2x2 cocycles around the cycle (g^l on the block at c0),
    its order m = o / l (0 for T, and where l does not divide g's order o)
    and the module's shared identity block. V^H, N_H and the local term
    V^H / N_H V are each built on first read and kept."""

    @cached_property
    def fixed(self):
        """Basis of V^H: the shared identity (H itself in weight 2) if H = 1."""
        ident, H = self.one, self.stabilizer
        return ident if H is ident or H == ident else left_kernel(H.sub(ident))

    @cached_property
    def norm(self):  # N_H = 1 + H + ... + H^(m - 1), the shared identity if m = 1
        return self.one if self.order == 1 else action_norm(self.stabilizer, self.order)

    @cached_property
    def local_term(self):  # V^H / N_H V on the basis of V^H
        return subquotient(self.fixed, self.norm)


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
        self.orders = {"s": 2, "t": self.n, "T": 0}  # T has infinite order
        self._cache = {}
        ident = Matrix.identity(self.ring, self.block)
        self._identity = [(i, ident) for i in range(self.mu)]
        self.orbits("s"), self.orbits("t")  # walking them checks the orders

    def cached(self, key, build):
        """The cached value under key; `build` runs only on a miss."""
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
        return out

    # -- generator actions: 2x2 cocycles, and the blocks they act by -------

    def twists(self, name):
        """[(j, cocycle)] by source coset for sigma ("s"), tau ("t") or T
        ("T"): coset i goes to j, the coefficient multiplied by the 2x2
        cocycle (the table's twist for a letter). T = tau sigma goes by tau
        to j, then by sigma: its cocycle is sigma's at j times tau's at i."""

        def build():
            if name == "T":
                s, mul = self.twists("s"), self.cosets.subgroup.mul
                return [(s[j][0], mul(s[j][1], c)) for j, c in self.twists("t")]
            return [self.cosets.twist(i, name) for i in range(self.mu)]

        return self.cached("C" + name, build)

    def block_map(self, name):
        """Block map [(j, B)] of sigma ("s"), tau ("t") or T ("T"), listed
        by source coset, with (i (x) v) * g = (j (x) v B): B is the action
        of the cocycle of twists(name). In weight 2 every cocycle acts as
        1, so only the coset permutations are read and no cocycle is built."""

        def build():
            if self.block > 1:
                act = self.weight.action_matrix
                return [(j, act(c)) for j, c in self.twists(name)]
            sub, one = self.cosets.subgroup, self.weight.action_matrix((1, 0, 0, 1))
            return [(j, one) for j in (sub.s if name == "s" else sub.t if name == "t" else sub.perm_T)]

        if name not in self.orders:
            raise ValueError(name)
        return self.cached("B" + name, build)

    def orbits(self, name):
        """The Orbits of sigma ("s"), tau ("t") or T ("T") on the cosets, by
        least coset. A stabilizer is the action of the product h of the 2x2
        cocycles around its cycle, last coset first (the shared identity in
        weight 2). Walking sigma's and tau's checks their orders o: g^o is
        conjugate to H^m, the action of h^m, on every block of an orbit
        (m = 0 where its length does not divide o), and must be 1."""

        def build():
            bm, ident, act = self.block_map(name), self._identity[0][1], self.weight.action_matrix
            twists, sub, out = self.twists(name) if self.block > 1 else None, self.cosets.subgroup, []
            seen = [False] * self.mu
            for c0 in range(self.mu):
                if seen[c0]:
                    continue
                cycle, j = [c0], bm[c0][0]
                while j != c0:
                    seen[j] = True
                    cycle.append(j)
                    j = bm[j][0]
                m, rest = divmod(self.orders[name], len(cycle))
                H = ident
                if twists:
                    h = twists[c0][1]
                    for c in cycle[1:]:
                        h = sub.mul(twists[c][1], h)
                    H = act(h)
                if name != "T" and (rest or H != ident and act(mat2_pow(sub.ring, h, m, sub.mul)) != ident):
                    raise UnsupportedRingError(
                        "%s does not act with order %d on the induced module; the weight twist is "
                        "incompatible with these cosets" % ({"s": "sigma", "t": "tau"}[name], self.orders[name]))
                out.append(Orbit(cycle, [bm[c][1] for c in cycle], H, 0 if rest else m, ident))
            return out

        return self.cached("O" + name, build)

    def spread(self, orbit, K):
        """The rows of K placed in the block at c0 and carried around the
        orbit block by block: row v becomes the {column: value} row with
        block v B_0 ... B_(k-1) at each c_k (in weight 2, v at each)."""
        blk = self.block
        rows = [{} for _ in range(K.nrows)]
        for k, c in enumerate(orbit.cycle):
            if k and blk > 1:
                K = K.mul(orbit.blocks[k - 1])
            base = c * blk
            for row, krow in zip(rows, K.sparse_rows()):
                for b, x in krow.items():
                    row[base + b] = x
        return rows

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
        power g^r that moves no coset and is the identity (r divides o).
        g^k's cocycle at i is g's at g^(k-1)'s target times g^(k-1)'s; in
        weight 2 only the cosets move."""

        def build():
            order, g, act = self.orders[letter], self.block_map(letter), self.weight.action_matrix
            twists, mul = self.twists(letter) if self.block > 1 else None, self.cosets.subgroup.mul
            powers, cocycles, fixed = [self._identity], twists, list(range(self.mu))
            while len(powers) < order:
                if len(powers) == 1:
                    power = g
                elif twists:
                    cocycles = [(twists[j][0], mul(twists[j][1], c)) for j, c in cocycles]
                    power = [(j, act(c)) for j, c in cocycles]
                else:
                    power = [(g[j][0], B) for j, B in powers[-1]]
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
            rows = [row for orbit in self.orbits(name) for row in self.spread(orbit, orbit.fixed)]
            rows.sort(key=min)
            return Matrix.from_sparse(self.ring, rows, self.rank)

        return self.cached("F" + name, build)

    def group_fixed_vectors(self):
        """Basis of M^G, the vectors fixed by the whole group action: for
        each row v of K, the block v P_j at each coset j (shapiro_walk)."""

        def build():
            paths, blk = self.shapiro_walk(False), self.block
            rows = [{} for _ in range(paths[0].nrows)]
            for j, P in enumerate(paths):
                for row, prow in zip(rows, P.sparse_rows()):
                    row.update((j * blk + b, x) for b, x in prow.items())
            return Matrix.from_sparse(self.ring, rows, self.rank)

        return self.cached("FG", build)

    def shapiro_walk(self, dual):
        """The products K P_j by coset j that give M^G, or M_G when dual,
        by Shapiro's lemma (Brown, Cohomology of Groups, III.5-III.6).

        A G-fixed vector is its block v at coset 0 carried along a
        breadth-first spanning tree of the sigma/tau coset graph, v P_j at
        coset j, and each edge i -> j off the tree, with block B, asks
        v (P_i B - P_j) = 0. The v meeting the constraints so far have a
        basis K, at first V^H for the block H of coset 0 in its cusp; an
        empty K ends the walk, which then returns [K]. M_G is dual to the
        fixed vectors of the transposed action, whose edges run j -> i
        with the transposed blocks, so no block is inverted."""
        cusp = self.orbits("T")[0]
        start = left_kernel(_transpose(cusp.stabilizer).sub(cusp.one)) if dual else cusp.fixed
        mu, edges = self.mu, [[] for _ in range(self.mu)]
        for letter in "st":
            for i, (j, B) in enumerate(self.block_map(letter)):
                if dual:
                    edges[j].append((i, _transpose(B)))
                else:
                    edges[i].append((j, B))
        paths = [start] + [None] * (mu - 1)  # K P_j
        queue = [0]
        for i in queue:  # breadth first: the queue grows while it is read
            for j, B in edges[i]:
                if not paths[0].nrows:
                    return paths[:1]
                step = paths[i] if self.block == 1 else paths[i].mul(B)
                if paths[j] is None:
                    paths[j] = step
                    queue.append(j)
                    continue
                C = step.sub(paths[j])
                if not C.is_zero():
                    # the x with x C = 0 cut K down to x K, and each K P_j to x K P_j
                    X = left_kernel(C)
                    paths = [P if P is None else X.mul(P) for P in paths]
        if len(queue) != mu:
            raise InternalInvariantError("the coset graph is not connected")
        return paths

    def right_operator(self, g):
        """Right action of an arbitrary determinant-1 integer matrix, on a
        congruence table; the diamond operators use hecke._operator_rows."""
        require_congruence(self.cosets, "matrix right actions")
        twist_by, act = self.cosets.twist_by, self.weight.action_matrix
        return self._assemble([(1, [(j, act(c)) for j, c in (twist_by(i, g) for i in range(self.mu))])])

    def __repr__(self):
        return "InducedModule(mu=%d, block=%d, %s)" % (
            self.mu,
            self.block,
            self.ring.kind,
        )


def _transpose(B):
    return Matrix(B.ring, [list(col) for col in zip(*B.rows)], B.nrows)


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
        rows = [row for letter in "st" for orbit in module.orbits(letter)
                for row in module.spread(orbit, orbit.norm)]
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
