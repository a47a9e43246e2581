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

Both kinds of table, congruence.CongruenceCosets and PermCosets here, share
one interface, and everything in this module reads a table through it alone:
n and mu; twist(i, letter, e), the coset reached from i by letter^e with the
cocycle that multiplies the coefficient; stabilizer_cocycle(cls), the
stabilizer generator of an elliptic class; the weight_variant class
attribute naming the matching weight action; and label(). Cocycles are
plain 2x2 matrices (4-tuples over Z or Z[lam]), which the weight module of
signature n turns into row-convention action matrices. Only path
conversion and matrix right actions need more (congruence cusp arithmetic),
and they ask for it through congruence.require_congruence.
"""

from collections import namedtuple

from .congruence import continued_fraction_path, require_congruence
from .linalg import FPMap, FPModule, Matrix, left_kernel, matrix_rank
from .rings import UnsupportedRingError
from .triangle import integral_lambda_ring, mat2_inv_det_one, psl_canonical
from .weights import WeightModule


Subspace = namedtuple("Subspace", ["module", "ambient_rows"])


class PermCosets:
    """Coset-table view of a permutation-presented triangle subgroup.

    Cocycles come back as exact 2x2 matrices over Z[lam], sign-canonicalized.
    The signs are only projective, hence the projective weight variant.
    """

    weight_variant = "projective"

    def __init__(self, group):
        self.group = group
        self.subgroup = group
        self.n = group.n
        self.mu = group.mu
        self.ring, self.lam = integral_lambda_ring(group.n)

    def twist(self, i, letter, e=1):
        """(j, cocycle of the inverse Schreier element) for coset i under
        letter^e; the cocycle is exactly what multiplies the coefficient."""
        gam, j = self.group.cocycle_matrix(self.ring, self.lam, i, ((letter, e),))
        return j, psl_canonical(self.ring, mat2_inv_det_one(self.ring, gam))

    def stabilizer_cocycle(self, cls):
        """Generator of the stabilizer of an elliptic class, as a matrix."""
        word = (("s" if cls.kind == "sigma" else "t", cls.power),)
        gam, j = self.group.cocycle_matrix(self.ring, self.lam, cls.coset, word)
        if j != cls.coset:
            raise UnsupportedRingError("elliptic class does not fix its coset")
        return gam

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
        self._letter_cache = {}
        self._power_cache = {}
        self._dense_cache = {}
        ident = Matrix.identity(self.ring, self.block)
        self._identity = [(i, ident) for i in range(self.mu)]
        for letter, name in (("s", "sigma"), ("t", "tau")):
            powers = self._powers(letter)
            if powers[-1] != self._identity:
                raise UnsupportedRingError(
                    "%s does not act with order %d on the induced module; the "
                    "weight twist is incompatible with these cosets"
                    % (name, len(powers) - 1)
                )

    # -- block maps: [(j, B)] with (i (x) v) * g = (j (x) v B) row-wise ----

    def _from_twists(self, twists):
        """Block map of (j, cocycle) twists listed by source coset."""
        act = self.weight.action_matrix
        return [(j, act(coc)) for j, coc in twists]

    def _letter(self, letter, e=1):
        key = (letter, e)
        bm = self._letter_cache.get(key)
        if bm is None:
            twist = self.cosets.twist
            bm = self._from_twists(twist(i, letter, e) for i in range(self.mu))
            self._letter_cache[key] = bm
        return bm

    def _powers(self, letter):
        """Block maps of letter^0 .. letter^order (order 2 for sigma, n for
        tau), composed once for both the order check and the norm."""
        out = self._power_cache.get(letter)
        if out is None:
            step = self._letter(letter)
            out = [self._identity, step]
            for _ in range((2 if letter == "s" else self.n) - 1):
                out.append(self._compose(out[-1], step))
            self._power_cache[letter] = out
        return out

    @staticmethod
    def _compose(first, then):
        """Block map of 'first, then then' (right actions compose in order)."""
        return [(then[j][0], B.mul(then[j][1])) for j, B in first]

    def _assemble(self, terms):
        """Dense matrix of a signed sum of block maps, terms [(+1 or -1, bm)].

        A block goes in by plain assignment (negated for a -1 term) where no
        earlier term wrote; only blocks that several terms hit are added, so
        the common case does no ring additions onto zeros."""
        blocks = {}
        for sign, bm in terms:
            for i, (j, B) in enumerate(bm):
                if sign < 0:
                    B = B.neg()
                cur = blocks.get((i, j))
                blocks[i, j] = B if cur is None else cur.add(B)
        blk = self.block
        rows = [[self.ring.zero] * self.rank for _ in range(self.rank)]
        for (i, j), B in blocks.items():
            for a in range(blk):
                rows[i * blk + a][j * blk : (j + 1) * blk] = B.rows[a]
        return Matrix(self.ring, rows, self.rank)

    # -- dense operators ----------------------------------------------------

    def _blockmap(self, name):
        if name == "s" or name == "t":
            return self._letter(name)
        if name == "T":
            bm = self._letter_cache.get(("T", 1))
            if bm is None:
                bm = self._compose(self._letter("t"), self._letter("s"))
                self._letter_cache[("T", 1)] = bm
            return bm
        raise ValueError(name)

    def _cached(self, key, build):
        """The cached value under key; `build` runs only on a miss."""
        out = self._dense_cache.get(key)
        if out is None:
            out = self._dense_cache[key] = build()
        return out

    def right_matrix(self, name):
        """Dense matrix of the right action of sigma ("s"), tau ("t") or the
        translation T = tau sigma ("T")."""
        return self._cached(name, lambda: self._assemble([(1, self._blockmap(name))]))

    def right_difference(self, name):
        """Dense matrix of (identity - right action)."""
        return self._cached(
            "D" + name,
            lambda: self._assemble([(1, self._identity), (-1, self._blockmap(name))]),
        )

    def norm_matrix(self, letter):
        """Sum of the right actions of the powers of a generator."""
        return self._cached(
            "N" + letter,
            lambda: self._assemble([(1, bm) for bm in self._powers(letter)[:-1]]),
        )

    def norm_kernel(self, letter):
        """Basis of the row vectors killed by a generator norm. These are
        the admissible cocycle values on that generator."""
        return self._cached("K" + letter, lambda: left_kernel(self.norm_matrix(letter)))

    def fixed_vectors(self, name):
        """Basis of the vectors fixed by the right action of "s", "t" or
        the translation "T"."""
        return self._cached("F" + name, lambda: left_kernel(self.right_difference(name)))

    def group_fixed_vectors(self):
        """Basis of the vectors fixed by the whole group action."""
        return self._cached(
            "FG",
            lambda: left_kernel(
                self.right_difference("s").hstack(self.right_difference("t"))
            ),
        )

    def operator_rank(self, key, build):
        """Cached rank of a derived operator matrix; `build` is only called
        on a cache miss."""
        return self._cached("rank:" + key, lambda: matrix_rank(build()))

    def apply_letter_to_row(self, vec, letter, e=1):
        """Row vector (plain list) times the right action of letter^e."""
        bm = self._letter(letter, e)
        blk = self.block
        out = [self.ring.zero] * self.rank
        for i, (j, B) in enumerate(bm):
            out[j * blk : (j + 1) * blk] = B.act_on_row(vec[i * blk : (i + 1) * blk])
        return out

    def right_operator(self, g):
        """Dense right action of an arbitrary determinant-1 integer matrix.

        Only congruence tables carry enough structure for this; it backs the
        diamond operators and the symbol-invariance checks."""
        require_congruence(self.cosets, "matrix right actions")
        twist_by = self.cosets.twist_by
        bm = self._from_twists(twist_by(i, g) for i in range(self.mu))
        return self._assemble([(1, bm)])

    def stabilizer_action(self, cls):
        """Action matrix on the weight module of the stabilizer generator of
        an elliptic class (rows = images of basis monomials)."""
        return self.weight.action_matrix(self.cosets.stabilizer_cocycle(cls))

    def __repr__(self):
        return "InducedModule(mu=%d, block=%d, %s)" % (
            self.mu,
            self.block,
            self.ring.kind,
        )


class _QuotientSpace:
    """The induced module modulo the row span of a relation matrix."""

    def __init__(self, module, relations):
        self.module = module
        self.ring = module.ring
        self.presentation = FPModule(self.ring, module.rank, relations)

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
        super().__init__(module, module.norm_matrix("s").stack(module.norm_matrix("t")))
        self.cosets = module.cosets
        self.weight = module.weight


class BoundarySpace(_QuotientSpace):
    """Quotient of the induced module by the translation relations; classes
    are indexed by the cusps of the subgroup, each cut down by the twisted
    action of its width translation."""

    def __init__(self, module):
        super().__init__(module, module.right_difference("T"))


def manin_space(cosets, weight):
    return ManinSymbolSpace(InducedModule(cosets, weight))


def boundary_space(source):
    """Boundary space attached to a ManinSymbolSpace or an InducedModule."""
    module = source.module if isinstance(source, ManinSymbolSpace) else source
    return BoundarySpace(module)


def boundary_map(space, boundary=None, check=False):
    """Difference-of-endpoints map from symbols to the boundary space.

    Well-definedness needs both norm relation families to land in the
    translation relations. That is automatic here: the generator order
    identities validated when the induced module was built give exactly
    N_sigma (1 - sigma) = 1 - sigma^2 = 0 and
    N_tau (1 - sigma) = N_tau (1 - tau sigma), whose rows are visibly
    combinations of the rows of 1 - T. Pass check=True to re-verify
    row by row anyway."""
    if boundary is None:
        boundary = boundary_space(space)
    module = space.module
    ambient = module.right_difference("s")
    return FPMap(space.presentation, boundary.presentation, ambient, check=check)


def cuspidal_subspace(space, bmap=None):
    """Kernel of the boundary map, with ambient generator rows."""
    if bmap is None:
        bmap = boundary_map(space)
    module, rows = bmap.kernel()
    return Subspace(module, rows)


def eisenstein_subspace(space, bmap=None):
    """Image of the boundary map, presented on the symbol generators."""
    if bmap is None:
        bmap = boundary_map(space)
    module, _ = bmap.image()
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
