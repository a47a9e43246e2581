#!/usr/bin/env python3
"""Print sha256 digests of the Hecke data of a few modular symbol spaces.

For each space this hashes the repr (entry types included, so 1 and
Fraction(1, 1) differ) of:
  - the matrix of T_p on the free generators, p = 2..7;
  - T_p restricted to the cuspidal subspace, p = 2..7;
  - on gamma1 tables, every diamond operator restricted to the cuspidal
    subspace;
  - the eigenblocks of T_2..T_7 on the cuspidal subspace (bases,
    eigenvalues, factors).
Arithmetic changes that must not change any answer are checked against
these digests (tests/data/hecke_digests.json holds a recorded run).

Usage:
    python3 scripts/hecke_digests.py                  # every space below
    python3 scripts/hecke_digests.py gamma0-11-k2     # one or more by name
"""

import argparse
import hashlib
import json
from math import gcd

from heckesym.congruence import gamma0_cosets, gamma1_cosets
from heckesym.hecke import diamond_operator, eigensystem, hecke_matrix, restrict_operator
from heckesym.modsym import cuspidal_subspace, manin_space, weight_module_for
from heckesym.rings import GF, QQ

PRIMES = (2, 3, 5, 7)

# name -> (coset builder, level, weight, ring)
SPACES = {
    "gamma0-11-k2": (gamma0_cosets, 11, 2, QQ),
    "gamma0-30-k2": (gamma0_cosets, 30, 2, QQ),
    "gamma0-15-k4": (gamma0_cosets, 15, 4, QQ),
    "gamma0-10-k6": (gamma0_cosets, 10, 6, QQ),
    "gamma1-7-k3": (gamma1_cosets, 7, 3, QQ),
    "gamma0-47-k2-fp7": (gamma0_cosets, 47, 2, GF(7)),
}


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def matrix_key(mat):
    return (mat.nrows, mat.ncols, mat.rows)


def space_digests(name):
    build, N, k, ring = SPACES[name]
    cosets = build(N)
    space = manin_space(cosets, weight_module_for(cosets, ring, k))
    cusp = cuspidal_subspace(space)
    out = {}
    for p in PRIMES:
        op = hecke_matrix(space, p)
        out["T%d generators" % p] = digest(matrix_key(op.matrix_on_generators()))
        out["T%d cuspidal" % p] = digest(matrix_key(restrict_operator(op, cusp)))
    if cosets.kind == "gamma1":
        for d in range(2, N):
            if gcd(d, N) == 1:
                op = diamond_operator(space, d)
                out["<%d> cuspidal" % d] = digest(matrix_key(restrict_operator(op, cusp)))
    blocks = eigensystem(space, PRIMES, cusp)
    out["eigenblocks"] = digest([
        (matrix_key(b.basis), sorted(b.eigenvalues.items()), sorted(b.factors.items()), b.diagonal)
        for b in blocks
    ])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spaces", nargs="*", help="space names (default: all)")
    args = parser.parse_args(argv)
    names = args.spaces or list(SPACES)
    unknown = [n for n in names if n not in SPACES]
    if unknown:
        parser.error("unknown space %s; choose from %s" % (unknown[0], ", ".join(SPACES)))
    print(json.dumps({name: space_digests(name) for name in names}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
