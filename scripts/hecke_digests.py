#!/usr/bin/env python3
"""Print sha256 digests of the Hecke data of a few modular symbol spaces.

For each space over a field this hashes the repr (entry types included,
so 1 and Fraction(1, 1) differ) of:
  - the matrix of T_p on the free generators, p = 2..7;
  - T_p restricted to the cuspidal subspace, p = 2..7;
  - on gamma1 tables, every diamond operator restricted to the cuspidal
    subspace;
  - the eigenblocks of T_2..T_7 on the cuspidal subspace (bases,
    eigenvalues, factors).
For each space over the integers it hashes the integral normal forms
behind the answers instead:
  - the Hermite form of the Manin relations with its transform;
  - their Smith form D = U*A*W;
  - the presentation: invariant factors, the coordinates of the unit
    vectors and the ambient rows of the generators;
  - the integer kernels of the two norm matrices;
  - the kernel of the boundary map (generators and relations);
  - the kernel of the map onto surface cohomology (comparison_report).
For each space over Q(2cos(pi/n)) it hashes the extension arithmetic:
  - the right action, difference and norm matrices of the generators;
  - the presentation: free generators and the coordinates of the unit
    vectors;
  - comparison_report: kernel generators, local span and verdict;
  - the six-term exact sequence (mayer_vietoris).
Arithmetic changes that must not change any answer are checked against
these digests (tests/data/hecke_digests.json holds a recorded run).

Usage:
    python3 scripts/hecke_digests.py                  # every space below
    python3 scripts/hecke_digests.py gamma0-11-k2     # one or more by name
"""

import argparse
import hashlib
import json
import os
from math import gcd

from heckesym.congruence import gamma0_cosets, gamma1_cosets
from heckesym.hecke import diamond_operator, eigensystem, hecke_matrix, restrict_operator
from heckesym.cohomology import comparison_report, mayer_vietoris
from heckesym.linalg import Matrix, hermite_normal_form, smith_normal_form
from heckesym.modsym import (
    PermCosets,
    boundary_map,
    cuspidal_subspace,
    manin_space,
    weight_module_for,
)
from heckesym.rings import GF, QQ, ZZ
from heckesym.triangle import TriangleSubgroup, rational_lambda_ring, subgroup_from_dict

PRIMES = (2, 3, 5, 7)
SUBGROUPS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "subgroups.json")
# the ring Q(2cos(pi/n)) of the group's signature n
LAMBDA = "lambda"


def one_coset(n):
    """The coset table of the whole n-triangle group: one coset."""
    return PermCosets(TriangleSubgroup.level_one(n))


def listed_subgroup(name):
    """The coset table of a subgroup listed in the benchmark's data."""
    with open(SUBGROUPS) as fh:
        return PermCosets(subgroup_from_dict(json.load(fh)[name]))


# name -> (coset builder, its argument, weight, ring); a one-coset group is
# built from its n, a listed subgroup from its name
SPACES = {
    "gamma0-11-k2": (gamma0_cosets, 11, 2, QQ),
    "gamma0-30-k2": (gamma0_cosets, 30, 2, QQ),
    "gamma0-15-k4": (gamma0_cosets, 15, 4, QQ),
    "gamma0-10-k6": (gamma0_cosets, 10, 6, QQ),
    "gamma1-7-k3": (gamma1_cosets, 7, 3, QQ),
    "gamma0-47-k2-fp7": (gamma0_cosets, 47, 2, GF(7)),
    "gamma0-11-k2-z": (gamma0_cosets, 11, 2, ZZ),
    "gamma0-23-k2-z": (gamma0_cosets, 23, 2, ZZ),
    "gamma0-60-k2-z": (gamma0_cosets, 60, 2, ZZ),
    "gamma0-11-k4-z": (gamma0_cosets, 11, 4, ZZ),
    "delta4-k2-z": (one_coset, 4, 2, ZZ),
}
SPACES.update({"delta%d-k%d-lambda" % (n, k): (one_coset, n, k, LAMBDA)
               for n in (4, 5, 6, 7) for k in (4, 6)})
SPACES.update({"%s-k%d-lambda" % (g, k): (listed_subgroup, g, k, LAMBDA)
               for g in ("n5-mu08-a", "n6-mu08-a") for k in (4, 6)})


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def matrix_key(mat):
    return (mat.nrows, mat.ncols, mat.rows)


def integral_digests(space):
    pres = space.presentation
    rel = pres.relations
    units = Matrix.identity(ZZ, pres.ngens).rows
    D, U, W = smith_normal_form(rel)
    kernel, gens = boundary_map(space).kernel()
    report = comparison_report(space)
    return {
        "relation HNF": digest([matrix_key(m) for m in hermite_normal_form(rel, with_transform=True)]),
        "relation Smith": digest([matrix_key(D), matrix_key(U), matrix_key(W)]),
        "presentation": digest((pres.invariants(), [pres.reduce(e) for e in units],
                                matrix_key(pres.generator_ambient_rows()))),
        "norm kernels": digest([matrix_key(space.module.norm_kernel(x)) for x in "st"]),
        "boundary kernel": digest((matrix_key(gens), matrix_key(kernel.relations))),
        "comparison kernel": digest((matrix_key(report.kernel_gens),
                                     matrix_key(report.kernel.relations),
                                     report.kernel.invariants(), report.verdict)),
    }


def lambda_digests(space):
    module, pres = space.module, space.presentation
    units = Matrix.identity(module.ring, pres.ngens).rows
    report = comparison_report(space)
    return {
        "right matrices": digest([matrix_key(module.right_matrix(x)) for x in "stT"]),
        "difference matrices": digest([matrix_key(module.right_difference(x)) for x in "stT"]),
        "norm matrices": digest([matrix_key(module.norm_matrix(x)) for x in "st"]),
        "presentation": digest((pres.free_generators(), [pres.reduce(e) for e in units])),
        "comparison": digest((matrix_key(report.kernel_gens), report.local_span, report.verdict)),
        "mayer_vietoris": digest(mayer_vietoris(module)),
    }


def space_digests(name):
    build, N, k, ring = SPACES[name]
    cosets = build(N)
    if ring is LAMBDA:
        lam_ring = rational_lambda_ring(cosets.n)[0]
        return lambda_digests(manin_space(cosets, weight_module_for(cosets, lam_ring, k)))
    space = manin_space(cosets, weight_module_for(cosets, ring, k))
    if ring is ZZ:
        return integral_digests(space)
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
