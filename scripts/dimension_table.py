#!/usr/bin/env python3
"""Print a dimension table for congruence modular symbol spaces.

For each level and weight this lists the symbol space dimension, its
cuspidal/Eisenstein split, both cohomology dimensions with their parabolic
parts, and the genus / cusp count of the quotient curve. Everything is
computed over Q, so the symbol columns (from the presentation and the
boundary map's kernel) and the cohomology columns (from the local terms of
cohomology.dimension_report) should agree; seeing them side by side is the
point of the table.

Usage:
    python3 scripts/dimension_table.py --max-level 30 --weights 2 4 6
"""

import argparse

from heckesym.cohomology import dimension_report
from heckesym.congruence import gamma0_cosets, gamma1_cosets
from heckesym.modsym import cuspidal_subspace, manin_space, weight_module_for
from heckesym.rings import QQ

COLUMNS = ("N", "k", "manin", "cusp", "eis", "h1", "h1par", "surf", "surfpar", "genus", "cusps")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-level", type=int, default=30)
    parser.add_argument("--weights", type=int, nargs="+", default=[2, 4, 6])
    parser.add_argument("--gamma1", action="store_true",
                        help="use gamma1 cosets instead of gamma0")
    args = parser.parse_args()

    build = gamma1_cosets if args.gamma1 else gamma0_cosets
    print(" ".join("%7s" % c for c in COLUMNS))
    for N in range(1, args.max_level + 1):
        cosets = build(N)
        for k in args.weights:
            space = manin_space(cosets, weight_module_for(cosets, QQ, k))
            dim = space.rank()
            cusp = cuspidal_subspace(space).module.rank()
            report = dimension_report(space.module)
            row = (
                N, k, dim, cusp, dim - cusp,
                report.h1, report.h1_par, report.surface_h1, report.surface_h1_par,
                cosets.subgroup.genus(),
                len(cosets.subgroup.cusp_classes()),
            )
            print(" ".join("%7d" % v for v in row))


if __name__ == "__main__":
    main()
