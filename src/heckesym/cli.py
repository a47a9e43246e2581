"""Command line front end.

Four subcommands over a shared group/weight/ring vocabulary:

  dims      symbol, boundary, and cohomology dimensions plus invariants
  hecke     matrix and characteristic polynomial of T_p or a diamond
  qexp      eigenblocks with q-expansion coefficients on the cuspidal part
  compare   the symbol-to-surface-cohomology comparison report

Groups are congruence (gamma0:N, gamma1:N) or arbitrary finite-index
subgroups of a Hecke triangle group given by a permutation pair in a JSON
file (perm-file:PATH). Rings are the rationals (q), the integers (z), a
prime field (fp:P), or the rational extension by 2cos(pi/n) (lambda).

Exit codes: 0 success, 2 usage errors and an --out path that cannot be
written, 3 for mathematically unsupported combinations, 4 when an internal
consistency check fails (the message names the check, the group, the
weight and the ring). JSON output renders ring elements as decimal strings
so exact values survive parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .cohomology import DIMENSIONS, comparison_report, dimension_report
from .congruence import gamma0_cosets, gamma1_cosets
from .hecke import (
    diamond_operator,
    hecke_matrix,
    operator_charpolys,
    qexpansions,
    sturm_bound,
)
from .linalg import IllDefinedMapError, InternalInvariantError
from .modsym import (
    PermCosets,
    cuspidal_subspace,
    manin_space,
    weight_module_for,
)
from .rings import GF, QQ, ZZ, IntegerRing, UnsupportedRingError, is_prime
from .triangle import InvalidSubgroupError, load_subgroup, rational_lambda_ring


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _group_spec(text):
    kind, sep, rest = text.partition(":")
    if kind in ("gamma0", "gamma1"):
        try:
            N = int(rest)
        except ValueError:
            raise argparse.ArgumentTypeError("level must be an integer: %r" % text)
        if N < 1:
            raise argparse.ArgumentTypeError("level must be positive: %r" % text)
        return (gamma0_cosets if kind == "gamma0" else gamma1_cosets)(N)
    if kind == "perm-file" and sep:
        try:
            group = load_subgroup(rest)
        except InvalidSubgroupError as exc:
            raise argparse.ArgumentTypeError("bad permutation pair in %r: %s" % (rest, exc))
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError("bad permutation file %r: %s" % (rest, exc))
        return PermCosets(group)
    raise argparse.ArgumentTypeError(
        "group must be gamma0:N, gamma1:N, or perm-file:PATH, got %r" % text
    )


def _ring_spec(text):
    if text in ("q", "z", "lambda"):
        return text
    kind, sep, rest = text.partition(":")
    if kind == "fp" and sep:
        try:
            p = int(rest)
        except ValueError:
            raise argparse.ArgumentTypeError("fp:P needs an integer, got %r" % text)
        if not is_prime(p):
            raise argparse.ArgumentTypeError("fp:P needs a prime, got %r" % text)
        return ("fp", p)
    raise argparse.ArgumentTypeError(
        "ring must be q, z, fp:P, or lambda, got %r" % text
    )


def _at_least(name, least):
    """Parser of an integer option `name` that is at least `least`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%s must be an integer" % name)
        if value < least:
            raise argparse.ArgumentTypeError("%s must be at least %d" % (name, least))
        return value

    return parse


def _op_spec(text):
    kind, sep, rest = text.partition(":")
    if kind in ("tp", "diamond") and sep:
        try:
            value = int(rest)
        except ValueError:
            raise argparse.ArgumentTypeError("operator index must be an integer: %r" % text)
        if kind == "tp" and not is_prime(value):
            raise argparse.ArgumentTypeError("tp:P needs a prime, got %r" % text)
        return (kind, value)
    raise argparse.ArgumentTypeError("op must be tp:P or diamond:D, got %r" % text)


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="heckesym",
        description="exact modular symbols and cohomology for Hecke triangle subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", type=_group_spec, required=True,
                       help="gamma0:N, gamma1:N, or perm-file:PATH")
        p.add_argument("--weight", type=_at_least("weight", 2), default=2)
        p.add_argument("--ring", type=_ring_spec, default="q",
                       help="q, z, fp:P, or lambda")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", default=None, help="write output to a file")

    p_dims = sub.add_parser("dims", help="dimension and invariant table")
    common(p_dims)
    p_dims.set_defaults(handler=cmd_dims)

    p_hecke = sub.add_parser("hecke", help="operator matrix and charpoly")
    common(p_hecke)
    p_hecke.add_argument("--op", type=_op_spec, required=True, help="tp:P or diamond:D")
    p_hecke.set_defaults(handler=cmd_hecke)

    p_qexp = sub.add_parser("qexp", help="eigenblocks and q-expansions")
    common(p_qexp)
    p_qexp.add_argument("--bound", type=_at_least("bound", 1), default=None,
                        help="number of coefficients (default: the Sturm bound)")
    p_qexp.set_defaults(handler=cmd_qexp)

    p_cmp = sub.add_parser("compare", help="symbols vs surface cohomology")
    common(p_cmp)
    p_cmp.set_defaults(handler=cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# shared construction and rendering
# ---------------------------------------------------------------------------


def _build_ring(spec, cosets):
    if spec == "q":
        return QQ
    if spec == "z":
        return ZZ
    if spec == "lambda":
        return rational_lambda_ring(cosets.n)[0]
    return GF(spec[1])


def _build_space(args):
    cosets = args.group
    ring = _build_ring(args.ring, cosets)
    weight = weight_module_for(cosets, ring, args.weight)
    return cosets, ring, manin_space(cosets, weight)


def _ring_label(spec):
    if isinstance(spec, tuple):
        return "fp:%d" % spec[1]
    return spec


def _fmt(value):
    """Ring elements and containers thereof, as exact decimal strings."""
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


def _module_shape(mod):
    """Size summary of a presented module, ring-appropriate."""
    if isinstance(mod.ring, IntegerRing):
        return {"rank": mod.rank(), "invariants": [str(d) for d in mod.torsion()]}
    return {"dim": mod.rank()}


def _render_human(payload, lines=None, prefix=""):
    if lines is None:
        lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append("%s%s:" % (prefix, key))
            _render_human(value, lines, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append("%s%s:" % (prefix, key))
            for i, item in enumerate(value):
                lines.append("%s  [%d]" % (prefix, i))
                _render_human(item, lines, prefix + "    ")
        else:
            lines.append("%s%s: %s" % (prefix, key, _human_scalar(value)))
    return lines


def _human_scalar(value):
    if isinstance(value, list):
        return "[" + ", ".join(_human_scalar(v) for v in value) + "]"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dims(args):
    cosets, ring, space = _build_space(args)
    report = dimension_report(space.module)
    subgroup = cosets.subgroup
    return {
        "dims": {key: getattr(report, key) for key in DIMENSIONS},
        "genus": subgroup.genus(),
        "cusps": len(subgroup.cusp_classes()),
        "elliptic": len(subgroup.elliptic_classes()),
        # over Z the Smith form of the symbol relations; a field has none
        "torsion": [str(d) for d in space.torsion()] if isinstance(ring, IntegerRing) else [],
    }


def cmd_hecke(args):
    cosets, ring, space = _build_space(args)
    if not ring.is_field:
        raise UnsupportedRingError(
            "operator matrices and characteristic polynomials need field "
            "coefficients; use q or fp:P"
        )
    kind, value = args.op
    if kind == "tp":
        op = hecke_matrix(space, value)
    else:
        op = diamond_operator(space, value)
    full, cuspidal = operator_charpolys(op, cuspidal_subspace(space))
    return {
        "operator": "%s:%d" % (kind, value),
        "matrix": [_fmt(row) for row in op.matrix_on_generators().rows],
        "charpoly": _fmt(full),
        "cuspidal_charpoly": _fmt(cuspidal),
    }


def cmd_qexp(args):
    cosets, ring, space = _build_space(args)
    bound = args.bound if args.bound is not None else sturm_bound(space)
    records = qexpansions(space, bound)
    blocks = []
    for rec in records:
        blk = rec.block
        blocks.append({
            "dim": blk.dim,
            "diagonal": blk.diagonal,
            "eigenvalues": {str(p): _fmt(v) for p, v in sorted(blk.eigenvalues.items())},
            "factors": {str(p): _fmt(list(f)) for p, f in sorted(blk.factors.items())},
            "character": None if rec.character is None
                         else {str(p): _fmt(v) for p, v in sorted(rec.character.items())},
            "coefficients": None if rec.coefficients is None
                            else _fmt(list(rec.coefficients)),
        })
    return {
        "bound": bound,
        "sturm_bound": sturm_bound(space),
        # over a field the blocks fill the cuspidal subspace
        "cuspidal_dim": sum(rec.block.dim for rec in records),
        "blocks": blocks,
    }


def cmd_compare(args):
    cosets, ring, space = _build_space(args)
    report = comparison_report(space)
    payload = {
        "verdict": report.verdict,
        "kernel": _module_shape(report.kernel),
        "local_terms": [_module_shape(t) for t in report.local_terms],
        "local_span": report.local_span,
    }
    return payload


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    # one parser per process: it keeps no state between parses
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except UnsupportedRingError as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return 3
    except (InternalInvariantError, IllDefinedMapError) as exc:
        print("internal invariant violated: %s (group %s, weight %d, ring %s)"
              % (exc, args.group.label(), args.weight, _ring_label(args.ring)), file=sys.stderr)
        return 4
    full = {
        "schema_version": "1",
        "command": args.command,
        "group": args.group.label(),
        "weight": args.weight,
        "ring": _ring_label(args.ring),
    }
    full.update(payload)
    if args.format == "json":
        text = json.dumps(full, sort_keys=True, indent=2)
    else:
        text = "\n".join(_render_human(full))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("cannot write the output to %r: %s" % (args.out, exc.strerror or exc),
                  file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
