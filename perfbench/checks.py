"""Output checks for benchmark queries.

Two kinds of check, both independent of the code under test:

* the stored reference: the canonical JSON answer of the same query on the
  commit that defined the benchmark (data/refs.json);
* oracle and cross-ring checks: classical dimension formulas, Ramanujan's
  tau, point counts on the level-11 curve and the orbifold genus, all from
  tests/oracles.py (imported, never modified), plus relations that must
  hold between rings and for every Hecke eigensystem.

A check returns a list of problems; an empty list means the answer passed.
"""

import json
import os
import sys
from fractions import Fraction

import workloads

NOT_SPANNED = "kernel not spanned by elliptic orbit sums"


def load_oracles(root):
    sys.path.insert(0, os.path.join(root, "tests"))
    import oracles

    return oracles


def load_refs():
    with open(os.path.join(workloads.DATA, "refs.json")) as fh:
        return json.load(fh)


def parse_query(query):
    toks = query.split()
    opts = dict(zip(toks[1::2], toks[2::2]))
    return {
        "cmd": toks[0],
        "group": opts["--group"],
        "weight": int(opts.get("--weight", "2")),
        "ring": opts.get("--ring", "q"),
        "op": opts.get("--op"),
    }


def _is_char0(ring):
    return ring in ("q", "z", "lambda")


def _primes_of(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _cycles(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        out.append(cyc)
    return out


class Checker:
    def __init__(self, refs, oracles, subgroups):
        self.refs = refs
        self.oracles = oracles
        self.subgroups = subgroups

    # -- per query --------------------------------------------------------

    def check(self, query, expected_exit, code, payload):
        """The problems found in one answer."""
        problems = []
        if code != expected_exit:
            problems.append("exit code %s, expected %d" % (code, expected_exit))
        ref = self.refs.get(query)
        if ref is not None:
            if ref["exit"] != code:
                problems.append("exit code %s, reference %d" % (code, ref["exit"]))
            elif workloads.canonical(payload) != workloads.canonical(ref["output"]):
                problems.append("output differs from the reference")
        if code == 0 and not problems:
            q = parse_query(query)
            problems += getattr(self, "_check_" + q["cmd"])(q, payload)
        return problems

    def _group_invariants(self, group):
        """(index, genus, cusps, elliptic points, signature n or None for a
        congruence group), from the classical formulas or straight from
        the permutations."""
        kind, _, arg = group.partition(":")
        if kind in ("gamma0", "gamma1"):
            mu, eps2, eps3, cusps, genus = self.oracles.gamma_invariants(int(arg), kind)
            return mu, genus, cusps, eps2 + eps3, None
        g = self.subgroups[arg]
        n, s, t = g["n"], g["s"], g["t"]
        orders = [2] * sum(1 for i, j in enumerate(s) if i == j)
        orders += [n // len(c) for c in _cycles(t) if len(c) < n]
        cusps = len(_cycles([s[t[i]] for i in range(len(s))]))
        genus = self.oracles.orbifold_genus(n, len(s), orders, cusps)
        return len(s), genus, cusps, len(orders), n

    def _char0_dims(self, q):
        """(manin, cuspidal, eisenstein) over a field of characteristic 0,
        where a classical formula gives them; None elsewhere."""
        kind, _, arg = q["group"].partition(":")
        k = q["weight"]
        o = self.oracles
        if kind == "gamma0" and k % 2 == 0:
            N = int(arg)
            return (o.modular_symbol_dimension_gamma0(N, k),
                    2 * o.classical_cusp_form_dimension(N, k),
                    o.eisenstein_dimension_gamma0(N, k))
        if k == 2:
            _, genus, cusps, _, _ = self._group_invariants(q["group"])
            return 2 * genus + cusps - 1, 2 * genus, cusps - 1
        if kind == "gamma1" and int(arg) >= 4:
            cusp2, eis = o.odd_weight_dims_gamma1(int(arg), k)
            return cusp2 + eis, cusp2, eis
        return None

    def _check_dims(self, q, out):
        problems = []
        d = out["dims"]
        _, genus, cusps, elliptic, n = self._group_invariants(q["group"])
        if (out["genus"], out["cusps"], out["elliptic"]) != (genus, cusps, elliptic):
            problems.append("genus/cusps/elliptic %s, oracle %s" % (
                (out["genus"], out["cusps"], out["elliptic"]), (genus, cusps, elliptic)))
        ring = q["ring"]
        if _is_char0(ring):
            if not d["manin"] == d["h1"] == d["surface_h1"]:
                problems.append("symbol, group and surface dimensions disagree")
            if not d["cuspidal"] == d["h1_par"] == d["surface_h1_par"]:
                problems.append("parabolic dimensions disagree")
        expected = None if ring == "lambda" else self._char0_dims(q)
        if expected is not None:
            got = (d["manin"], d["cuspidal"], d["eisenstein"])
            if _is_char0(ring) and got != expected:
                problems.append("dimensions %s, classical %s" % (got, expected))
            if ring.startswith("fp:") and d["manin"] < expected[0]:
                problems.append("F_p symbol dimension below characteristic 0")
        if ring == "z":
            allowed = {2, 3} if n is None else _primes_of(2 * n)
            for inv in out["torsion"]:
                if not _primes_of(int(inv)) <= allowed:
                    problems.append("torsion %s outside primes %s" % (inv, sorted(allowed)))
            if q["group"] == workloads.DELTA4 and (out["torsion"] != ["2"] or d["manin"] != 0):
                problems.append("n=4 one-coset group must give Z/2")
        return problems

    def _check_compare(self, q, out):
        problems = []
        verdict = out["verdict"]
        if verdict == NOT_SPANNED:
            problems.append("comparison kernel not spanned by elliptic orbit sums")
        ring = q["ring"]
        if ring in ("q", "lambda") and verdict != "isomorphic":
            problems.append("comparison in characteristic 0 is %r" % verdict)
        if ring == "z" and verdict == "kernel has free part":
            problems.append("comparison over Z has a free kernel")
        return problems

    def _check_qexp(self, q, out):
        problems = []
        expected = self._char0_dims(q) if q["ring"] == "q" else None
        if expected is not None and out["cuspidal_dim"] != expected[1]:
            problems.append("cuspidal dim %d, classical %d" % (out["cuspidal_dim"], expected[1]))
        if sum(b["dim"] for b in out["blocks"]) != out["cuspidal_dim"]:
            problems.append("eigenblocks do not fill the cuspidal space")
        if q["ring"] != "q":
            return problems
        N, k = int(q["group"].partition(":")[2]), q["weight"]
        for b in out["blocks"]:
            chi = b["character"]
            trivial = q["group"].startswith("gamma0") or (
                chi is not None and all(v == "1" for p, v in chi.items() if N % int(p)))
            if not trivial:
                continue
            for p, ap in b["eigenvalues"].items():
                p = int(p)
                if N % p and Fraction(ap) ** 2 > 4 * p ** (k - 1):
                    problems.append("a_%d = %s breaks the Ramanujan bound" % (p, ap))
        coeff_blocks = [b["coefficients"] for b in out["blocks"] if b["coefficients"]]
        if (N, k) == (11, 2):
            for coeffs in coeff_blocks:
                for p in range(2, len(coeffs) + 1):
                    if p != 11 and _primes_of(p) == {p}:
                        ap = p + 1 - self.oracles.elliptic_point_count_x0_11(p)
                        if Fraction(coeffs[p - 1]) != ap:
                            problems.append("a_%d differs from the point count" % p)
        if (N, k) == (1, 12):
            for coeffs in coeff_blocks:
                tau = self.oracles.ramanujan_tau(len(coeffs))[1:]
                if [int(c) for c in coeffs] != tau:
                    problems.append("level 1 weight 12 is not Ramanujan's tau")
        return problems

    def _check_hecke(self, q, out):
        problems = []
        full = [Fraction(c) for c in out["charpoly"]]
        cusp = [Fraction(c) for c in out["cuspidal_charpoly"]]
        if len(full) - 1 != len(out["matrix"]):
            problems.append("charpoly degree is not the matrix size")
        quotient, remainder = _poly_divmod(full, cusp)
        if any(remainder):
            problems.append("cuspidal charpoly does not divide the full one")
            return problems
        N, p, k = int(q["group"].partition(":")[2]), int(q["op"][3:]), q["weight"]
        if q["group"].startswith("gamma0") and N % p and _primes_of(N) == {N}:
            # Eisenstein eigenvalue 1 + p^(k-1) on every series at prime level
            eis = _poly_pow([-(1 + p ** (k - 1)), Fraction(1)], len(quotient) - 1)
            if quotient != eis:
                problems.append("Eisenstein part of T_%d is not (x - 1 - p^(k-1))^e" % p)
        return problems

    def _check_mayer_vietoris(self, q, out):
        problems = []
        if not (out["exact"] and out["compositions_vanish"]):
            problems.append("six-term sequence not exact")
        if out["euler_sum"] != 0:
            problems.append("six-term Euler sum %d" % out["euler_sum"])
        return problems

    # -- across one pass ---------------------------------------------------

    def check_pass(self, answers):
        """Cross-ring checks between answers of the same pass.
        `answers` maps query -> payload; returns query -> problems."""
        problems = {}
        for query, payload in answers.items():
            q = parse_query(query)
            if q["cmd"] != "dims" or not q["ring"].startswith("fp:") or payload is None:
                continue
            partner = answers.get(query.replace("--ring " + q["ring"], "--ring lambda"))
            if partner is not None and payload["dims"]["manin"] < partner["dims"]["manin"]:
                problems[query] = ["F_p symbol dimension below the lambda dimension"]
        return problems


def _poly_divmod(num, den):
    """Division of polynomials, coefficients low -> high, den monic."""
    num = list(num)
    dq = len(den) - 1
    if len(num) - 1 < dq:
        return [], num
    quot = [Fraction(0)] * (len(num) - dq)
    for i in range(len(num) - 1, dq - 1, -1):
        c = num[i]
        quot[i - dq] = c
        for j in range(dq + 1):
            num[i - dq + j] -= c * den[j]
    return quot, num[:dq]


def _poly_pow(f, e):
    out = [Fraction(1)]
    for _ in range(e):
        nxt = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                nxt[i + j] += a * b
        out = nxt
    return out
