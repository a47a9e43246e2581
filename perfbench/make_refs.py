"""Regenerate the benchmark's fixed data: the subgroup pool and the
reference answers.

    python3 perfbench/make_refs.py [--retime]

Run from the repository root. data/subgroups.json is generated once (it
is left alone when present); data/refs.json gets the canonical JSON answer
of every candidate query that lacks one, computed with the heckesym in
src/, and drops entries that no workload uses any more. References are
meant to come from one fixed commit, so rerun this only to add candidates.
Each entry also records the query's time in reference seconds (see run.py),
which orders the candidates of a pool; --retime measures it again for every
entry, checking the answer against the stored one. Retiming can move
candidates between windows, so it changes the benchmark. Times are printed,
tab-separated. Queries on the hanging Z list are skipped: they have no
answer.
"""

import gc
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SUBGROUPS = os.path.join(workloads.DATA, "subgroups.json")
REFS = os.path.join(workloads.DATA, "refs.json")
POOL_SEED = 20051113
DEADLINE_S = 120.0


def generate_subgroups(prog):
    """Two transitive permutation pairs for each n in 4, 5, 6 and each
    index 8..20, drawn with the random generators of tests/oracles.py, plus
    the one-coset groups of tests/data."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles

    rng = random.Random(POOL_SEED)
    out = {}
    for name, filename in zip(workloads.ONE_COSET, ("delta4-self.json", "delta5.json")):
        with open(os.path.join(ROOT, "tests", "data", filename)) as fh:
            out[name] = json.load(fh)
    for n in (4, 5, 6):
        for mu in range(8, 21):
            seen = set()
            while len(seen) < 2:
                s = oracles.random_involution(mu, rng)
                t = oracles.random_order_n_perm(n, mu, rng)
                try:
                    prog.triangle.TriangleSubgroup(n, s, t)
                except prog.triangle.InvalidSubgroupError:
                    continue
                if (s, t) in seen:
                    continue
                seen.add((s, t))
                name = "n%d-mu%02d-%s" % (n, mu, "ab"[len(seen) - 1])
                out[name] = {"n": n, "s": list(s), "t": list(t)}
    return out


def write_lines(path, mapping):
    """A JSON object with one entry per line, so diffs stay readable."""
    lines = ["%s: %s" % (json.dumps(key), workloads.canonical(value))
             for key, value in mapping.items()]
    with open(path, "w") as fh:
        fh.write("{" + ",\n".join(lines) + "}\n")


def main():
    prog = workloads.load_program(ROOT)
    if not os.path.exists(SUBGROUPS):
        os.makedirs(workloads.DATA, exist_ok=True)
        pool = generate_subgroups(prog)
        write_lines(SUBGROUPS, {name: pool[name] for name in sorted(pool)})
    subgroups = workloads.load_subgroups()
    refs = {}
    if os.path.exists(REFS):
        with open(REFS) as fh:
            refs = json.load(fh)
    wanted = workloads.all_candidates(subgroups)
    hanging = set(workloads.hanging_queries())
    tmpdir = os.path.join(ROOT, ".perfbench-refs")
    os.makedirs(tmpdir, exist_ok=True)
    execute = workloads.Executor(prog, subgroups, tmpdir)
    retime = "--retime" in sys.argv[1:]
    try:
        for query in sorted(wanted):
            if query in hanging or (query in refs and not retime):
                continue
            gc.collect()
            before = run.calibration_s()
            t0 = time.perf_counter()
            try:
                code, payload, _ = workloads.call_with_deadline(execute, query, DEADLINE_S)
            except workloads.DeadlineExceeded:
                print("%.3f\t%s\tDEADLINE" % (time.perf_counter() - t0, query), flush=True)
                continue
            raw = time.perf_counter() - t0
            seconds = raw * 2 * run.CAL_REF_S / (before + run.calibration_s())
            print("%.4f\t%s\texit %d" % (seconds, query, code), flush=True)
            entry = {"exit": code, "output": payload, "seconds": round(seconds, 4)}
            old = refs.get(query)
            if old is not None and (old["exit"], workloads.canonical(old["output"])) != (
                    code, workloads.canonical(payload)):
                raise SystemExit("answer changed for %r; references come from one commit" % query)
            refs[query] = entry
    finally:
        for name in os.listdir(tmpdir):
            os.remove(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)
    refs = {q: refs[q] for q in sorted(refs) if q in wanted}
    write_lines(REFS, refs)


if __name__ == "__main__":
    main()
