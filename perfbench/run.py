"""heckesym benchmark: oracle-checked CLI query workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --baseline-table

Run from the root of a checkout; heckesym is imported from its src/.

One process per workload runs a closed loop: one client, one query at a
time, each answered in-process by heckesym.cli.main(..., "--format",
"json"), the path a CLI user takes (the six-term sequence, which has no
subcommand, is called as cohomology.mayer_vietoris). The seed picks the
pass, a list of queries (see workloads.py). The pass is repeated while the
next repetition still fits in --seconds, at least once. Every answer is
checked (checks.py). A query fails when it raises, exits with an unexpected
code, fails a check, or runs past its workload's DEADLINE_S; a query past
the deadline is aborted and enters the latency figures at the deadline
value. Deadlines are in reference seconds, like every other time.

Times are in reference seconds. The speed of a shared 2-core VM changes by
up to a half, in phases of seconds to minutes, for every process alike;
the same query with the same call count took 1.57 to 2.01 s in one
process. So each query and each fresh start is bracketed by a short fixed
pure-Python loop (no heckesym code), and its wall time is scaled by
CAL_REF_S over the mean time of the two loops around it: the time it would
have taken while the loop runs at its reference speed. On such a VM this
cut the spread between runs several times over (on eigen_qexp, the
IQR/median of wall_s over ten seeds was 0.31 unscaled and 0.04 scaled).
The unscaled figures are printed as well, in the info line.

--trace 0 prints the end-to-end metrics:
  wall_s        median over passes of the summed query wall times of a pass
  query_p50_s   median latency of a query (each query: median over passes)
  query_tail_s  latency at the highest percentile with ten queries beyond it
                (both order statistics averaged over two ranks either side)
  setup_s       median time, over fresh interpreters, to import heckesym.cli
                and build its parser (the cost every CLI call pays first)
  peak_rss_mb   peak resident set size of the workload process
  ok_frac       queries that passed / queries attempted (1 - failed share)
--trace 1 runs one untraced pass and one traced pass (tracing.py) and prints
the per-layer metrics of the traced pass, plus trace.overhead_s, the traced
pass's wall time minus the untraced one's. Spans are written to
.perfbench-out/ in the checkout. The run exits with code 1 when a layer
function of tracing.TARGETS is no longer found in heckesym, since that
layer would read as zero.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when any answer was
wrong, or a query raised or exited unexpectedly; deadline misses count as
failed but not as wrong answers. The lines before it give the environment,
the tail percentile, failures and the number of queries without a stored
reference.

--workload all runs every workload in its own process, traced and untraced,
and prints one table. --baseline-table times the seven baseline CLI rows of
ROADMAP.md as full subprocesses, beside the values recorded there; it is
slow and not part of the repeated runs.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fixed for every commit compared: over twice the slowest legitimate query
# of the workload on a 2-core machine (2.3 s, and 0.84 s over Z). The
# hanging Z queries never finish; each integral_z pass pays 2 s for one.
DEADLINE_S = {"dims_sweep": 6.0, "eigen_qexp": 6.0, "integral_z": 2.0,
              "triangle_lambda": 6.0}
SETUP_STARTS = 5
# order statistics of a pass are averaged over this many ranks either side
SMOOTH_RANKS = 2
# the reference speed: the median time of calibration_s() inside benchmark
# runs on a 2-core x86-64 VM with Python 3.11.7
CAL_REF_S = 0.018
OUT_DIR = ".perfbench-out"

SETUP_CODE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import heckesym.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        heckesym.cli.main(['--help'])\n"
    "    except SystemExit:\n"
    "        pass\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)

BASELINE_ROWS = [
    ("dims --group gamma0:100", 2.5),
    ("dims --group gamma0:30 --weight 6", 10.9),
    ("dims --group gamma0:389", 14.5),
    ("qexp --group gamma0:37", 1.0),
    ("qexp --group gamma1:13", 1.6),
    ("hecke --group gamma0:11 --weight 12 --op tp:13", 9.2),
    ("compare --group perm-file:tests/data/delta4-self.json --ring fp:2", 0.76),
]


def calibration_s():
    """Wall time of a fixed loop of Fraction and int arithmetic, the kind of
    work heckesym does, independent of the code under test."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1800):
        acc += Fraction(i % 7 + 1, i)
    total = 0
    for i in range(80000):
        total += i * i % 7
    return time.perf_counter() - t0


def fresh_start_s():
    """Seconds from spawning an interpreter until heckesym.cli is imported
    and its parser built (the child reports readiness on stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("fresh interpreter could not import heckesym.cli")
    return elapsed


def measure_setup(starts):
    """(scaled, raw) median of fresh starts, each scaled by the loops
    around it."""
    fresh_start_s()  # writes bytecode caches; not counted
    scaled, raw = [], []
    before = calibration_s()
    for _ in range(starts):
        t = fresh_start_s()
        after = calibration_s()
        raw.append(t)
        scaled.append(t * 2 * CAL_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class PassResult:
    def __init__(self):
        self.latencies = []      # scaled to the reference speed
        self.raw_latencies = []  # as measured
        self.calibrations = []
        self.failures = []  # (query, reason)
        self.wrong = 0      # failures other than deadline misses
        self.no_reference = 0

    @property
    def wall_s(self):
        return sum(self.latencies)

    def add(self, raw, scaled, after):
        self.calibrations.append(after)
        self.raw_latencies.append(raw)
        self.latencies.append(scaled)


def run_pass(queries, execute, checker, deadline, tracer=None):
    """Run one pass of [(query, expected exit)] and check every answer.
    `deadline` is in reference seconds: the timer of each query is set
    from the calibration loop just before it, and a miss enters the
    latencies at exactly `deadline`."""
    res = PassResult()
    answers = {}
    gc.collect()
    before = calibration_s()
    for i, (query, expect) in enumerate(queries):
        if tracer is not None:
            tracer.qid = i
        missed, problems = False, None
        res.no_reference += query not in checker.refs
        t0 = time.perf_counter()
        try:
            code, payload, _err = workloads.call_with_deadline(
                execute, query, deadline * before / CAL_REF_S)
        except workloads.DeadlineExceeded:
            missed = True
        except Exception as exc:  # a crash in the program is a failed query
            problems = ["raised %s: %s" % (type(exc).__name__, exc)]
        raw = time.perf_counter() - t0
        gc.collect()
        after = calibration_s()
        if missed:
            res.add(raw, deadline, after)
            res.failures.append((query, "missed the %g s deadline" % deadline))
        else:
            res.add(raw, raw * 2 * CAL_REF_S / (before + after), after)
            if problems is None:
                problems = checker.check(query, expect, code, payload)
                if not problems:
                    answers[query] = payload
            if problems:
                res.failures.append((query, "; ".join(problems)))
                res.wrong += 1
        before = after
    for query, problems in checker.check_pass(answers).items():
        res.failures.append((query, "; ".join(problems)))
        res.wrong += 1
    return res


def at_rank(ordered, rank):
    """The sorted values at ranks rank-2 .. rank+2, averaged. A pass has
    only 25 to 60 queries and neighbouring ranks can lie 20% apart, so a
    single order statistic jumps whenever two queries near it swap places;
    the mean of its neighbourhood moves smoothly."""
    return statistics.mean(ordered[max(0, rank - SMOOTH_RANKS):rank + SMOOTH_RANKS + 1])


def smoothed_median(values):
    ordered = sorted(values)
    n = len(ordered)
    return statistics.mean(at_rank(ordered, r) for r in {(n - 1) // 2, n // 2})


def tail(values):
    """(latency, percentile) at the highest percentile that still has at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return at_rank(ordered, n - 11), 100.0 * (n - 10) / n


def end_to_end(passes, setup_s):
    per_query = [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]
    tail_s, tail_pct = tail(per_query)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "query_p50_s": (smoothed_median(per_query), "s"),
        "query_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    raw_query = [statistics.median(lat) for lat in zip(*(p.raw_latencies for p in passes))]
    extra = {
        "tail_percentile": tail_pct,
        "tail_samples": len(per_query),
        "raw_wall_s": statistics.median(sum(p.raw_latencies) for p in passes),
        "raw_query_p50_s": smoothed_median(raw_query),
        "raw_query_tail_s": tail(raw_query)[0],
        "calibration_median_s": statistics.median(c for p in passes for c in p.calibrations),
    }
    return metrics, extra


def environment():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "heckesym")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import sympy

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(args):
    try:
        prog = workloads.load_program(ROOT)
        oracles = checks.load_oracles(ROOT)
    except ImportError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    setup_s = setup_raw_s = None
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(2 if args.tiny else SETUP_STARTS)
    subgroups = workloads.load_subgroups()
    refs = checks.load_refs()
    checker = checks.Checker(refs, oracles, subgroups)
    costs = {q: r["seconds"] for q, r in refs.items()}
    queries = workloads.make_pass(args.workload, args.seed, subgroups, costs, args.tiny)
    deadline = DEADLINE_S[args.workload]
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "deadline_s": deadline, "queries_per_pass": len(queries),
            "cal_ref_s": CAL_REF_S, "raw_setup_s": setup_raw_s}
    info.update(environment())
    try:
        execute = workloads.Executor(prog, subgroups, tmpdir)
        warmup = workloads.make_pass(args.workload, args.seed, subgroups, costs, tiny=True)
        run_pass(warmup, execute, checker, deadline)
        passes = []
        if args.trace:
            untraced = run_pass(queries, execute, checker, deadline)
            tracer = tracing.Tracer()
            restore, missing = tracing.install(tracer, prog)
            if missing:
                # a moved layer would read as zero time: the targets need updating
                restore()
                print("perfbench: trace targets not found in heckesym: %s"
                      % ", ".join(missing), file=sys.stderr)
                return 1
            try:
                traced = run_pass(queries, execute, checker, deadline, tracer)
            finally:
                restore()
            passes = [untraced, traced]
            metrics = tracing.layer_metrics(tracer)
            overhead = traced.wall_s - untraced.wall_s
            metrics["trace.overhead_s"] = (overhead, "s")
            os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
            spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
            tracer.write(os.path.join(ROOT, spans))
            info.update({"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
                         "trace_overhead_s": overhead, "spans_file": spans,
                         "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
                         "targets_not_found": missing})
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(queries, execute, checker, deadline))
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > args.seconds:
                    break
            metrics, extra = end_to_end(passes, setup_s)
            info.update(extra)
            info["trace_overhead_s"] = None  # measured by --trace 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    info.update({"passes": len(passes), "no_reference": sum(p.no_reference for p in passes),
                 "failures": failures[:50]})
    print(json.dumps({"info": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%s %s: %.6g %s" % (args.workload, name, value, unit))
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a process of its own, untraced then traced."""
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[0])["info"]
            for name, m in result["metrics"].items():
                if trace == 0 or name == "trace.overhead_s":
                    table[workload][name] = m
            table[workload]["correct"] = table[workload].get("correct", True) and result["correct"]
            if trace == 0:
                table[workload]["tail_percentile"] = info["tail_percentile"]
    for workload, row in table.items():
        for name, m in row.items():
            if isinstance(m, dict):
                print("%-16s %-18s %12.6g %s" % (workload, name, m["value"], m["unit"]))
        print("%-16s %-18s %12s" % (workload, "correct", row["correct"]))
    print(json.dumps({"workloads": table}, sort_keys=True))
    return 0


def baseline_table():
    """The ROADMAP baseline rows as full CLI subprocesses, median of 3."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    print("%-70s %9s %9s %7s" % ("command", "now_s", "roadmap_s", "ratio"))
    for row, recorded in BASELINE_ROWS:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "heckesym"] + row.split()
                                  + ["--format", "json"], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print("%s: exit %d" % (row, proc.returncode), file=sys.stderr)
                return 1
        now = statistics.median(times)
        print("%-70s %9.3f %9.2f %7.2f" % (row, now, recorded, now / recorded))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap queries per workload, for the benchmark's own tests")
    parser.add_argument("--baseline-table", action="store_true")
    args = parser.parse_args(argv)
    if args.baseline_table:
        return baseline_table()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
