"""Workload definitions and query execution for the heckesym benchmark.

A workload is a list of pools of candidate queries. Each pool is cut into
windows of candidates of similar cost (the reference time stored with each
answer in data/refs.json); a seed picks one candidate per window and
shuffles the order. The inputs change with the seed while the cost of a
pass hardly does. Every candidate has a stored reference answer (see
make_refs.py) except the queries that never finish on the integer path.
Pools marked tiny make up the warm-up before timing and the --tiny pass.

A query is a string in the CLI vocabulary. Two extensions:

* ``perm:NAME`` as a group names a subgroup of data/subgroups.json; the
  runner writes it to a permutation file and passes ``perm-file:PATH``.
* ``mayer_vietoris --group G --weight K --ring R`` calls
  ``heckesym.cohomology.mayer_vietoris`` on the symbol module, since the
  six-term sequence has no subcommand.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
import signal
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("dims_sweep", "eigen_qexp", "integral_z", "triangle_lambda")

# gamma0:N weight 4 over Z where the cuspidal kernel never returns on the
# seed commit (more than 15 s each): ROADMAP item 2, kept in on purpose.
Z_HANGING_LEVELS = (12, 14, 15, 16, 18, 20)
# the one-coset groups of tests/data: n = 4 carries the Z/2 witness
ONE_COSET = ("delta4", "delta5")
DELTA4 = "perm:delta4"
FP_TRIANGLE = 71  # 2cos(pi/n) splits mod 71 for n = 4, 5, 6
# candidates of one window differ in reference cost by at most this share
# of the middle one's, plus NEAR_S seconds, which matters only for the
# cheapest queries
NEAR = 0.05
NEAR_S = 0.002


@dataclasses.dataclass(frozen=True)
class Pool:
    """Candidates of one kind, sorted by the time their reference answer
    took. `windows` runs of `width` neighbours are spread evenly over that
    order, and a pass takes one candidate from every window, so the cost
    of a pass hardly moves with the seed. A candidate is a query or a tuple
    of queries that run together."""

    name: str
    candidates: tuple
    windows: int = 1
    width: int = 1
    exit_code: int = 0
    tiny: bool = False


def _query(cmd, group, weight=2, ring="q", extra=""):
    parts = [cmd, "--group", group]
    if weight != 2:
        parts += ["--weight", str(weight)]
    if ring != "q":
        parts += ["--ring", ring]
    if extra:
        parts.append(extra)
    return " ".join(parts)


def _queries(candidate):
    return candidate if isinstance(candidate, tuple) else (candidate,)


def gamma0_index(N):
    """Index of Gamma_0(N) in the modular group: N prod (1 + 1/p)."""
    out, m, p = N, N, 2
    while p * p <= m:
        if m % p == 0:
            out = out // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out = out // m * (m + 1)
    return out


def _levels(lo, hi, max_index=None):
    return [N for N in range(lo, hi + 1) if max_index is None or gamma0_index(N) <= max_index]


def load_subgroups():
    with open(os.path.join(DATA, "subgroups.json")) as fh:
        return json.load(fh)


def _pool_subgroups(subgroups, min_index=8, max_index=20):
    return [name for name in sorted(subgroups)
            if name not in ONE_COSET and min_index <= len(subgroups[name]["s"]) <= max_index]


def _pools_dims_sweep(subgroups):
    dims = lambda N, k=2, ring="q": _query("dims", "gamma0:%d" % N, k, ring)
    return [
        Pool("tiny", tuple(dims(N) for N in (11, 13, 17, 19)), width=4, tiny=True),
        Pool("k2", tuple(dims(N) for N in _levels(20, 150, max_index=180)), windows=6, width=2),
        Pool("k2_small", tuple(dims(N) for N in _levels(11, 60, max_index=72)), windows=7, width=3),
        Pool("k4", tuple(dims(N, 4) for N in _levels(11, 24)), windows=1, width=2),
        Pool("k6", tuple(dims(N, 6) for N in _levels(5, 15)), windows=1, width=5),
        Pool("gamma1", tuple(_query("dims", "gamma1:%d" % N) for N in range(11, 19)),
             windows=3, width=2),
        Pool("fp", tuple(dims(N, ring="fp:%d" % p) for N in _levels(20, 130, max_index=150)
                         for p in (2, 3, 5, 7)), windows=6, width=5),
    ]


def _pools_eigen_qexp(subgroups):
    qexp = lambda group, k=2, ring="q": _query("qexp", group, k, ring)
    hecke = lambda N, k, p: _query("hecke", "gamma0:%d" % N, k, extra="--op tp:%d" % p)
    return [
        Pool("anchor_11", (qexp("gamma0:11"),), tiny=True),
        Pool("tau", (qexp("gamma0:1", 12),)),
        Pool("cm_form", (qexp("gamma1:7", 3),)),
        Pool("k2", tuple(qexp("gamma0:%d" % N) for N in _levels(12, 100, max_index=84)),
             windows=9, width=2),
        Pool("gamma1", tuple(qexp("gamma1:%d" % N) for N in range(9, 17)), windows=1, width=3),
        Pool("gamma1_odd", tuple(qexp("gamma1:%d" % N, 3) for N in range(5, 11)), windows=2, width=3),
        Pool("level1", tuple(qexp("gamma0:1", k) for k in range(14, 26, 2)), windows=1, width=2),
        Pool("fp", tuple(qexp("gamma0:%d" % N, ring="fp:%d" % p)
                         for N in (23, 29, 31, 37, 41, 43, 47, 53) for p in (5, 7, 11, 13)),
             windows=4, width=4),
        Pool("hecke", tuple(hecke(N, k, p) for N in _levels(11, 23, max_index=24)
                            for k in (4, 6) for p in (2, 3, 5, 7)), windows=4, width=2),
        Pool("refuse", tuple(qexp("gamma0:%d" % N, 3) for N in (11, 13, 23))
             + tuple(qexp("perm:" + name) for name in _pool_subgroups(subgroups, max_index=10)),
             windows=2, width=4, exit_code=3),
    ]


def _pools_integral_z(subgroups):
    z = lambda cmd, N, k=2: _query(cmd, "gamma0:%d" % N, k, "z")
    perms = _pool_subgroups(subgroups)
    fast_k4 = (2, 3, 4, 5, 6, 7, 8, 9, 11, 13)
    return [
        Pool("delta4", ((_query("dims", DELTA4, ring="z"), _query("compare", DELTA4, ring="z")),),
             tiny=True),
        Pool("k2_dims", tuple(z("dims", N) for N in _levels(11, 50)), windows=14, width=2),
        Pool("k2_compare", tuple(z("compare", N) for N in _levels(11, 60)), windows=18, width=2),
        Pool("k4_dims", tuple(z("dims", N, 4) for N in fast_k4), windows=2, width=3),
        Pool("k4_compare", tuple(z("compare", N, 4) for N in fast_k4), windows=4, width=3),
        Pool("k4_hanging", hanging_queries(), width=len(Z_HANGING_LEVELS)),
        Pool("perm", tuple((_query("dims", "perm:" + s, ring="z"),
                            _query("compare", "perm:" + s, ring="z")) for s in perms),
             windows=8, width=3),
        Pool("refuse", tuple(_query("hecke", "gamma0:%d" % N, ring="z", extra="--op tp:2")
                             for N in (11, 13, 17)), width=3, exit_code=3),
    ]


def _pools_triangle_lambda(subgroups):
    g = lambda name: "perm:" + name
    fp = "fp:%d" % FP_TRIANGLE
    every = _pool_subgroups(subgroups)
    small = _pool_subgroups(subgroups, 8, 11)
    return [
        Pool("tiny", (tuple(_query(c, g("delta5"), 4, r) for c in ("dims", "compare", "mayer_vietoris")
                            for r in ("lambda", fp)),), tiny=True),
        # a dims pair over lambda and F_71 on one subgroup, for the cross-ring check
        Pool("lambda_dims", tuple((_query("dims", g(s), 4, "lambda"), _query("dims", g(s), 4, fp))
                                  for s in small), windows=2, width=4),
        Pool("lambda_compare", tuple(_query("compare", g(s), 4, "lambda") for s in small),
             windows=4, width=4),
        Pool("lambda_mv", tuple(_query("mayer_vietoris", g(s), 4, "lambda")
                                for s in _pool_subgroups(subgroups, 8, 10)),
             windows=2, width=3),
        Pool("fp2", tuple((_query("dims", g(s), 2, "fp:2"), _query("compare", g(s), 2, "fp:2"))
                          for s in every), windows=5, width=3),
        Pool("fp71", tuple((_query("compare", g(s), 4, fp), _query("mayer_vietoris", g(s), 4, fp))
                           for s in every), windows=5, width=3),
    ]


def pools_for(workload, subgroups):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    return globals()["_pools_" + workload](subgroups)


def hanging_queries():
    return tuple(_query("dims", "gamma0:%d" % N, 4, "z") for N in Z_HANGING_LEVELS)


def all_candidates(subgroups):
    """query -> expected exit code, for every candidate of every workload."""
    out = {}
    for workload in WORKLOADS:
        for pool in pools_for(workload, subgroups):
            for cand in pool.candidates:
                for q in _queries(cand):
                    out[q] = pool.exit_code
    return out


def windows(pool, costs):
    """The windows of the pool, cheapest first. A window keeps only the
    candidates whose cost is within NEAR of its middle one's, so that the
    seed changes the inputs but hardly the cost of a pass, its median or
    its tail."""
    cost = lambda c: sum(costs.get(q, 0.0) for q in _queries(c))
    ordered = sorted(pool.candidates, key=lambda c: (cost(c), _queries(c)))
    width = min(pool.width, len(ordered))
    span = len(ordered) - width
    starts = [span // 2] if pool.windows == 1 else [
        round(i * span / (pool.windows - 1)) for i in range(pool.windows)]
    out = []
    for i in starts:
        window = ordered[i:i + width]
        mid = cost(window[len(window) // 2])
        out.append([c for c in window if abs(cost(c) - mid) <= NEAR * mid + NEAR_S])
    return out


def make_pass(workload, seed, subgroups, costs, tiny=False):
    """The seeded query list of one pass: [(query, expected exit code)].
    `costs` maps a query to the time its reference answer took."""
    rng = random.Random("%s:%d" % (workload, seed))
    queries = []
    for pool in pools_for(workload, subgroups):
        if tiny and not pool.tiny:
            continue
        for window in windows(pool, costs):
            for q in _queries(rng.choice(window)):
                queries.append((q, pool.exit_code))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class Executor:
    """Runs queries in-process against an imported heckesym package.

    Permutation subgroups are written to files under `tmpdir` on first use,
    so the program sees exactly what a CLI user would pass it."""

    def __init__(self, heckesym_modules, subgroups, tmpdir):
        self.m = heckesym_modules
        self.subgroups = subgroups
        self.tmpdir = tmpdir
        self._paths = {}

    def _perm_path(self, name):
        path = self._paths.get(name)
        if path is None:
            path = os.path.join(self.tmpdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(self.subgroups[name], fh)
            self._paths[name] = path
        return path

    def argv(self, query):
        out = []
        for tok in query.split():
            if tok.startswith("perm:"):
                tok = "perm-file:" + self._perm_path(tok[len("perm:"):])
            out.append(tok)
        return out

    def __call__(self, query):
        """(exit code, parsed JSON output or None, stderr text)."""
        if query.startswith("mayer_vietoris "):
            return self._mayer_vietoris(query)
        argv = self.argv(query) + ["--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        payload = json.loads(text) if code == 0 and text.strip() else None
        return code, payload, err.getvalue()

    def _mayer_vietoris(self, query):
        toks = query.split()[1:]
        opts = dict(zip(toks[::2], toks[1::2]))
        name = opts["--group"][len("perm:"):]
        weight = int(opts.get("--weight", "2"))
        ring_spec = opts.get("--ring", "q")
        g = self.subgroups[name]
        m = self.m
        try:
            cosets = m.modsym.PermCosets(m.triangle.TriangleSubgroup(g["n"], g["s"], g["t"]))
            if ring_spec == "lambda":
                ring = m.triangle.rational_lambda_ring(g["n"])[0]
            elif ring_spec.startswith("fp:"):
                ring = m.rings.GF(int(ring_spec[3:]))
            else:
                ring = m.rings.QQ
            space = m.modsym.manin_space(cosets, m.modsym.weight_module_for(cosets, ring, weight))
            report = m.cohomology.mayer_vietoris(space.module)
        except m.rings.UnsupportedRingError as exc:
            return 3, None, str(exc)
        payload = dataclasses.asdict(report)
        payload["map_ranks"] = list(payload["map_ranks"])
        payload["euler_sum"] = report.euler_sum()
        return 0, payload, ""


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class DeadlineExceeded(BaseException):
    """Raised inside a query that runs past the deadline. A BaseException,
    so no handler in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, arg, seconds):
    """fn(arg), aborted with DeadlineExceeded after `seconds` of wall time.
    Uses the interval timer of this process: no thread, no child process."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_program(root):
    """Import heckesym from root/src, and only from there. Raises
    ImportError when the checkout holds no source tree."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "heckesym", "cli.py")):
        raise ImportError("no heckesym source tree under %s" % src)
    sys.path.insert(0, src)
    import importlib

    mods = {}
    for name in ("cli", "cohomology", "congruence", "hecke", "linalg", "modsym",
                 "rings", "triangle", "weights"):
        mods[name] = importlib.import_module("heckesym." + name)
    origin = os.path.realpath(mods["cli"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("heckesym was imported from %s, not from %s" % (origin, src))
    return types.SimpleNamespace(**mods)

