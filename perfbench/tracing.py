"""Layer spans for the traced benchmark run, recorded from outside src/.

install() wraps the public functions of each heckesym module (and two
private boundaries with no public entry point) in place, at every module
that imported them, because the package imports names directly. A wrapped
call opens a span: name, start, end, parent span and query id, kept in
memory and written out when the run ends. Self time is a span's duration
minus the time its direct child spans cover. Counter work (matrix sizes,
bit lengths) runs inside a child span named trace.counters, so it is kept
out of the self time of the layer it describes.

Nothing is wrapped unless install() is called; untraced runs execute the
program unmodified.
"""

import collections
import json
import sys
import time

perf_counter = time.perf_counter
# spans kept for the output file; self time and counts cover every span
MAX_SPANS = 200000


class Tracer:
    def __init__(self):
        self.stack = []  # [span id, name, start, time covered by children]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.qid = None
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.maxima = collections.Counter()

    def open(self, name):
        self.next_id += 1
        self.stack.append([self.next_id, name, perf_counter(), 0.0])

    def close(self):
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self.qid))
        else:
            self.dropped += 1

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, qid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")


def _span(tracer, name, fn, counter=None):
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                tracer.open("trace.counters")
                try:
                    counter(tracer, args, out)
                finally:
                    tracer.close()
            return out
        finally:
            tracer.close()

    wrapper.__wrapped__ = fn
    return wrapper


def _count(tracer, name, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _cache_misses(tracer, name, fn):
    """Counts calls that add an entry to the instance's _rep_cache."""
    counts = tracer.counts

    def wrapper(self, *args, **kwargs):
        cache = getattr(self, "_rep_cache", None)
        before = len(cache) if cache is not None else 0
        out = fn(self, *args, **kwargs)
        if cache is not None and len(cache) > before:
            counts[name] += 1
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _rref_counter(tracer, args, out):
    mat = args[0]
    zero = mat.ring.zero
    tracer.counts["linalg.rref.cells"] += mat.nrows * mat.ncols
    tracer.counts["linalg.rref.nnz"] += sum(len(row) - row.count(zero) for row in mat.rows)


def _hnf_counter(tracer, args, out):
    mats = out if isinstance(out, tuple) else (out,)
    bits = max(
        (max(map(abs, row), default=0).bit_length() for m in mats for row in m.rows),
        default=0,
    )
    if bits > tracer.maxima["linalg.hnf.max_bits"]:
        tracer.maxima["linalg.hnf.max_bits"] = bits


_FPMODULE = ("rank", "dim", "invariants", "torsion", "reduce", "is_zero_element",
             "coords_to_ambient", "generator_ambient_rows", "ncoords")

# (layer name, attribute path under heckesym, how to wrap, counter)
TARGETS = [
    ("cli.main", "cli.main", "span", None),
    ("modsym.manin_space", "modsym.manin_space", "span", None),
    ("modsym.dense", "modsym.InducedModule.norm_matrix", "span", None),
    ("modsym.dense", "modsym.InducedModule.right_difference", "span", None),
    ("modsym.dense", "modsym.InducedModule.right_operator", "span", None),
    ("modsym.cuspidal_subspace", "modsym.cuspidal_subspace", "span", None),
    ("linalg.rref", "linalg.rref", "span", _rref_counter),
    ("linalg.left_kernel", "linalg.left_kernel", "span", None),
    ("linalg.rowbasis", "linalg.RowBasis.__init__", "span", None),
    ("linalg.rowbasis", "linalg.RowBasis.express", "span", None),
    ("linalg.rowbasis", "linalg.RowBasis.contains", "span", None),
    ("linalg.hnf", "linalg.hermite_normal_form", "span", _hnf_counter),
    *[("linalg.fpmodule", "linalg.FPModule." + m, "span", None) for m in _FPMODULE],
    ("linalg.fpmap_kernel", "linalg.FPMap.kernel", "span", None),
    ("linalg.charpoly", "linalg.charpoly", "span", None),
    ("congruence.cosets", "congruence.gamma0_cosets", "span", None),
    ("congruence.cosets", "congruence.gamma1_cosets", "span", None),
    ("congruence.continued_fraction_path", "congruence.continued_fraction_path", "span", None),
    ("weights.action_matrix", "weights.WeightModule.action_matrix", "span", None),
    ("weights.action_matrix.misses", "weights.WeightModule._action_matrix", "count", None),
    ("hecke.hecke_matrix", "hecke.hecke_matrix", "span", None),
    ("hecke.restrict_operator", "hecke.restrict_operator", "span", None),
    ("hecke.eigensystem", "hecke.eigensystem", "span", None),
    ("hecke.qexpansions", "hecke.qexpansions", "span", None),
    ("hecke.factor", "hecke._factor_monic", "span", None),
    ("triangle.cocycle", "triangle.TriangleSubgroup.cocycle_matrix", "span", None),
    ("triangle.cocycle", "triangle.TriangleSubgroup.cocycle_word", "span", None),
    ("triangle.rep_matrices.misses", "triangle.TriangleSubgroup.rep_matrices", "misses", None),
    ("rings.extension.mul.calls", "rings.QuotientExtension.mul", "count", None),
    ("rings.extension.inv.calls", "rings.QuotientExtension.inv", "count", None),
    ("cohomology.dimensions", "cohomology.h1_dimension", "span", None),
    ("cohomology.dimensions", "cohomology.h1_parabolic_dimension", "span", None),
    ("cohomology.dimensions", "cohomology.surface_h1_dimension", "span", None),
    ("cohomology.dimensions", "cohomology.surface_h1_parabolic_dimension", "span", None),
    ("cohomology.comparison_report", "cohomology.comparison_report", "span", None),
    ("cohomology.mayer_vietoris", "cohomology.mayer_vietoris", "span", None),
]


def install(tracer, prog):
    """Wrap every target; returns (restore function, paths not found)."""
    patches, missing = [], []
    for name, path, how, counter in TARGETS:
        modname, *rest = path.split(".")
        mod = getattr(prog, modname)
        owner = mod if len(rest) == 1 else getattr(mod, rest[0], None)
        orig = vars(owner).get(rest[-1]) if owner is not None else None
        if not callable(orig):
            missing.append(path)
            continue
        if how == "span":
            wrapped = _span(tracer, name, orig, counter)
        elif how == "count":
            wrapped = _count(tracer, name, orig)
        else:
            wrapped = _cache_misses(tracer, name, orig)
        if owner is mod:
            # the package imports names directly: replace every binding
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "heckesym":
                    continue
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        else:
            patches.append((owner, rest[-1], orig))
            setattr(owner, rest[-1], wrapped)

    def restore():
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return restore, missing


SELF_TIME = [
    "cli.main", "modsym.manin_space", "modsym.dense", "modsym.cuspidal_subspace",
    "linalg.rref", "linalg.left_kernel", "linalg.rowbasis", "linalg.hnf",
    "linalg.fpmodule", "linalg.fpmap_kernel", "linalg.charpoly", "congruence.cosets",
    "congruence.continued_fraction_path", "weights.action_matrix",
    "hecke.hecke_matrix", "hecke.restrict_operator", "hecke.eigensystem",
    "hecke.qexpansions", "hecke.factor", "triangle.cocycle",
    "cohomology.dimensions", "cohomology.comparison_report", "cohomology.mayer_vietoris",
]
CALLS = [
    "linalg.rref", "linalg.hnf", "linalg.charpoly", "congruence.continued_fraction_path",
    "weights.action_matrix", "hecke.hecke_matrix", "triangle.cocycle",
]
COUNTS = [
    "linalg.rref.cells", "linalg.rref.nnz", "weights.action_matrix.misses",
    "triangle.rep_matrices.misses", "rings.extension.mul.calls", "rings.extension.inv.calls",
]


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    out = {}
    for name in SELF_TIME:
        out[name + ".self_s"] = (tracer.self_s[name], "s")
    for name in CALLS:
        out[name + ".calls"] = (tracer.calls[name], "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    out["linalg.hnf.max_bits"] = (tracer.maxima["linalg.hnf.max_bits"], "bits")
    calls = tracer.calls["weights.action_matrix"]
    misses = tracer.counts["weights.action_matrix.misses"]
    out["weights.action_matrix.hit_ratio"] = (1 - misses / calls if calls else 0.0, "ratio")
    return out
