"""Command line interface: golden outputs, exit codes, file handling.

Runs the entry point in-process and parses its JSON output, so these are
end-to-end checks of the wiring from argument strings to rendered values.
"""

import json
import os
import subprocess
import sys
import time

import pytest
import sympy

import heckesym.cli as cli
import oracles
from heckesym import hecke, linalg
from heckesym.congruence import gamma0_cosets
from heckesym.linalg import Matrix
from heckesym.modsym import InducedModule, weight_module_for
from heckesym.rings import GF

DATA = os.path.join(os.path.dirname(__file__), "data")
DELTA5 = os.path.join(DATA, "delta5.json")
DELTA4 = os.path.join(DATA, "delta4-self.json")


def run_json(capsys, *argv):
    code = cli.main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


def test_dims_gamma0_11(capsys):
    doc = run_json(capsys, "dims", "--group", "gamma0:11")
    assert doc["schema_version"] == "1"
    assert doc["dims"] == {
        "manin": 3,
        "cuspidal": 2,
        "eisenstein": 1,
        "boundary": 2,
        "h1": 3,
        "h1_par": 2,
        "surface_h1": 3,
        "surface_h1_par": 2,
    }
    assert doc["genus"] == 1 and doc["cusps"] == 2 and doc["elliptic"] == 0
    assert doc["torsion"] == []


def test_dims_perm_file_lambda_ring(capsys):
    doc = run_json(capsys, "dims", "--group", "perm-file:" + DELTA5, "--ring", "lambda")
    assert doc["group"] == "perm(n=5, mu=1)"
    assert doc["dims"]["manin"] == 0  # weight 2, no symbols at level one for n=5
    assert doc["dims"]["h1"] == 0
    assert doc["cusps"] == 1 and doc["elliptic"] == 2


def test_dims_mod_p_at_least_rational(capsys):
    rat = run_json(capsys, "dims", "--group", "gamma0:11")
    mod2 = run_json(capsys, "dims", "--group", "gamma0:11", "--ring", "fp:2")
    for key, value in rat["dims"].items():
        assert mod2["dims"][key] >= value


def test_dims_integer_ring_torsion(capsys):
    doc = run_json(capsys, "dims", "--group", "perm-file:" + DELTA4, "--ring", "z")
    assert doc["dims"]["manin"] == 0
    assert doc["torsion"] == ["2"]


def test_dims_integer_ring_weight_4_answers_from_ranks(capsys):
    # the kernel computation this once ran over Z did not finish in minutes
    start = time.perf_counter()
    doc = run_json(capsys, "dims", "--group", "gamma0:15", "--weight", "4", "--ring", "z")
    assert time.perf_counter() - start < 10
    assert doc["dims"]["cuspidal"] == 8 == 2 * oracles.classical_cusp_form_dimension(15, 4)
    assert doc["torsion"] == ["6"]


def _timed_subprocess(argv, timeout=None):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heckesym", *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("command", ["dims", "compare"])
def test_weight_2_perm_file_with_large_n_builds_no_lambda(command, tmp_path):
    # Z[lambda] for n = 8000 costs seconds (its minimal polynomial is
    # quadratic in n), and weight 2 never reads it: both commands took
    # 3.0-4.2 s with the ring built eagerly, and 0.4-0.6 s without it
    path = tmp_path / "one-coset-8000.json"
    path.write_text(json.dumps({"n": 8000, "s": [0], "t": [0]}))
    proc, elapsed = _timed_subprocess([command, "--group", "perm-file:%s" % path,
                                       "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0
    doc = json.loads(proc.stdout)
    if command == "dims":
        assert doc["dims"]["manin"] == 0 and doc["dims"]["boundary"] == 1
        assert doc["cusps"] == 1 and doc["elliptic"] == 2 and doc["genus"] == 0
    else:
        assert doc["verdict"] == "isomorphic" and doc["kernel"] == {"dim": 0}
        assert doc["local_terms"] == [{"dim": 0}, {"dim": 0}]


def test_a_norm_stops_at_the_first_identity_power(tmp_path):
    # tau fixes both cosets, so it acts as 1 in weight 2 and its norm over
    # F_5 is n times the identity; composing all n = 10^9 letter powers was
    # killed at 10 s
    docs = []
    for n in (1000000000, 10):
        path = tmp_path / ("n%d.json" % n)
        path.write_text(json.dumps({"n": n, "s": [1, 0], "t": [0, 1]}))
        proc, elapsed = _timed_subprocess(["dims", "--group", "perm-file:%s" % path,
                                           "--ring", "fp:5", "--format", "json"], timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 2.0, n
        docs.append(json.loads(proc.stdout))
        docs[-1].pop("group")
    assert docs[0] == docs[1]


@pytest.mark.parametrize("ring,message", [
    ("q", "ring rationals does not contain lambda for n=100000"),
    ("z", "ring integers does not contain lambda for n=100000"),
    ("fp:3", "the minimal polynomial of lambda for n=100000 has no root mod 3; "
             "use --ring lambda or a prime where it splits"),
])
def test_a_ring_without_lambda_is_refused_before_z_lambda_is_built(tmp_path, ring, message):
    # weight 4 needs lambda = 2cos(pi/n) in the ring; the query used to build
    # lambda's minimal polynomial for the cocycles first, 1.2-1.5 s at
    # n = 4000 and quadratic in n, before the ring was refused
    path = tmp_path / "n100000.json"
    path.write_text(json.dumps({"n": 100000, "s": [1, 0], "t": [0, 1]}))
    proc, elapsed = _timed_subprocess(["dims", "--group", "perm-file:%s" % path,
                                       "--weight", "4", "--ring", ring], timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip() == "unsupported: " + message
    assert elapsed < 2.0


# Runs the command in argv[1:] and writes its exit code, its wall time and
# its max RSS (RUSAGE_CHILDREN, in kilobytes) to stderr. A small interpreter
# runs it, since a child's max RSS counts the memory of the process it was
# forked from, and this one holds the whole test session.
_MEASURE = (
    "import resource, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "code = subprocess.call(sys.argv[1:])\n"
    "elapsed = time.perf_counter() - start\n"
    "maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "sys.stderr.write('%d %r %d\\n' % (code, elapsed, maxrss))\n"
)


def test_a_large_level_takes_time_and_memory_linear_in_the_index():
    # the coset table of gamma0:2000 (index 3600) once walked all 4 million
    # pairs (c, d) mod N: 7-9 s and 659 MB; the JSON is that run's output
    proc = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m", "heckesym",
                           "dims", "--group", "gamma0:2000", "--format", "json"],
                          capture_output=True, text=True)
    *err, last = proc.stderr.splitlines()
    code, elapsed, maxrss = last.split()
    assert code == "0", err
    with open(os.path.join(DATA, "dims_gamma0_2000.json")) as fh:
        assert json.loads(proc.stdout) == json.load(fh)
    assert float(elapsed) < 3.0
    assert int(maxrss) < 150 * 1024


@pytest.mark.parametrize("argv,name,seconds,megabytes", [
    (["--group", "gamma0:11", "--weight", "50"], "dims_gamma0_11_k50.json", 6.0, None),
    (["--group", "gamma0:100", "--weight", "12"], "dims_gamma0_100_k12.json", 3.0, None),
    (["--group", "gamma1:400"], "dims_gamma1_400.json", 4.0, 150),
], ids=["gamma0-11-k50", "gamma0-100-k12", "gamma1-400"])
def test_dims_of_a_large_module_comes_from_local_terms(argv, name, seconds, megabytes):
    # nine ranks of the whole module took 49.7 s, 8.2 s and 14.0 s (418 MB)
    # here; each JSON file is that code's output
    proc = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, "-m", "heckesym",
                           "dims", *argv, "--format", "json"], capture_output=True, text=True)
    *err, last = proc.stderr.splitlines()
    code, elapsed, maxrss = last.split()
    assert code == "0", err
    with open(os.path.join(DATA, name)) as fh:
        assert proc.stdout == fh.read()
    assert float(elapsed) < seconds
    if megabytes is not None:
        assert int(maxrss) < megabytes * 1024


def test_dims_at_weight_100_multiplies_cocycles_not_blocks():
    # walking the orbits, checking the generator orders and composing T by
    # d x d block products took 4.6-6.4 s on a 2-core VM; the JSON file is
    # that code's output
    proc, elapsed = _timed_subprocess(["dims", "--group", "gamma0:11", "--weight", "100",
                                       "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(DATA, "dims_gamma0_11_k100.json")) as fh:
        assert proc.stdout == fh.read()
    assert elapsed < 2.0


@pytest.mark.parametrize("group,op,name,seconds", [
    ("gamma0:11", "tp:10007", "hecke_gamma0_11_tp10007.json", 1.8),
    ("gamma1:13", "tp:1009", "hecke_gamma1_13_tp1009.json", 1.0),
], ids=["gamma0-11-tp10007", "gamma1-13-tp1009"])
def test_hecke_at_a_large_prime(group, op, name, seconds):
    # cutting p + 1 translated paths per coset by continued fractions took
    # 2.0-2.9 s and 1.3-1.5 s on a 2-core VM, the Heilbronn matrices
    # 0.5-1.0 s and 0.24-0.36 s; each JSON file is the path-cutting code's
    # output
    proc, elapsed = _timed_subprocess(["hecke", "--group", group, "--op", op, "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(DATA, name)) as fh:
        assert proc.stdout == fh.read()
    assert elapsed < seconds


@pytest.mark.parametrize("argv,name,seconds", [
    (["--group", "gamma0:37", "--bound", "200"], "qexp_gamma0_37_bound200.json", 2.0),
    (["--group", "gamma0:30", "--weight", "6"], "qexp_gamma0_30_k6.json", 4.0),
], ids=["gamma0-37-bound200", "gamma0-30-k6"])
def test_qexp_reads_later_primes_on_hecke_fields(argv, name, seconds):
    # 45 and 11 primes after the first: restricting each T_p to the
    # cuspidal symbols and to every block took 0.67-0.72 s and 2.5-2.9 s
    # as subprocesses on a 2-core VM, reading it on the Hecke fields
    # 0.57-0.64 s and 1.95-2.47 s; each JSON file is the restricting
    # code's output
    proc, elapsed = _timed_subprocess(["qexp", *argv, "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(DATA, name)) as fh:
        assert proc.stdout == fh.read()
    assert elapsed < seconds


def _refuse(*args, **kwargs):
    raise AssertionError("an operator of the whole module")


@pytest.mark.parametrize("ring", ["q", "fp:5", "lambda", "fp:2", "fp:3"])
def test_dims_over_a_field_builds_no_manin_pivot_form(capsys, monkeypatch, ring):
    # gamma0:13 has elliptic points of orders 2 and 3, so F_2 and F_3 take
    # the two-rank fallback, by forward elimination; elsewhere the local
    # terms assemble no operator of the whole module
    pivot_form = linalg._PivotForm
    monkeypatch.setattr(linalg, "_PivotForm", lambda ar, mat, **kw: pivot_form(ar, mat, **kw)
                        if mat.ncols < 70 else _refuse())  # 14 cosets, 5 coordinates each
    if ring in ("q", "fp:5", "lambda"):
        monkeypatch.setattr(InducedModule, "_assemble", _refuse)
    doc = run_json(capsys, "dims", "--group", "gamma0:13", "--weight", "6", "--ring", ring)
    if ring == "q":
        assert doc["dims"]["cuspidal"] == 2 * oracles.classical_cusp_form_dimension(13, 6)
    elif ring in ("fp:2", "fp:3"):
        cosets = gamma0_cosets(13)
        weight = weight_module_for(cosets, GF(int(ring[3:])), 6)
        assert doc["dims"] == oracles.rank_dimensions(cosets, weight)


def test_a_broken_local_invariant_exits_4(capsys, monkeypatch):
    # T acting as the identity makes every boundary class Eisenstein: at
    # level one and weight 4, three of them, more than the symbols hold.
    # The T blocks and orbits are read from T's cocycles, so those are broken
    init = InducedModule.__init__

    def corrupted(self, *args):
        init(self, *args)
        self._cache["CT"] = [(j, (1, 0, 0, 1)) for j, _c in self.twists("T")]

    monkeypatch.setattr(InducedModule, "__init__", corrupted)
    assert cli.main(["dims", "--group", "gamma0:1", "--weight", "4"]) == 4
    err = capsys.readouterr().err
    assert "dimension report: cuspidal >= 0 fails" in err
    assert "(group gamma0:1, weight 4, ring q)" in err


def test_large_prime_ring_answers_fast():
    # the roots of lambda's minimal polynomial mod p take time in log p:
    # trying every residue would run for about half an hour here
    proc, elapsed = _timed_subprocess(["dims", "--group", "perm-file:" + DELTA5, "--weight", "4",
                                       "--ring", "fp:1000000007", "--format", "json"])
    assert elapsed < 2.0
    assert proc.returncode == 3, proc.stderr
    assert "no root mod 1000000007" in proc.stderr


def test_importing_the_cli_leaves_sympy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, heckesym.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_qexp_gamma0_11(capsys):
    doc = run_json(capsys, "qexp", "--group", "gamma0:11", "--bound", "10")
    assert doc["bound"] == 10 and doc["sturm_bound"] == 3
    assert doc["cuspidal_dim"] == 2
    assert len(doc["blocks"]) == 1
    blk = doc["blocks"][0]
    assert blk["dim"] == 2 and blk["diagonal"] is True
    assert blk["coefficients"] == ["1", "-2", "-1", "2", "1", "2", "-2", "0", "-2", "-2"]
    assert blk["eigenvalues"]["2"] == "-2"


def test_qexp_default_bound_is_sturm(capsys):
    doc = run_json(capsys, "qexp", "--group", "gamma0:11")
    assert doc["bound"] == doc["sturm_bound"] == 3
    assert doc["blocks"][0]["coefficients"] == ["1", "-2", "-1"]


def test_hecke_gamma0_11(capsys):
    doc = run_json(capsys, "hecke", "--group", "gamma0:11", "--op", "tp:2")
    assert doc["operator"] == "tp:2"
    assert doc["cuspidal_charpoly"] == ["4", "4", "1"]  # (x + 2)^2
    assert len(doc["matrix"]) == 3
    # full charpoly = (x + 2)^2 (x - 3)
    assert doc["charpoly"] == ["-12", "-8", "1", "1"]


def test_hecke_diamond_gamma1(capsys):
    doc = run_json(capsys, "hecke", "--group", "gamma1:5", "--weight", "3",
                   "--op", "diamond:4")
    n = len(doc["matrix"])
    # 4 = -1 mod 5 acts as minus the identity in odd weight
    for i, row in enumerate(doc["matrix"]):
        assert row[i] == "-1"
        assert all(x == "0" for j, x in enumerate(row) if j != i)


def test_a_block_that_is_not_hecke_invariant_exits_4(capsys, monkeypatch):
    # gamma0:37: T_2 splits the cuspidal symbols into the blocks of 37a and
    # 37b, where T_3 acts as -3 and 1; a line through both is not invariant
    real = hecke._primary_parts

    def corrupted(ring, p, cmat, poly, basis, evs, facs, diag):
        parts = real(ring, p, cmat, poly, basis, evs, facs, diag)
        (a, evs2, facs2, diag2), (b, *_rest) = parts[:2]
        line = Matrix(ring, [[ring.add(x, y) for x, y in zip(a.rows[0], b.rows[0])]])
        return [(line, evs2, facs2, diag2)] + parts[1:]

    monkeypatch.setattr(hecke, "_primary_parts", corrupted)
    assert cli.main(["qexp", "--group", "gamma0:37"]) == 4
    err = capsys.readouterr().err
    assert "T_3 does not preserve an eigenblock of dimension 1" in err
    assert "(group gamma0:37, weight 2, ring q)" in err


def test_a_block_that_is_not_diamond_invariant_exits_4(capsys, monkeypatch):
    # gamma1:13: the diamond <2> has no rational eigenvector on the cuspidal
    # symbols, so no line is invariant under it
    real = hecke.eigensystem

    def one_line(space, primes, subspace=None):
        blk = real(space, primes, subspace)[0]
        line = Matrix(space.ring, [[space.ring.one] * blk.basis.ncols])
        return [hecke.EigenBlock(dim=1, basis=line, eigenvalues={p: space.ring.zero for p in primes},
                                 factors={}, diagonal=True)]

    monkeypatch.setattr(hecke, "eigensystem", one_line)
    assert cli.main(["qexp", "--group", "gamma1:13", "--bound", "2"]) == 4
    err = capsys.readouterr().err
    assert "diamond 2 does not preserve an eigenblock of dimension 1" in err
    assert "(group gamma1:13, weight 2, ring q)" in err


def test_a_wrong_entry_in_a_generator_row_at_a_later_prime_exits_4(capsys, monkeypatch):
    # gamma0:37: T_3 is read on the Hecke fields of the two T_2 blocks from
    # the Hecke rows at a few generators' supports; one entry of the first
    # of those rows is changed, each column in turn. A change that is zero
    # in the quotient leaves the answer as it was; any other is caught by
    # the membership test, or by the full restriction and its block checks
    real, three = hecke._operator_rows, hecke._heilbronn(3)
    assert cli.main(["qexp", "--group", "gamma0:37"]) == 0
    expected = capsys.readouterr().out
    space = cli._build_space(cli._build_parser().parse_args(["qexp", "--group", "gamma0:37"]))[2]
    ring, seen = space.ring, set()
    for col in range(space.module.rank):
        read = []

        def corrupted(sp, mats, rows):
            out = real(sp, mats, rows)
            if mats == three and not read:
                read.append(sorted(rows))
                out[min(rows)][col] = ring.add(out[min(rows)][col], ring.one)
            return out

        monkeypatch.setattr(hecke, "_operator_rows", corrupted)
        code = cli.main(["qexp", "--group", "gamma0:37"])
        out, err = capsys.readouterr()
        # the fast path asked for 3 of the 5 free generator rows
        assert len(read[0]) == 3
        unit = [ring.zero] * space.module.rank
        unit[col] = ring.one
        if not any(space.presentation.reduce(unit)):
            assert code == 0 and out == expected
            continue
        assert code == 4 and out == ""
        message = err.split(": ", 1)[1].split(" (group")[0]
        assert message in ("operator does not preserve the subspace",
                           "T_3 does not preserve an eigenblock of dimension 2")
        seen.add(message)
    assert len(seen) == 2


# gamma0:83: +1 at these columns of the T_3 row of ambient coordinate 65
# keeps S and every block invariant, yet changes the eigenvalues, and splits
# a block of S into pieces that are not two copies of one Hecke module
GAMMA0_83_SILENT_COLUMNS = (3, 5, 7, 8, 12, 24, 29, 30, 41, 42, 43, 44, 69, 72, 73, 78, 81, 82)


@pytest.mark.parametrize("col", GAMMA0_83_SILENT_COLUMNS)
def test_a_wrong_hecke_row_that_keeps_every_block_invariant_exits_4(capsys, monkeypatch, col):
    real, three = hecke._operator_rows, hecke._heilbronn(3)
    read = []

    def corrupted(sp, mats, rows):
        out = real(sp, mats, rows)
        if mats == three and 65 in out:
            read.append(sorted(rows))
            out[65][col] = sp.ring.add(out[65][col], sp.ring.one)
        return out

    monkeypatch.setattr(hecke, "_operator_rows", corrupted)
    assert cli.main(["qexp", "--group", "gamma0:83"]) == 4
    out, err = capsys.readouterr()
    assert read and out == ""
    assert "is not two copies of one" in err


def _sympy_charpoly(rows, p=None):
    """Charpoly coefficients, low -> high, of JSON matrix rows by sympy:
    over Q on Rationals, over F_p on the integer residues, reduced mod p."""
    x = sympy.Symbol("x")
    if not rows:
        return [1]
    coeffs = sympy.Matrix([[sympy.Rational(v) for v in r] for r in rows]).charpoly(x).all_coeffs()[::-1]
    return [sympy.Rational(c) if p is None else int(c) % p for c in coeffs]


HECKE_CHARPOLY_CASES = [
    ("gamma0:1", 2, "tp:2"),  # no symbols at all
    ("gamma0:2", 2, "tp:3"),  # no cuspidal symbols
    ("gamma0:11", 2, "tp:2"),
    ("gamma0:11", 4, "tp:3"),
    ("gamma0:12", 6, "tp:5"),
    ("gamma0:15", 4, "tp:2"),
    ("gamma0:23", 2, "tp:5"),
    ("gamma1:5", 3, "diamond:2"),
    ("gamma1:7", 3, "tp:2"),
    ("gamma1:7", 4, "diamond:3"),
    ("gamma1:8", 2, "tp:3"),
    ("gamma1:9", 5, "diamond:2"),
    ("gamma1:10", 6, "diamond:3"),
]


@pytest.mark.parametrize("group,k,op", HECKE_CHARPOLY_CASES)
def test_hecke_charpolys_match_sympy_and_reduce_across_rings(group, k, op, capsys):
    rational = run_json(capsys, "hecke", "--group", group, "--weight", str(k), "--op", op)
    full = [sympy.Rational(c) for c in rational["charpoly"]]
    assert full == _sympy_charpoly(rational["matrix"])
    # the cuspidal charpoly divides the full one
    x = sympy.Symbol("x")
    cusp = sympy.Poly([sympy.Rational(c) for c in rational["cuspidal_charpoly"][::-1]], x)
    assert sympy.Poly(full[::-1], x).rem(cusp).is_zero
    reduced = 0
    for p in (5, 7, 11, 13):
        doc = run_json(capsys, "hecke", "--group", group, "--weight", str(k), "--op", op, "--ring", "fp:%d" % p)
        assert [int(c) for c in doc["charpoly"]] == _sympy_charpoly(doc["matrix"], p)
        # over F_p the symbols are those over Z reduced mod p, so where p
        # leaves the dimension alone they are free over Z localized at p
        if len(doc["matrix"]) == len(rational["matrix"]) and all(c.q % p for c in full):
            assert [int(c.p * pow(c.q, -1, p) % p) for c in full] == [int(c) for c in doc["charpoly"]]
            reduced += 1
    assert reduced >= 2


def test_compare_gamma0_11_rational(capsys):
    doc = run_json(capsys, "compare", "--group", "gamma0:11")
    assert doc["verdict"] == "isomorphic"
    assert doc["kernel"] == {"dim": 0}
    assert doc["local_span"] == 0


def test_compare_delta4_mod_2(capsys):
    doc = run_json(capsys, "compare", "--group", "perm-file:" + DELTA4, "--ring", "fp:2")
    assert doc["verdict"] == "kernel spanned by elliptic orbit sums"
    assert doc["kernel"] == {"dim": 1}
    assert doc["local_span"] == 1
    assert doc["local_terms"] == [{"dim": 1}, {"dim": 1}]


def test_compare_delta4_integers(capsys):
    doc = run_json(capsys, "compare", "--group", "perm-file:" + DELTA4, "--ring", "z")
    assert doc["verdict"] == "torsion kernel"
    assert doc["kernel"] == {"rank": 0, "invariants": ["2"]}
    assert doc["local_span"] is None


# ---------------------------------------------------------------------------
# formats and files
# ---------------------------------------------------------------------------


def test_human_format(capsys):
    code = cli.main(["dims", "--group", "gamma0:11"])
    assert code == 0
    out = capsys.readouterr().out
    assert "manin: 3" in out and "genus: 1" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dims.json"
    code = cli.main(["dims", "--group", "gamma0:11", "--format", "json",
                     "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["dims"]["manin"] == 3


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "nonexistent" / "dir" / "x.json"
    code = cli.main(["dims", "--group", "gamma0:11", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(target) in captured.err and "Traceback" not in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckesym", "dims", "--group", "gamma0:6",
         "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dims"]["manin"] == 3  # genus 0, four cusps: 2g + c - 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--group", "gamma0:0"],
        ["dims", "--group", "nonsense:11"],
        ["dims", "--group", "perm-file:/does/not/exist.json"],
        ["dims", "--group", "gamma0:11", "--ring", "fp:4"],
        ["dims", "--group", "gamma0:11", "--ring", "zz"],
        ["dims", "--group", "gamma0:11", "--weight", "1"],
        ["hecke", "--group", "gamma0:11", "--op", "tp:6"],
        ["hecke", "--group", "gamma0:11", "--op", "frobenius:2"],
        ["qexp", "--group", "gamma0:11", "--bound", "0"],
        ["hecke", "--group", "gamma0:11"],  # missing --op
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["qexp", "--group", "gamma0:11", "--ring", "z"],
        ["hecke", "--group", "gamma0:11", "--ring", "z", "--op", "tp:2"],
        ["qexp", "--group", "perm-file:" + DELTA5, "--ring", "lambda"],
        ["dims", "--group", "gamma0:11", "--weight", "3"],  # -1 in the group
        # weight 4 needs lambda for n=5, and x^2 - x - 1 has no root mod 2
        ["dims", "--group", "perm-file:" + DELTA5, "--ring", "fp:2", "--weight", "4"],
    ],
)
def test_unsupported_exit_3(argv, capsys):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "unsupported" in err
    if "fp:2" in argv:
        # the message names the rings the CLI can build
        assert "no root mod 2" in err and "--ring lambda" in err and "where it splits" in err


@pytest.mark.parametrize(
    "argv",
    [
        # over Z the cuspidal kernel at this level and weight does not finish
        ["qexp", "--group", "gamma0:15", "--weight", "4", "--ring", "z"],
        ["qexp", "--group", "perm-file:" + DELTA5, "--ring", "lambda"],
    ],
)
def test_qexp_refuses_before_building_the_cuspidal_subspace(argv, monkeypatch, capsys):
    from heckesym import hecke

    def boom(space):
        raise AssertionError("cuspidal subspace built before the refusal")

    monkeypatch.setattr(cli, "cuspidal_subspace", boom)
    monkeypatch.setattr(hecke, "cuspidal_subspace", boom)
    assert cli.main(argv) == 3
    assert "unsupported" in capsys.readouterr().err


def test_one_parser_serves_a_usage_error_and_then_a_valid_call(monkeypatch, capsys):
    cli.main(["dims", "--group", "gamma0:11"])  # the parser exists from here on
    capsys.readouterr()
    built = []
    monkeypatch.setattr(cli.argparse, "ArgumentParser", lambda *a, **k: built.append(a))
    with pytest.raises(SystemExit) as info:
        cli.main(["hecke", "--group", "gamma0:11", "--weight", "4", "--op", "tp:6"])
    assert info.value.code == 2
    capsys.readouterr()
    # nothing of the failed parse (its weight, its subcommand) carries over
    doc = run_json(capsys, "dims", "--group", "gamma0:11")
    assert doc["command"] == "dims" and doc["weight"] == 2
    assert doc["dims"]["cuspidal"] == 2
    assert built == []


def test_perm_file_with_a_bad_pair_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "s": [1, 2, 0], "t": [0, 1, 2]}))
    with pytest.raises(SystemExit) as info:
        cli.main(["dims", "--group", "perm-file:%s" % path])
    assert info.value.code == 2
    assert "bad permutation pair" in capsys.readouterr().err


def test_perm_file_with_a_fractional_signature_exits_2(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"n": 4.5, "s": [0], "t": [0]}))
    with pytest.raises(SystemExit) as info:
        cli.main(["dims", "--group", "perm-file:%s" % path])
    assert info.value.code == 2
    assert "bad permutation pair" in capsys.readouterr().err


def test_internal_invariant_exit_4(monkeypatch, capsys):
    from heckesym.linalg import InternalInvariantError

    def boom(space):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "comparison_report", boom)
    assert cli.main(["compare", "--group", "gamma0:11"]) == 4
    err = capsys.readouterr().err
    assert "internal invariant" in err and "synthetic failure" in err
    # the message names the input that broke the check
    assert "gamma0:11" in err and "weight 2" in err and "ring q" in err
    assert cli.main(["compare", "--group", "gamma0:11", "--weight", "4", "--ring", "fp:7"]) == 4
    err = capsys.readouterr().err
    assert "gamma0:11" in err and "weight 4" in err and "ring fp:7" in err


def test_smith_diagonal_mismatch_exits_4(monkeypatch, capsys):
    # the invariant factors read from the Hermite form must be the diagonal
    # of the full Smith form, checked when a Z module builds the latter
    # after them; here the cheap ones are forced wrong and the comparison
    # kernel asks for its generator rows, so the full form is built
    monkeypatch.setattr(linalg, "_hermite_invariants", lambda rows, m: [2] + [0] * (m - 1))
    report = cli.comparison_report

    def with_generator_rows(space):
        out = report(space)
        out.kernel.invariants()
        out.kernel.generator_ambient_rows()
        return out

    monkeypatch.setattr(cli, "comparison_report", with_generator_rows)
    assert cli.main(["compare", "--group", "gamma0:11", "--ring", "z"]) == 4
    err = capsys.readouterr().err
    assert "internal invariant" in err and "Smith diagonal check" in err
    assert "gamma0:11" in err and "ring z" in err
    monkeypatch.undo()
    assert cli.main(["compare", "--group", "gamma0:11", "--ring", "z", "--format", "json"]) == 0
