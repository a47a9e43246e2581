"""The survey scripts in scripts/ run end to end against the package."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_dimension_table_runs():
    proc = run_script("dimension_table.py", "--max-level", "8", "--weights", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 9  # header plus levels 1..8


TORSION_SURVEY_LEVEL_12 = """\
gamma0:1     k=2  rank  0   manin -          group -          surface -
gamma0:1     k=4  rank  1   manin -          group 2          surface -
gamma0:2     k=2  rank  1   manin -          group -          surface -
gamma0:2     k=4  rank  2   manin 4          group 2,4        surface 4
gamma0:3     k=2  rank  1   manin -          group -          surface -
gamma0:3     k=4  rank  2   manin 6          group 6          surface 6
gamma0:4     k=2  rank  2   manin -          group -          surface -
gamma0:4     k=4  rank  3   manin 2,8        group 2,8        surface 2,8
gamma0:5     k=2  rank  1   manin 2          group -          surface -
gamma0:5     k=4  rank  4   manin -          group 2          surface -
gamma0:6     k=2  rank  3   manin -          group -          surface -
gamma0:6     k=4  rank  6   manin 2,12       group 2,12       surface 2,12
gamma0:7     k=2  rank  1   manin 3          group -          surface -
gamma0:7     k=4  rank  4   manin 2          group 2          surface 2
gamma0:8     k=2  rank  3   manin -          group -          surface -
gamma0:8     k=4  rank  6   manin 2,8        group 2,8        surface 2,8
gamma0:9     k=2  rank  3   manin -          group -          surface -
gamma0:9     k=4  rank  6   manin 6          group 6          surface 6
gamma0:10    k=2  rank  3   manin 2          group -          surface -
gamma0:10    k=4  rank 10   manin 4          group 2,4        surface 4
gamma0:11    k=2  rank  3   manin -          group -          surface -
gamma0:11    k=4  rank  6   manin 2          group 2          surface 2
gamma0:12    k=2  rank  5   manin -          group -          surface -
gamma0:12    k=4  rank 12   manin 2,24       group 2,24       surface 2,24
"""


def test_torsion_survey_reproduces_the_recorded_table():
    # every column at every level <= 12, the group column being H^1 over Z
    proc = run_script("torsion_survey.py", "--max-level", "12", "--weights", "2", "4")
    assert proc.returncode == 0, proc.stderr
    assert [line.rstrip() for line in proc.stdout.splitlines()] == TORSION_SURVEY_LEVEL_12.splitlines()


def test_torsion_survey_shows_the_n4_anomaly():
    proc = run_script("torsion_survey.py", "--triangle")
    assert proc.returncode == 0, proc.stderr
    row = next(line for line in proc.stdout.splitlines() if "n=4" in line)
    assert row.split("manin")[1].split()[0] == "2"


def test_hecke_digests_reproduce_the_recorded_run():
    # the entry point on one space of each ring, Q, F_p, Z and
    # Q(2cos(pi/n)); tests/test_hecke.py checks all of them in-process
    names = ["gamma0-11-k2", "gamma0-47-k2-fp7", "gamma0-11-k2-z", "delta4-k4-lambda"]
    proc = run_script("hecke_digests.py", *names)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "data", "hecke_digests.json")) as fh:
        recorded = json.load(fh)
    assert json.loads(proc.stdout) == {name: recorded[name] for name in names}
    assert run_script("hecke_digests.py", "gamma0-0-k2").returncode == 2
