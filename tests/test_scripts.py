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


def test_torsion_survey_shows_the_n4_anomaly():
    proc = run_script("torsion_survey.py", "--triangle")
    assert proc.returncode == 0, proc.stderr
    row = next(line for line in proc.stdout.splitlines() if "n=4" in line)
    assert row.split("manin")[1].split()[0] == "2"


def test_hecke_digests_reproduce_the_recorded_run():
    proc = run_script("hecke_digests.py", "gamma0-11-k2")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "data", "hecke_digests.json")) as fh:
        recorded = json.load(fh)
    assert json.loads(proc.stdout) == {"gamma0-11-k2": recorded["gamma0-11-k2"]}
    assert run_script("hecke_digests.py", "gamma0-0-k2").returncode == 2
