"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The tiny mode must print every metric BENCHMARK.json names; a wrong
answer must be counted as a failure; a slow query must be aborted at the
deadline without stopping the pass; a layer function that is no longer
found must be reported, not read as zero.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_mode_emits_every_metric(workload, trace):
    info, result = _run_tiny(workload, trace)
    if trace:
        assert info["targets_not_found"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.fixture(scope="module")
def bench():
    prog = workloads.load_program(ROOT)
    subgroups = workloads.load_subgroups()
    checker = checks.Checker(checks.load_refs(), checks.load_oracles(ROOT), subgroups)
    return prog, subgroups, checker


QUERIES = [("dims --group gamma0:11", 0), ("qexp --group gamma0:11", 0),
           ("dims --group gamma0:23", 0)]


def test_planted_wrong_output_counts_as_failed(bench, tmp_path):
    prog, subgroups, checker = bench
    execute = workloads.Executor(prog, subgroups, str(tmp_path))

    def planted(query):
        code, payload, err = execute(query)
        if query == "qexp --group gamma0:11":
            payload["blocks"][0]["coefficients"][1] = "5"  # a_2 of the level-11 form is -2
        return code, payload, err

    res = run.run_pass(QUERIES, planted, checker, run.DEADLINE_S["dims_sweep"])
    assert [q for q, _ in res.failures] == ["qexp --group gamma0:11"]
    assert res.wrong == 1
    metrics, _ = run.end_to_end([res], setup_s=1.0)
    assert metrics["ok_frac"][0] == pytest.approx(2 / 3)


def test_planted_slow_query_is_aborted_at_the_deadline(bench, tmp_path):
    prog, subgroups, checker = bench
    execute = workloads.Executor(prog, subgroups, str(tmp_path))
    deadline = 0.3

    def planted(query):
        if query == "dims --group gamma0:23":
            time.sleep(30)
        return execute(query)

    slow_first = [QUERIES[2], QUERIES[0], QUERIES[1]]
    t0 = time.perf_counter()
    res = run.run_pass(slow_first, planted, checker, deadline)
    assert time.perf_counter() - t0 < 10
    assert res.latencies[0] == deadline
    assert len(res.latencies) == 3
    assert res.failures == [("dims --group gamma0:23", "missed the 0.3 s deadline")]
    assert res.wrong == 0
    metrics, _ = run.end_to_end([res], setup_s=1.0)
    assert metrics["ok_frac"][0] == pytest.approx(2 / 3)


def test_missing_trace_target_is_reported(bench, monkeypatch):
    prog = bench[0]
    bogus = ("hecke.gone", "hecke.no_such_function", "span", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [bogus])
    restore, missing = tracing.install(tracing.Tracer(), prog)
    restore()
    assert missing == ["hecke.no_such_function"]
