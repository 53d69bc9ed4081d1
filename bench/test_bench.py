"""Tests of the benchmark itself: metric names, seeding, tracing, outcome classes."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402

WZ = run.import_library()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rank_one",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank_one", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_query_list(workload):
    first = [q.label for q in workloads.make_queries(workload, 11, WZ)]
    again = [q.label for q in workloads.make_queries(workload, 11, WZ)]
    other = [q.label for q in workloads.make_queries(workload, 12, WZ)]
    assert first == again
    assert first != other


def test_every_seed_draws_from_the_recorded_grid():
    table = workloads.load_table()
    for seed in range(20):
        queries = workloads.make_queries("rank_one", seed, WZ)
        workloads.resolve_references(
            [q for q in queries if q.ref and q.ref[0] == "table"], table)


def test_traced_pass_is_bit_identical_to_untraced():
    queries = [q for q in workloads.make_queries("rank_one", 5, WZ)][:60]
    queries += workloads.make_queries("heat_kernel", 5, WZ)[:10]
    queries += [q for q in workloads.make_queries("lattice_zeta", 5, WZ)
                if q.label.startswith(("zeta_type_I(EIII", "zeta_type_II(SU:3, 0.7"))]
    refs = workloads.resolve_references(queries, workloads.load_table())
    for w in ("rank_one", "heat_kernel", "lattice_zeta"):
        workloads.warm(w, WZ)
    speed = run.HostSpeed()
    plain = run.run_pass_inprocess(queries, refs, WZ, speed)
    original = WZ["zeta"]._growing_box
    tracer = tracing.Tracer()
    tracer.install(WZ)
    try:
        assert WZ["zeta"]._growing_box is not original
        traced = run.run_pass_inprocess(queries, refs, WZ, speed)
    finally:
        tracer.uninstall()
    assert WZ["zeta"]._growing_box is original
    assert plain["fingerprints"] == traced["fingerprints"]
    assert "ok" in plain["outcomes"] and "expected_divergent" in plain["outcomes"]
    assert tracer.calls["genseries"] > 0 and tracer.calls["partition"] > 0
    assert tracer.calls["zeta"] > 0


def test_tracer_self_time_and_reentrancy():
    weights = WZ["weights"]
    tracer = tracing.Tracer()
    tracer.install(WZ)
    try:
        coords = weights._graded_box(3, 4)
    finally:
        tracer.uninstall()
    # the recursive calls inside are passed through: one span, one call
    assert tracer.calls["weights"] == 1
    assert tracer.counts["weights.coords"] == len(coords) == 125
    assert tracer.self_ns["weights"] == tracer.total_ns["weights"]
    assert len(tracer.spans) == 1 and tracer.spans[0][4] == 0


def _q(**kw) -> Query:
    return Query(label="q", tol=1e-8, **kw)


def test_classifier_covers_every_class():
    errors = WZ["errors"]
    result = WZ["zeta"].zeta_type_I("S:2", 2.0, 1e-10)
    exact = (math.pi ** 2 / 8, 0.0, "closed form")
    assert workloads.classify(_q(), None, result, exact, errors)[0] == "ok"
    assert workloads.classify(_q(diverges=True), errors.DivergenceError("x"), None,
                              None, errors)[0] == "expected_divergent"
    assert workloads.classify(_q(), errors.NotConverged("x"), None, exact,
                              errors)[0] == "not_converged"
    off = (math.pi ** 2 / 8 + 1e-6, 0.0, "closed form")
    assert workloads.classify(_q(), None, result, off, errors)[0] == "wrong"
    # a divergence verdict on a convergent series is a wrong answer
    assert workloads.classify(_q(), errors.DivergenceError("x"), None, exact,
                              errors)[0] == "wrong"
    assert workloads.classify(_q(), ZeroDivisionError("x"), None, exact,
                              errors)[0] == "error"
    assert workloads.judge(_q(), math.nan, 0.0, True, exact)[0] == "wrong"
    assert workloads.judge(_q(), 1.0, math.inf, False, exact)[0] == "not_converged"


def test_cli_classifier_covers_every_class():
    bad = _q(check="usage_error")
    assert workloads.classify_cli(bad, 2, "", "{\"error\": \"DomainError\"}",
                                  None)[0] == "ok"
    assert workloads.classify_cli(bad, 0, "{\"result\": {}}", "", None)[0] == "wrong"
    assert workloads.classify_cli(bad, -9, "", "Traceback", None)[0] == "error"
    good = _q(check="result")
    stdout = json.dumps({"result": {"value": 1.0, "tail_bound": 1e-9,
                                    "converged": True}})
    assert workloads.classify_cli(good, 0, stdout, "", (1.0, 0.0, "x"))[0] == "ok"
    assert workloads.classify_cli(good, 2, "", "{\"error\": \"NotConverged\"}",
                                  None)[0] == "not_converged"
    assert workloads.classify_cli(_q(check="result", diverges=True), 2, "",
                                  "{\"error\": \"DivergenceError\"}",
                                  None)[0] == "expected_divergent"
