"""Benchmark of the wittenzeta library: one workload per run.

    python3 bench/run.py --workload rank_one --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5      # table of every workload

The untraced run (``--trace 0``) reports the end-to-end metrics named in
BENCHMARK.json; the traced run (``--trace 1``) reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record of
the run (metadata, host-speed probes, unscaled times, per-query outcomes)
is written to ``bench/_out/<workload>.json``; the spans of a traced run go
to ``bench/_out/<workload>.spans.jsonl``.

Query times are scaled to a reference host speed (see ``hostspeed.py``);
the unscaled times are in the run record.

Every workload is a closed loop with one caller: the next query starts when
the previous one has finished.  A pass runs the workload's query list once;
passes repeat until ``--seconds`` would be exceeded (always at least one).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SETUP_REPEATS = 7
CLI_TIMEOUT_S = 120.0
MODULES = ("cli", "dims", "errors", "genseries", "partition", "rootdata",
           "specfun", "weights", "zeta")


class BenchError(Exception):
    """The benchmark cannot run here (no library source, missing references)."""


def import_library() -> dict:
    """The wittenzeta modules, imported from this checkout's ``src``."""
    if not (SRC / "wittenzeta" / "__init__.py").is_file():
        raise BenchError(f"no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib
    return {name: importlib.import_module(f"wittenzeta.{name}") for name in MODULES}


def child_env(extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict(extra))
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def measure_setup(workload: str, repeats: int, trace: bool) -> list[dict]:
    """Reports of fresh interpreters that import the library and build the
    workload's tables (see ``_child.py``), with each child's wall time."""
    cmd = [sys.executable, str(HERE / "_child.py"), "setup", workload]
    if trace:
        cmd.append("--trace")
    reports = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout)
        report["wall_s"] = time.perf_counter() - t0
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def timed_pass(queries, execute, speed: HostSpeed) -> tuple[list, float]:
    """Run every query once, with host-speed probes between queries;
    (payload, raw seconds, scale factor) per query, and the raw total."""
    marks = []
    wall = 0.0
    before = speed.probe()
    for i, q in enumerate(queries):
        if speed.due():
            before = speed.probe()
        t0 = time.perf_counter()
        payload = execute(i, q)
        dt = time.perf_counter() - t0
        wall += dt
        # the next probe taken, whenever that is, gets index len(samples)
        marks.append((payload, dt, before, len(speed.samples)))
        if dt >= speed.EVERY_S:
            before = speed.probe()
    speed.probe()
    return [(payload, dt, speed.factor(b, a)) for payload, dt, b, a in marks], wall


def _fingerprint(outcome: str, result) -> str:
    if result is None:
        return outcome
    if isinstance(result, float):
        return f"{outcome} {result!r}"
    return (f"{outcome} {result.value!r} {result.tail_bound!r} "
            f"{result.terms_used} {result.converged}")


def _pass(marks, raw_wall: float, judged: list) -> dict:
    """One pass as columns, one entry per query in query order.

    ``judged`` holds (outcome, detail, fingerprint) per query; later passes
    keep only the outcomes (see ``run_passes``), so memory does not grow
    with the number of passes and ``peak_rss_mb`` measures the library.
    """
    latency = array("d", (dt * factor for _, dt, factor in marks))
    return {"wall_s": math.fsum(latency), "raw_wall_s": raw_wall,
            "latency_s": latency, "raw_s": array("d", (dt for _, dt, _ in marks)),
            "factor": array("d", (factor for _, _, factor in marks)),
            "outcomes": [o for o, _, _ in judged],
            "details": [d for _, d, _ in judged],
            "fingerprints": [f for _, _, f in judged]}


def run_pass_inprocess(queries, refs, wz, speed: HostSpeed) -> dict:
    errors = wz["errors"]

    def execute(i, q):
        try:
            return q.run(), None
        except Exception as exc:  # an unexpected exception is an "error" outcome
            return None, exc

    marks, raw_wall = timed_pass(queries, execute, speed)
    judged = []
    for q, ((result, raised), _, _) in zip(queries, marks):
        outcome, detail = workloads.classify(q, raised, result, refs.get(q.label),
                                             errors)
        judged.append((outcome, detail, _fingerprint(outcome, result)))
    return _pass(marks, raw_wall, judged)


def _stderr_value(stderr: str, key: str) -> str | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    return None


def run_pass_cli(queries, refs, traced: bool) -> dict:
    """One ``python -m wittenzeta`` subprocess per query, run by
    ``_child.py cli``, which probes the host speed in the child itself
    (a probe in this process does not track a subprocess's speed)."""
    marks = []
    for i, q in enumerate(queries):
        out = str(OUT / f"cli_child_{i}.json") if traced else "-"
        cmd = [sys.executable, str(HERE / "_child.py"), "cli", out, *q.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=child_env(q.env), timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        dt = time.perf_counter() - t0
        probe = _stderr_value(proc.stderr, "bench_probe") if proc else None
        if probe is None:
            marks.append((proc, dt, 1.0))
        else:
            probe = json.loads(probe)
            marks.append((proc, dt - probe["probe_s"], probe["scale"]))
    raw_wall = math.fsum(dt for _, dt, _ in marks)
    judged, elapsed_all, snapshots = [], [], []
    for i, (q, (proc, _, _)) in enumerate(zip(queries, marks)):
        if proc is None:
            outcome, detail, fp = "error", f"timed out after {CLI_TIMEOUT_S}s", "timeout"
            elapsed = None
        else:
            outcome, detail = workloads.classify_cli(q, proc.returncode, proc.stdout,
                                                     proc.stderr, refs.get(q.label))
            fp = f"{outcome} {proc.returncode} " + hashlib.sha256(
                proc.stdout.encode()).hexdigest()
            elapsed = _stderr_value(proc.stderr, "elapsed_s")
            elapsed = float(elapsed) if elapsed is not None else None
        if traced:
            path = OUT / f"cli_child_{i}.json"
            if path.is_file():
                snapshots.append(json.loads(path.read_text()))
                path.unlink()
        judged.append((outcome, detail, fp))
        elapsed_all.append(elapsed)
    out = _pass(marks, raw_wall, judged)
    out["elapsed_s"] = elapsed_all
    out["snapshots"] = snapshots
    return out


def run_passes(workload, queries, refs, wz, budget_s, speed, tracer=None,
               first=None) -> list:
    """Passes over the query list until the next one would overrun the budget.

    Every pass after ``first`` (by default the first of these) records only
    whether its answers were the same as the first pass's.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if workload == "cli_cold":
            p = run_pass_cli(queries, refs, tracer is not None)
        elif tracer is not None:
            tracer.install(wz)
            try:
                p = run_pass_inprocess(queries, refs, wz, speed)
            finally:
                tracer.uninstall()
        else:
            p = run_pass_inprocess(queries, refs, wz, speed)
        if first is None:
            first = p
        else:
            p["same"] = p.pop("fingerprints") == first["fingerprints"]
            del p["details"]
        passes.append(p)
        now = time.perf_counter()
        if (now - start) + (now - t0) > budget_s:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def query_medians(passes, key="latency_s") -> list[float]:
    """Each query's median latency over the passes, in query order."""
    return [statistics.median(p[key][i] for p in passes)
            for i in range(len(passes[0][key]))]


def end_to_end(workload, setup_walls, passes, key="latency_s") -> dict:
    """The metrics of BENCHMARK.json; ``key="raw_s"`` gives unscaled times.

    The pass time and the latency quantiles are taken over each query's
    median latency across passes, so one slow pass of one query moves them
    little, and the quantiles sit at the same query whatever the pass count.
    """
    per_query = query_medians(passes, key)
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (math.fsum(per_query), "s"),
        "latency_p50_ms": (1e3 * quantile(per_query, 0.5), "ms"),
        "latency_p90_ms": (1e3 * quantile(per_query, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer(workload, setup_reports, plain, traced, snap) -> dict:
    """Per-layer metrics from the merged trace snapshot, per traced pass.

    Times are scaled like the end-to-end ones, by the traced passes' mean
    host-speed factor.
    """
    n = len(traced)
    scale = (sum(p["wall_s"] for p in traced) / sum(p["raw_wall_s"] for p in traced))
    calls, cnt = snap["calls"], snap["counts"]
    tot = {k: v * scale for k, v in snap["total_ns"].items()}
    self_ns = {k: v * scale for k, v in snap["self_ns"].items()}
    m = {}
    if workload == "cli_cold":
        startups = [(raw - elapsed) * f for p in plain
                    for raw, elapsed, f in zip(p["raw_s"], p["elapsed_s"], p["factor"])
                    if elapsed is not None]
        computes = [sum(e * f for e, f in zip(p["elapsed_s"], p["factor"])
                        if e is not None) for p in plain]
        m["rootdata.build_ms"] = (tot.get("rootdata", 0) / 1e6 / n, "ms")
        m["cli.startup_ms"] = (1e3 * statistics.median(startups), "ms")
        m["cli.compute_ms"] = (1e3 * statistics.median(computes), "ms")
    else:
        builds = [r["rootdata_ns"] / 1e6 for r in setup_reports]
        m["rootdata.build_ms"] = (statistics.median(builds), "ms")
        m["cli.startup_ms"] = (0.0, "ms")
        m["cli.compute_ms"] = (0.0, "ms")
    m["rootdata.record_ms"] = (_per(cnt.get("rootdata.record_ns", 0) * scale / 1e6,
                                    cnt.get("rootdata.records", 0)), "ms")
    m["weights.calls"] = (calls.get("weights", 0) / n, "count")
    m["weights.coords"] = (cnt.get("weights.coords", 0) / n, "count")
    m["weights.ns_per_coord"] = (_per(tot.get("weights", 0),
                                      cnt.get("weights.coords", 0)), "ns")
    dims_self = 0
    for path in tracing.DIM_PATHS:
        layer = f"dims.{path}"
        m[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count")
        m[f"{layer}.us_per_call"] = (_per(tot.get(layer, 0) / 1e3,
                                          calls.get(layer, 0)), "us")
        dims_self += self_ns.get(layer, 0)
    m["dims.self_s"] = (dims_self / 1e9 / n, "s")
    evaluated = cnt.get("zeta.terms_evaluated", 0)
    m["zeta.box_passes"] = (cnt.get("zeta.box_passes", 0) / n, "count")
    m["zeta.terms_evaluated"] = (evaluated / n, "count")
    m["zeta.terms_used"] = (cnt.get("zeta.terms_used", 0) / n, "count")
    m["zeta.useful_term_ratio"] = (_per(cnt.get("zeta.terms_used", 0), evaluated),
                                   "ratio")
    m["zeta.self_ns_per_term"] = (_per(self_ns.get("zeta", 0), evaluated), "ns")
    terms = cnt.get("genseries.terms", 0)
    certs = calls.get("genseries.tail_cert", 0)
    m["genseries.terms"] = (terms / n, "count")
    m["genseries.self_ns_per_term"] = (_per(self_ns.get("genseries", 0), terms), "ns")
    m["genseries.tail_cert.calls"] = (certs / n, "count")
    m["genseries.tail_cert.us_per_call"] = (_per(tot.get("genseries.tail_cert", 0)
                                                 / 1e3, certs), "us")
    m["genseries.tail_cert.accept_ratio"] = (
        _per(cnt.get("genseries.tail_cert.accepted", 0), certs), "ratio")
    m["specfun.hurwitz.calls"] = (calls.get("specfun.hurwitz", 0) / n, "count")
    m["specfun.hurwitz.us_per_call"] = (_per(tot.get("specfun.hurwitz", 0) / 1e3,
                                             calls.get("specfun.hurwitz", 0)), "us")
    pterms = cnt.get("partition.terms", 0)
    m["partition.shells"] = (cnt.get("partition.shells", 0) / n, "count")
    m["partition.terms"] = (pterms / n, "count")
    m["partition.casimir_calls"] = (calls.get("partition.casimir", 0) / n, "count")
    m["partition.self_ns_per_term"] = (_per(self_ns.get("partition", 0), pterms), "ns")
    untraced = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    m["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def metadata(workload: str, seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wittenzeta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wz = import_library()
    OUT.mkdir(exist_ok=True)
    meta = metadata(workload, seed)
    speed = HostSpeed()
    for _ in range(5):          # host speed beside the workload, for the record
        speed.probe()
    setup_reports = measure_setup(workload, SETUP_REPEATS if not trace else 3, trace)
    workloads.warm(workload, wz)
    queries = workloads.make_queries(workload, seed, wz)
    refs = workloads.resolve_references(queries, workloads.load_table())

    tracer = None
    if trace:
        plain = run_passes(workload, queries, refs, wz, seconds / 2, speed)
        tracer = tracing.Tracer()
        traced = run_passes(workload, queries, refs, wz, seconds / 2, speed, tracer,
                            first=plain[0])
    else:
        plain, traced = run_passes(workload, queries, refs, wz, seconds, speed), []
    for _ in range(5):
        speed.probe()

    # outcomes and determinism: every pass must give the same answers
    all_passes = plain + traced
    deterministic = all(p.get("same", True) for p in all_passes)
    attempted = sum(len(p["outcomes"]) for p in all_passes)
    failed = sum(1 for p in all_passes for q, o in zip(queries, p["outcomes"])
                 if o in workloads.FAILED and not q.defect)
    failed_all = sum(1 for p in all_passes for o in p["outcomes"]
                     if o in workloads.FAILED)

    if trace:
        if workload == "cli_cold":
            snap = tracing.merge([s for p in traced for s in p["snapshots"]])
            spans = [s for p in traced for snapshot in p["snapshots"]
                     for s in snapshot.get("span_list", [])]
        else:
            snap = tracer.snapshot()
            spans = None
        metrics = per_layer(workload, setup_reports, plain, traced, snap)
        trace_info = {"spans_kept": snap["spans"], "spans_dropped": snap["dropped"]}
        path = OUT / f"{workload}.spans.jsonl"
        if spans is None:
            tracer.write_spans(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
        raw = {}
    else:
        trace_info = None
        metrics = end_to_end(workload, [r["setup_s"] for r in setup_reports], plain)
        metrics["failed_frac"] = (failed_all / attempted, "ratio")
        raw = {k: v for k, (v, _) in
               end_to_end(workload, [r["raw_s"] for r in setup_reports], plain,
                          key="raw_s").items()}

    outcomes = []
    first = plain[0]
    for q, outcome, detail, lat in zip(queries, first["outcomes"], first["details"],
                                       query_medians(plain)):
        outcomes.append({"query": q.label, "outcome": outcome, "detail": detail,
                         "defect": q.defect, "latency_ms_median": 1e3 * lat})
    record = {
        "meta": meta,
        "host_speed": speed.summary(),
        "setup": setup_reports,
        "passes": {"untraced": len(plain), "traced": len(traced),
                   "untraced_walls_s": [p["wall_s"] for p in plain],
                   "traced_walls_s": [p["wall_s"] for p in traced],
                   "untraced_raw_walls_s": [p["raw_wall_s"] for p in plain],
                   "traced_raw_walls_s": [p["raw_wall_s"] for p in traced]},
        "samples": sum(len(p["outcomes"]) for p in plain),
        "queries": len(queries),
        "deterministic": deterministic,
        "attempted": attempted, "failed": failed, "failed_with_defects": failed_all,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": raw,
        "trace": trace_info,
        "outcomes": outcomes,
    }
    with open(OUT / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary_lines(record: dict) -> list[str]:
    meta = record["meta"]
    lines = [f"# {meta['workload']} seed={meta['seed']} python={meta['python']} "
             f"numpy={meta['numpy']} nproc={meta['nproc']} "
             f"commit={meta['git_commit']} src={meta['src_sha256'][:12]}",
             f"# host-speed probe median {record['host_speed']['median_s']*1e3:.3f} ms "
             f"(range {record['host_speed']['min_s']*1e3:.3f}-"
             f"{record['host_speed']['max_s']*1e3:.3f}, reference "
             f"{record['host_speed']['ref_s']*1e3:.3f}); "
             f"passes {record['passes']['untraced']}+{record['passes']['traced']} traced; "
             f"{record['samples']} latency samples of {record['queries']} queries"]
    for name, m in record["metrics"].items():
        lines.append(f"{name:40s} {m['value']:.6g} {m['unit']}")
    counts = {}
    for o in record["outcomes"]:
        counts[o["outcome"]] = counts.get(o["outcome"], 0) + 1
    lines.append("# outcomes per query: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))
    for o in record["outcomes"]:
        if o["outcome"] in workloads.FAILED:
            tag = f" [known defect: {o['defect']}]" if o["defect"] else ""
            lines.append(f"#   {o['outcome']:13s} {o['query']}{tag}: {o['detail']}")
    return lines


def report_all(seconds: float, seed: int) -> int:
    """Run every workload in its own process and print one table."""
    header = ("workload", "setup_s", "wall_s", "latency_p50_ms", "latency_p90_ms",
              "failed_frac", "peak_rss_mb")
    units = ("", "s", "s", "ms", "ms", "ratio", "MiB")
    rows, status = [], 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        record = json.loads((OUT / f"{workload}.json").read_text())
        rows.append((workload, record))
    print("| " + " | ".join(f"{h} ({u})" if u else h for h, u in zip(header, units))
          + " |")
    print("|" + "---|" * len(header))
    for workload, record in rows:
        m = record["metrics"]
        print(f"| {workload} | " + " | ".join(f"{m[h]['value']:.4g}" for h in header[1:])
              + " |")
    for workload, record in rows:
        print(f"\n## {workload}: {record['queries']} queries, "
              f"{record['passes']['untraced']} passes")
        for o in record["outcomes"]:
            tag = f"  [known defect: {o['defect']}]" if o["defect"] else ""
            print(f"- {o['outcome']:18s} {o['latency_ms_median']:10.3f} ms  "
                  f"{o['query']}{tag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return report_all(args.seconds, args.seed)
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, KeyError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(record):
        print(line, file=sys.stderr)
    correct = record["deterministic"] and record["failed"] == 0
    metrics = {k: v for k, v in record["metrics"].items() if k != "failed_frac"}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
