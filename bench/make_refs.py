"""Regenerate bench/refs.json, the recorded references of the benchmark.

    python3 bench/make_refs.py

Closed forms are evaluated with mpmath at 30 digits.  Every other recorded
reference is the library's own value at a far tighter tolerance than the
query's, computed once at the commit named in ``_meta``; its bound is the
tail bound that evaluation reported.  Rerun only when a query is added:
regenerating after a library change would hide a regression.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

import workloads  # noqa: E402
from run import import_library  # noqa: E402

mpmath.mp.dps = 30


def closed_form(name: str, *args) -> float:
    if name == "S2":
        (s,) = args
        return float((1 - mpmath.mpf(2) ** (-s)) * mpmath.zeta(s))
    if name == "S3":
        (s,) = args
        return float(mpmath.zeta(2 * mpmath.mpf(s)))
    if name == "zeta":
        (s,) = args
        return float(mpmath.zeta(s))
    if name == "SU3_2":
        return float(4 * mpmath.pi ** 6 / 2835)
    raise KeyError(name)


def cli_tight(wz, argv: tuple[str, ...]) -> tuple[float, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = wz["cli"].main(list(argv) + ["--tol", "1e-13"])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    result = json.loads(buf.getvalue())["result"]
    return result["value"], result["tail_bound"]


def reference(wz, q: workloads.Query) -> dict:
    kind = q.ref[1]
    if kind[0] == "tight":
        res = kind[1]()
        value, bound, _ = workloads.as_value(res)
        rigor = "rigorous" if getattr(res, "rigorous", True) else "heuristic"
        return {"value": value, "bound": bound,
                "source": f"library at a tighter tolerance ({rigor} bound)"}
    if kind[0] == "cli_tight":
        value, bound = cli_tight(wz, q.argv)
        return {"value": value, "bound": bound,
                "source": "library at tol 1e-13 (rigorous bound)"}
    return {"value": closed_form(*kind), "bound": 0.0,
            "source": f"closed form {kind[0]} (mpmath)"}


def main() -> int:
    wz = import_library()
    queries = [q for w in workloads.WORKLOADS
               for q in workloads.make_queries(w, 0, wz)]
    queries += workloads.boundary_variants(wz)
    table = {}
    for q in queries:
        if q.ref is None or q.ref[0] != "table" or q.label in table:
            continue
        t0 = time.perf_counter()
        table[q.label] = reference(wz, q)
        print(f"{time.perf_counter() - t0:7.2f}s {q.label}", file=sys.stderr)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    table["_meta"] = {"commit": commit, "mpmath": mpmath.__version__}
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
