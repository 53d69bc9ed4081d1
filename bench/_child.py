"""Fresh-interpreter helpers started by run.py.

    _child.py setup <workload> [--trace]   import the library and build its tables
    _child.py cli <out.json|-> <argv...>   run ``python -m wittenzeta <argv...>``

``setup`` prints one JSON object.  ``setup_s`` is the time from before the
library's first import to ready (imports plus the cold build of the
workload's descriptors and tables), scaled by host-speed probes run in this
same process before and after; ``raw_s`` is the same time unscaled.  With
``--trace`` it also reports the time spent building root systems and
descriptors.

``cli`` runs the package's ``__main__`` as ``python -m wittenzeta`` does
(same stdout and exit code), between two host-speed probes.  Its last
stderr line is ``bench_probe={"probe_s": ..., "scale": ...}``: the seconds
the probes took, to be subtracted from the subprocess time, and the scale
factor of this process.  With an ``out.json`` path instead of ``-`` the
tracer is installed and the trace is written there at exit.
"""
from __future__ import annotations

import importlib
import json
import runpy
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from hostspeed import HostSpeed  # noqa: E402

SPAN_CAP = 5_000
MODULES = ("cli", "dims", "errors", "genseries", "partition", "rootdata",
           "specfun", "weights", "zeta")


def setup(workload: str, trace: bool) -> int:
    speed = HostSpeed()
    for _ in range(3):
        speed.probe()
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    if workload == "cli_cold":
        importlib.import_module("wittenzeta.cli")
        t1 = t2 = time.perf_counter()
        rootdata_ns = 0
    else:
        wz = {name: importlib.import_module(f"wittenzeta.{name}") for name in MODULES}
        t1 = time.perf_counter()
        import tracing
        import workloads
        tracer = tracing.Tracer(cap=0).install(wz) if trace else None
        workloads.warm(workload, wz)
        t2 = time.perf_counter()
        rootdata_ns = tracer.total_ns.get("rootdata", 0) if tracer else 0
    for _ in range(3):
        speed.probe()
    scale = speed.factor(0, len(speed.samples) - 1)
    print(json.dumps({"setup_s": (t2 - t0) * scale, "raw_s": t2 - t0,
                      "import_s": t1 - t0, "build_s": t2 - t1,
                      "rootdata_ns": rootdata_ns * scale}))
    return 0


def cli(out_path: str, argv: list[str]) -> int:
    speed = HostSpeed()
    t0 = time.perf_counter()
    speed.probe()
    speed.probe()
    probe_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if out_path != "-":
        import tracing
        modules = {name: importlib.import_module(f"wittenzeta.{name}")
                   for name in MODULES}
        tracer = tracing.Tracer(cap=SPAN_CAP).install(modules)
        tracer.install_record(modules["rootdata"].SymmetricSpaceDescriptor)
    sys.argv = [sys.argv[0], *argv]
    try:
        runpy.run_module("wittenzeta", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            snap = tracer.snapshot()
            snap["span_list"] = [{"id": i, "name": n, "start_ns": s, "end_ns": e,
                                  "parent": p, "argv": " ".join(argv)}
                                 for i, n, s, e, p in tracer.spans]
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(snap, fh)
    t1 = time.perf_counter()
    speed.probe()
    speed.probe()
    probe_s += time.perf_counter() - t1
    scale = speed.factor(0, len(speed.samples) - 1)
    print("bench_probe=" + json.dumps({"probe_s": probe_s, "scale": scale}),
          file=sys.stderr)
    return code


def main() -> int:
    if sys.argv[1] == "setup":
        return setup(sys.argv[2], "--trace" in sys.argv[3:])
    if sys.argv[1] == "cli":
        return cli(sys.argv[2], sys.argv[3:])
    raise SystemExit(f"unknown helper {sys.argv[1]!r}")


if __name__ == "__main__":
    raise SystemExit(main())
