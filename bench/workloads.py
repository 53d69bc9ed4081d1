"""Query lists, references and outcome classes for the four workloads.

Each workload is a fixed multiset of queries; the seed fixes their order
and, for ``rank_one``, the boundary holonomy angles drawn from a fixed
grid.  Every seed therefore does the same amount of work, so runs with
different seeds can be compared.

A query carries how its answer is checked:

- ``diverges``: a ``DivergenceError`` is the correct answer (``s*deg <= 1``).
- ``ref``: where the reference comes from.  ``("table", ...)`` is looked up
  in ``refs.json`` by the query's label, filled by ``make_refs.py`` from a
  closed form (mpmath) or from the library at a far tighter tolerance at
  the seed commit.  ``("second", fn, bound)`` is the library's independent
  second path, computed before the timed loop, with the accuracy it is
  held to.  ``None`` means no reference.
- ``defect``: a known defect this query shows at the seed commit.  It
  counts in ``failed_frac`` but not in the driver's ``failed``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

FAILED = ("not_converged", "wrong", "error")
WORKLOADS = ("rank_one", "lattice_zeta", "heat_kernel", "cli_cold")

REFS_PATH = Path(__file__).with_name("refs.json")
# float summation of many terms may differ from the reference by rounding
ROUNDING = 1e-12


@dataclass(frozen=True)
class Query:
    label: str
    tol: float
    run: Callable[[], object] | None = None      # in-process call
    argv: tuple[str, ...] = ()                    # CLI arguments
    env: tuple[tuple[str, str], ...] = ()         # CLI environment additions
    check: str = "result"                         # CLI check kind
    diverges: bool = False
    defect: str = ""
    ref: tuple | None = None


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _label(fn: str, *args) -> str:
    return f"{fn}(" + ", ".join(_fmt(a) for a in args) + ")"


# ---------------------------------------------------------------------------
# rank_one
# ---------------------------------------------------------------------------

RANK_ONE_IDS = ("S:2", "S:3", "S:4", "S:5", "S:6", "S:7", "S:8", "S:9",
                "CP:1", "CP:2", "CP:3", "CP:4", "CP:5",
                "HP:1", "HP:2", "HP:3", "FII")
S_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
ZETA_TOLS = (1e-6, 1e-10)
THETA_GRID = (0.5, 1.25, 2.0, 3.0)
HEAT_GRID = ((0, 0.2), (0, 1.0), (1, 0.05), (1, 0.2), (1, 1.0),
             (2, 0.05), (2, 0.2), (2, 1.0))


def rank_one_degree(space_id: str) -> int:
    """Degree of d(n) = dim - 1, from the catalog dimensions of each family."""
    if space_id == "FII":
        return 15
    family, m = space_id.split(":")
    return {"S": 1, "CP": 2, "HP": 4}[family] * int(m) - 1


def _closed_form(space_id: str, s: float):
    """Name of a closed form for zeta_I(space, s), or None."""
    if space_id in ("S:2", "CP:1") and s > 1:
        return ("S2", s)        # (1 - 2^-s) zeta(s)
    if space_id == "S:3" and s > 0.5:
        return ("S3", s)        # zeta(2s)
    return None


def _rank_one(rng: random.Random, wz) -> list[Query]:
    zeta, genseries, partition = wz["zeta"], wz["genseries"], wz["partition"]
    SP = partition.SurfaceParams
    out = []
    for sid in RANK_ONE_IDS:
        deg = rank_one_degree(sid)
        for s in S_GRID:
            for tol in ZETA_TOLS:
                closed = _closed_form(sid, s)
                if s * deg <= 1:
                    ref = None
                elif closed:
                    ref = ("table", closed)
                elif s == int(s):
                    ref = ("second", partial(genseries.zeta_values_from_rank_one,
                                             sid, int(s), 1e-12), 1e-12)
                else:
                    ref = ("table", ("tight", partial(zeta.zeta_type_I, sid, s, 1e-13)))
                out.append(Query(_label("zeta_type_I", sid, s, tol), tol,
                                 run=partial(zeta.zeta_type_I, sid, s, tol),
                                 diverges=s * deg <= 1, ref=ref))
        for s in (1, 2, 3):
            closed = _closed_form(sid, float(s))
            if s * deg <= 1:
                ref = None
            elif closed:
                ref = ("table", closed)
            else:
                ref = ("second", partial(zeta.zeta_type_I, sid, float(s), 1e-12), 0.0)
            out.append(Query(_label("zeta_values_from_rank_one", sid, s), 1e-10,
                             run=partial(genseries.zeta_values_from_rank_one, sid, s),
                             diverges=s * deg <= 1, ref=ref))
        for genus, area in HEAT_GRID:
            surface = SP(genus, area)
            out.append(Query(
                _label("partition_type_I", sid, genus, area), 1e-8,
                run=partial(partition.partition_type_I, sid, surface, 1e-8),
                ref=("table", ("tight", partial(partition.partition_type_I,
                                                sid, surface, 1e-13)))))
    for s in S_GRID:
        for tol in ZETA_TOLS:
            out.append(Query(_label("zeta_type_II", "SU:2", s, tol), tol,
                             run=partial(zeta.zeta_type_II, "SU:2", s, tol),
                             diverges=s <= 1,
                             ref=("table", ("zeta", s)) if s > 1 else None))
    pi_kappas = ([(pi, k) for pi in ((0, 0), (1, 0), (0, 2), (1, 1))
                  for k in ((1, 2), (0.5, 2.5), (3, 3))]
                 + [(pi, k) for pi in ((0, 0, 0), (2, 1, 0))
                    for k in ((1, 2, 3), (0.5, 1, 1.5))])
    for pi, kappa in pi_kappas:
        for tol in (1e-8, 1e-12):
            out.append(Query(
                _label("pi_series", list(pi), list(kappa), tol), tol,
                run=partial(genseries.pi_series, list(pi), list(kappa), tol),
                ref=("table", ("tight", partial(genseries.pi_series, list(pi),
                                                list(kappa), 1e-13)))))
    for kappa, t_point in (((1, 2), (0, 0)), ((1, 2), (0.5, -0.25)),
                           ((1, 3), (0.25, 0.75)), ((1, 3), (-0.5, 0.5)),
                           ((0.5, 2, 3.5), (0, 0, 0)),
                           ((0.5, 2, 3.5), (0.25, 0.5, -1.0))):
        k, t = list(kappa), list(t_point)
        out.append(Query(
            _label("gen_series_direct", k, t, 1e-10), 1e-10,
            run=partial(genseries.gen_series_direct, k, t, 1e-10),
            ref=("second", partial(genseries.gen_series_mf, k, t), 1e-12)))
        out.append(Query(
            _label("gen_series_mf", k, t), 1e-10,
            run=partial(genseries.gen_series_mf, k, t),
            ref=("second", partial(genseries.gen_series_direct, k, t, 1e-13), 0.0)))
    for sid in ("S:2", "S:3"):
        for genus, area in ((0, 0.2), (0, 1.0), (1, 0.2), (1, 1.0)):
            for holes in (1, 2):
                thetas = tuple(rng.choice(THETA_GRID) for _ in range(holes))
                surface = SP(genus, area, thetas)
                out.append(Query(
                    _label("boundary_state", sid, genus, area, list(thetas)), 1e-8,
                    run=partial(partition.boundary_state, sid, surface, 1e-8),
                    ref=("table", ("tight", partial(partition.boundary_state,
                                                    sid, surface, 1e-13)))))
    return out


def boundary_variants(wz) -> list[Query]:
    """Every boundary query any seed can draw; make_refs records them all."""
    partition = wz["partition"]
    out = []
    for sid in ("S:2", "S:3"):
        for genus, area in ((0, 0.2), (0, 1.0), (1, 0.2), (1, 1.0)):
            thetas_all = [(a,) for a in THETA_GRID] + [
                (a, b) for a in THETA_GRID for b in THETA_GRID]
            for thetas in thetas_all:
                surface = partition.SurfaceParams(genus, area, thetas)
                out.append(Query(
                    _label("boundary_state", sid, genus, area, list(thetas)), 1e-8,
                    ref=("table", ("tight", partial(partition.boundary_state,
                                                    sid, surface, 1e-13)))))
    return out


# ---------------------------------------------------------------------------
# lattice_zeta
# ---------------------------------------------------------------------------

def _lattice(rng: random.Random, wz) -> list[Query]:
    zeta = wz["zeta"]
    out = []
    for fn, ident, s, tol, box, ref, tight_tol, defect in (
        ("zeta_type_I", "AI:3", 2.0, 1e-5, None, None, 1e-7, ""),
        ("zeta_type_I", "GI", 1.0, 1e-5, None, None, 1e-7, ""),
        ("zeta_type_I", "EIII", 1.0, 1e-4, 16, None, 1e-8, ""),
        ("zeta_type_II", "SU:3", 2.0, 1e-6, None, ("SU3_2",), None, ""),
        ("zeta_type_II", "G2", 1.0, 1e-6, None, None, 1e-8, ""),
        ("zeta_type_II", "SU:3", 0.7, 1e-6, None, None, None,
         "false divergence: converges for s > 2/3"),
        ("zeta_type_I", "EI", 1.0, 1e-8, 2, None, None,
         "one box pass, tail_bound=inf"),
        # box 16 is the smallest that still shows it with a finite estimate
        ("zeta_type_II", "SU:4", 1.0, 1e-4, 16, None, None,
         "raises NotConverged"),
    ):
        func = getattr(zeta, fn)
        if ref is not None:
            ref = ("table", ref)
        elif tight_tol is not None:
            ref = ("table", ("tight", partial(func, ident, s, tight_tol)))
        out.append(Query(_label(fn, ident, s, tol, box), tol,
                         run=partial(func, ident, s, tol, box),
                         defect=defect, ref=ref))
    return out


# ---------------------------------------------------------------------------
# heat_kernel
# ---------------------------------------------------------------------------

HEAT_GROUPS = ("SU:3", "SO:5", "G2", "SU:4", "Sp:3")
HEAT_SPACES = ("AI:3", "GI", "EIII", "CI:3", "BDI:4,2")


def _heat(rng: random.Random, wz) -> list[Query]:
    partition = wz["partition"]
    SP = partition.SurfaceParams
    cases = ([("partition_type_II", g, ga) for g in HEAT_GROUPS for ga in HEAT_GRID]
             + [("partition_type_I", x, ga) for x in HEAT_SPACES for ga in HEAT_GRID]
             + [("partition_type_II", "F4", (1, 1.0)),
                ("partition_type_I", "FI", (1, 0.2))])
    out = []
    for fn, ident, (genus, area) in cases:
        func = getattr(partition, fn)
        surface = SP(genus, area)
        out.append(Query(_label(fn, ident, genus, area), 1e-8,
                         run=partial(func, ident, surface, 1e-8),
                         ref=("table", ("tight", partial(func, ident, surface, 1e-12)))))
    return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

# (argv, check, reference, defect, environment additions)
CLI_COMMANDS = (
    ("spaces --format json", "spaces", None, "", ()),
    ("dim --space FII --n 1", "dim", None, "", ()),
    ("dim --space AI:3 --coords 1,1", "dim", None, "", ()),
    ("dim --space EVIII --coords 1,1,1,1,1,1,1,1", "dim", None, "", ()),
    ("dim --space EI --coords 1,1,1,1,1,1", "dim", None, "", ()),
    ("dim --space FI --coords 2,2,2,2", "dim", None, "", ()),
    ("dims-table --space S:2 --s 2 --nmax 20", "table", None, "", ()),
    ("zeta --space S:2 --s 2 --tol 1e-8", "result", ("S2", 2.0), "", ()),
    ("partition --space S:3 --genus 1 --area 0.01", "result", "tight", "", ()),
    ("partition2 --group SU:2 --genus 2 --area 0.1", "result", "tight", "", ()),
    ("boundary --space S:2 --genus 1 --theta 3.14159 --area 0.2", "result",
     "tight", "", ()),
    ("genseries --kappa 1,2 --T 0,0", "genseries", None, "", ()),
    ("pizeta --pi 1,1 --kappa 1,2", "result", "tight", "", ()),
    ("zetagen --space S:2 --s 2", "zetagen", ("S2", 2.0), "", ()),
    ("oracle-s2 --check orthogonality --n 5 --m 7", "oracle", None, "", ()),
    ("selfcheck", "selfcheck", None, "", ()),
    ("zeta2 --group SU:3 --s 2 --max-box 256", "result", ("SU3_2",),
     "exits 2 (NotConverged) at the default tolerance", ()),
    ("partition --space S:3 --genus 1 --area inf", "usage_error", None,
     "NaN marked converged, exit 0", ()),
    # the term cap only shortens the run; the NaN with exit 0 is the same
    ("zeta --space S:2 --s nan", "usage_error", None, "NaN with exit 0",
     (("WZ_MAX_TERMS", "50000"),)),
    # one domain error (exit 2) and one usage error (exit 1) that work today
    ("zeta --space EVII --s 2", "usage_error", None, "", ()),
    ("zeta --space S:2", "usage_error", None, "", ()),
)


def _cli(rng: random.Random, wz) -> list[Query]:
    out = []
    for argv, check, ref, defect, env in CLI_COMMANDS:
        if ref == "tight":
            ref = ("table", ("cli_tight",))
        elif ref is not None:
            ref = ("table", ref)
        out.append(Query("wittenzeta " + argv, 1e-8, argv=tuple(argv.split()),
                         env=env, check=check, defect=defect, ref=ref))
    return out


_BUILDERS = {"rank_one": _rank_one, "lattice_zeta": _lattice,
             "heat_kernel": _heat, "cli_cold": _cli}


def make_queries(workload: str, seed: int, wz: dict) -> list[Query]:
    """The workload's queries in the order fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _BUILDERS[workload](rng, wz)
    labels = [q.label for q in queries]
    if len(set(labels)) != len(labels):
        raise AssertionError(f"{workload}: duplicate query labels")
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# references and outcome classes
# ---------------------------------------------------------------------------

def load_table() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def as_value(result) -> tuple[float, float, bool]:
    """(value, bound, converged) of an EvalResult or a bare float."""
    if isinstance(result, float):
        return result, 0.0, True
    return result.value, result.tail_bound, result.converged


def resolve_references(queries: list[Query], table: dict) -> dict:
    """label -> (value, bound, source) for every query with a reference."""
    refs = {}
    for q in queries:
        if q.ref is None:
            continue
        if q.ref[0] == "table":
            if q.label not in table:
                raise KeyError(f"no recorded reference for {q.label}; "
                               "run bench/make_refs.py")
            entry = table[q.label]
            refs[q.label] = (entry["value"], entry["bound"], entry["source"])
        else:
            _, fn, claimed = q.ref
            value, bound, _ = as_value(fn())
            refs[q.label] = (value, max(bound, claimed), "second path")
    return refs


def classify(q: Query, raised: BaseException | None, result,
             ref: tuple | None, errors) -> tuple[str, str]:
    """Outcome class and a one-line detail for one in-process query."""
    if raised is not None:
        name = f"{type(raised).__name__}: {raised}"
        if isinstance(raised, errors.DivergenceError):
            return ("expected_divergent" if q.diverges else "wrong"), name
        if isinstance(raised, errors.NotConverged):
            return "not_converged", name
        return "error", name
    if q.diverges:
        return "wrong", "returned a value for a divergent series"
    value, bound, converged = as_value(result)
    return judge(q, value, bound, converged, ref)


def judge(q: Query, value, bound, converged, ref) -> tuple[str, str]:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return "wrong", f"non-finite value {value!r}"
    if not converged or not math.isfinite(bound):
        return "not_converged", f"converged={converged} tail_bound={bound!r}"
    if ref is None:
        return "ok", "no reference: value not checked"
    ref_value, ref_bound, source = ref
    err = abs(value - ref_value)
    allowed = max(bound, q.tol) + ref_bound + ROUNDING * abs(ref_value)
    if err <= allowed:
        return "ok", f"|err|={err:.3g} <= {allowed:.3g} ({source})"
    return "wrong", f"|err|={err:.3g} > {allowed:.3g} ({source})"


# ---------------------------------------------------------------------------
# set-up: cold build of the descriptors and tables a workload uses
# ---------------------------------------------------------------------------

def warm(workload: str, wz: dict) -> None:
    """Build, through the public API, every table the workload's queries use.

    The calls are deliberately tiny (huge area, loose tolerance, box 1); a
    few of them end in the library's own NotConverged, which is expected.
    """
    if workload == "cli_cold":
        return
    zeta, partition, errors = wz["zeta"], wz["partition"], wz["errors"]
    SP = partition.SurfaceParams
    spaces, groups = [], []
    if workload == "rank_one":
        spaces, groups = list(RANK_ONE_IDS), ["SU:2"]
    elif workload == "lattice_zeta":
        spaces, groups = ["AI:3", "GI", "EIII", "EI"], ["SU:3", "G2", "SU:4"]
    elif workload == "heat_kernel":
        spaces, groups = list(HEAT_SPACES) + ["FI"], list(HEAT_GROUPS) + ["F4"]
    calls = []
    for sid in spaces:
        calls += [partial(zeta.zeta_type_I, sid, 4.0, 1.0, 1),
                  partial(partition.partition_type_I, sid, SP(1, 50.0), 1.0)]
    for gid in groups:
        calls += [partial(zeta.zeta_type_II, gid, 4.0, 1.0, 1),
                  partial(partition.partition_type_II, gid, SP(1, 50.0), 1.0)]
    for call in calls:
        try:
            call()
        except errors.NotConverged:
            pass


# ---------------------------------------------------------------------------
# CLI outcome classes
# ---------------------------------------------------------------------------

def _error_name(stderr: str) -> str:
    for line in stderr.splitlines():
        if line.startswith("{"):
            try:
                return json.loads(line).get("error", "")
            except ValueError:
                pass
    return ""


def classify_cli(q: Query, rc: int, stdout: str, stderr: str,
                 ref: tuple | None) -> tuple[str, str]:
    """Outcome class and detail of one ``wittenzeta`` subprocess."""
    if q.check == "usage_error":
        if rc in (1, 2) and not stdout.strip():
            return "ok", f"rejected with exit {rc}"
        if rc == 0:
            return "wrong", f"accepted bad input, exit 0: {stdout.strip()[-120:]}"
        return "error", f"exit {rc}: {stderr.strip()[-200:]}"
    if rc != 0:
        name = _error_name(stderr)
        if name == "NotConverged":
            return "not_converged", f"exit {rc} NotConverged"
        if name == "DivergenceError":
            return ("expected_divergent" if q.diverges else "wrong"), f"exit {rc} {name}"
        return "error", f"exit {rc}: {stderr.strip()[-200:]}"
    if q.check == "table":
        return _check_table(stdout)
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "error", "stdout is not a JSON record"
    return _CHECKS[q.check](q, result, ref)


def _check_result(q, result, ref):
    return judge(q, result["value"], result["tail_bound"], result["converged"], ref)


def _check_dim(q, result, ref):
    # second path: the log-gamma value against the exact integer
    exact = int(result["dim_exact"])
    err = abs(result["dim_log"] - math.log(exact))
    if exact < 1 or err > 1e-9 * max(1.0, abs(result["dim_log"])):
        return "wrong", f"log path {result['dim_log']!r} vs exact {exact}"
    return "ok", f"exact {exact}, log path within {err:.2g}"


def _check_spaces(q, result, ref):
    ids = [entry["id"] for entry in result]
    evaluable = [e for e in result if e["m"] is not None]
    if len(ids) != 52 or "EVII" in [e["id"] for e in evaluable] or not all(
            len(e["m"]) == len(e["m2"]) == len(e["rho_pairings"]) for e in evaluable):
        return "wrong", f"{len(ids)} records, inconsistent fields"
    return "ok", f"{len(ids)} records"


def _check_table(stdout: str):
    # S:2 has d(n) = 2n + 1
    lines = stdout.strip().splitlines()
    for line in lines[1:]:
        n, dim, inv = line.split(",")
        d = 2 * int(n) + 1
        if float(dim) != d or abs(float(inv) - d ** -2.0) > 1e-15:
            return "wrong", f"row {line!r} is not d(n) = 2n+1"
    if len(lines) != 22:
        return "wrong", f"{len(lines)} lines"
    return "ok", "21 rows match d(n) = 2n+1"


def _check_genseries(q, result, ref):
    # second path: the partial-fraction value against direct summation
    mf = result["partial_fraction_value"]
    outcome, detail = judge(q, result["value"], result["tail_bound"],
                            result["converged"], (mf, 1e-12, "partial fractions"))
    if outcome == "ok" and result["zero_identity_residual"] > 1e-12:
        return "wrong", f"zero identity residual {result['zero_identity_residual']}"
    return outcome, detail


def _check_zetagen(q, result, ref):
    if abs(result["difference"]) > 1e-10:
        return "wrong", f"paths differ by {result['difference']}"
    return judge(q, result["value"], 1e-10, True, ref)


def _check_oracle(q, result, ref):
    ok = result["residual"] < 1e-12
    return ("ok" if ok else "wrong"), f"residual {result['residual']:.3g}"


def _check_selfcheck(q, result, ref):
    bad = [c["name"] for c in result["checks"] if not c["ok"]]
    return ("ok", "all checks pass") if result["ok"] and not bad else (
        "wrong", f"failed checks {bad}")


_CHECKS = {"result": _check_result, "dim": _check_dim, "spaces": _check_spaces,
           "genseries": _check_genseries, "zetagen": _check_zetagen,
           "oracle": _check_oracle, "selfcheck": _check_selfcheck}
