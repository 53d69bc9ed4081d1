"""Command-line front end; machine-readable JSON on stdout, timing on stderr.

stdout is strict JSON: a non-finite float, such as an unbounded tail, is
printed as null.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__, dims, genseries, partition, rootdata, sphere_oracle, zeta
from .errors import WittenZetaError
from .partition import SurfaceParams

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _csv_list(text: str, conv):
    tokens = text.split(",")
    if "" in tokens:
        raise ValueError(f"empty entry in the list {text!r}")
    return [conv(tok) for tok in tokens]


def build_parser() -> _Parser:
    parser = _Parser(prog="wittenzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spaces", help="dump the symmetric-space catalog")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("dim", help="class-one dimension at one weight")
    p.add_argument("--space", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--coords")

    p = sub.add_parser("dims-table", help="table of (n, d, 1/d^s) for plotting")
    p.add_argument("--space", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("zeta", help="type I Witten zeta value")
    p.add_argument("--space", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-box", type=int, default=None, help="cap on the box side")

    p = sub.add_parser("zeta2", help="type II Witten zeta value")
    p.add_argument("--group", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-box", type=int, default=None, help="cap on the box side")

    p = sub.add_parser("partition", help="type I partition series")
    p.add_argument("--space", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("partition2", help="type II partition series")
    p.add_argument("--group", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("boundary", help="boundary-holonomy sum (S:2 or S:3)")
    p.add_argument("--space", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--theta", required=True, help="comma-separated angles")
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("genseries", help="generating series at a T point")
    p.add_argument("--kappa", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("pizeta", help="multi-factor zeta series")
    p.add_argument("--pi", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("zetagen", help="rank-one zeta via the generating series")
    p.add_argument("--space", required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("oracle-s2", help="2-sphere spherical-function checks")
    p.add_argument("--check", choices=("orthogonality", "delta"), required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=7)
    p.add_argument("--order", type=int, default=128)

    sub.add_parser("selfcheck", help="run the quick invariant battery")
    return parser


def _strict(obj):
    """The payload with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _run(args) -> dict | list:
    cmd = args.command
    if cmd == "spaces":
        return [s.record() for s in rootdata.catalog_spaces()]
    if cmd == "dim":
        coords = (args.n,) if args.n is not None else tuple(_csv_list(args.coords, int))
        return dims.dims_record(args.space, coords)
    if cmd == "dims-table":
        if args.nmax < 0:
            raise ValueError(f"--nmax must be >= 0, got {args.nmax}")
        zeta._check_s(args.s)
        rows = []
        for n in range(args.nmax + 1):
            space = rootdata.lookup_space(args.space)
            coords = (n,) * space.rank
            d = dims.dim_class_one(args.space, coords)
            # null past the float range; exp underflows to 0.0 on its own
            dim_float, logd = dims.float_and_log(d)
            rows.append({"n": n, "dim": str(d), "dim_float": dim_float,
                         "inv_power": (math.exp(-args.s * logd)
                                       if -args.s * logd <= dims._LOG_MAX else None)})
        return {"space": args.space, "s": args.s, "rows": rows}
    if cmd == "zeta":
        res = zeta.zeta_type_I(args.space, args.s, args.tol, args.max_box)
        return res.as_dict()
    if cmd == "zeta2":
        res = zeta.zeta_type_II(args.group, args.s, args.tol, args.max_box)
        return res.as_dict()
    if cmd == "partition":
        surface = SurfaceParams(genus=args.genus, area=args.area)
        return partition.partition_type_I(args.space, surface, args.tol).as_dict()
    if cmd == "partition2":
        surface = SurfaceParams(genus=args.genus, area=args.area)
        return partition.partition_type_II(args.group, surface, args.tol).as_dict()
    if cmd == "boundary":
        thetas = tuple(_csv_list(args.theta, float))
        surface = SurfaceParams(genus=args.genus, area=args.area, holonomies=thetas)
        return partition.boundary_state(args.space, surface, args.tol).as_dict()
    if cmd == "genseries":
        kappa = _csv_list(args.kappa, Fraction)
        tpoint = _csv_list(args.T, float)
        direct = genseries.gen_series_direct(kappa, tpoint, args.tol)
        out = direct.as_dict()
        out["partial_fraction_value"] = genseries.gen_series_mf(kappa, tpoint)
        out["zero_identity_residual"] = genseries.zero_identity_residual(
            [float(k) for k in kappa], tpoint)
        return out
    if cmd == "pizeta":
        pi = _csv_list(args.pi, int)
        kappa = _csv_list(args.kappa, Fraction)
        return genseries.pi_series(pi, kappa, args.tol).as_dict()
    if cmd == "zetagen":
        value = genseries.zeta_values_from_rank_one(args.space, args.s)
        direct = zeta.zeta_type_I(args.space, float(args.s), 1e-10)
        return {"value": value, "direct": direct.value,
                "difference": value - direct.value}
    if cmd == "oracle-s2":
        if args.check == "orthogonality":
            res = sphere_oracle.orthogonality_residual(args.n, args.m, args.order)
            return {"check": "orthogonality", "n": args.n, "m": args.m,
                    "residual": res}
        errs = {N: sphere_oracle.delta_kernel_error(N, math.cos)
                for N in (8, 32, 128)}
        return {"check": "delta", "test_function": "cos",
                "errors": {str(k): v for k, v in errs.items()}}
    if cmd == "selfcheck":
        return _selfcheck()
    raise AssertionError(f"unhandled command {cmd}")


def _selfcheck() -> dict:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    for sid, expected in (("S:4", Fraction(3, 2)), ("CP:3", Fraction(3)),
                          ("HP:1", Fraction(3)), ("FII", Fraction(11))):
        space = rootdata.lookup_space(sid)
        got = space.rho_pairings[0]
        check(f"rho_pairing[{sid}]", got == expected, f"got {got}")
    for sid in ("S:5", "CP:3", "HP:2", "FII", "EIII", "GI"):
        space = rootdata.lookup_space(sid)
        sums = sum(space.mult) + space.rank
        check(f"dim[{sid}]", sums == space.dim, f"got {sums}")
    for n in (0, 3, 17):
        check(f"iso HP1=S4 n={n}",
              dims.dim_class_one("HP:1", (n,)) == dims.dim_class_one("S:4", (n,)))
        check(f"iso CP1=S2 n={n}",
              dims.dim_class_one("CP:1", (n,)) == dims.dim_class_one("S:2", (n,)))
    z = zeta.zeta_type_I("S:3", 1.0, 1e-10)
    check("zeta S:3 s=1", abs(z.value - math.pi ** 2 / 6) < 1e-8,
          f"value {z.value}")
    z = zeta.zeta_type_I("S:2", 2.0, 1e-10)
    check("zeta S:2 s=2", abs(z.value - math.pi ** 2 / 8) < 1e-8,
          f"value {z.value}")
    res = genseries.zero_identity_residual([1.0, 2.0, 4.0], [0.0, 0.0, 0.0])
    check("zero identity", res < 1e-12, f"residual {res}")
    ortho = max(sphere_oracle.orthogonality_residual(n, m)
                for n in range(6) for m in range(6))
    check("S2 orthogonality", ortho < 1e-12, f"max residual {ortho}")
    ok = all(flag for _, flag, _ in checks)
    return {"ok": ok,
            "checks": [{"name": n, "ok": f, "detail": d} for n, f, d in checks]}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload = _run(args)
    except WittenZetaError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return _DOMAIN_EXIT
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}),
              file=sys.stderr)
        return _USAGE_EXIT
    elapsed = time.perf_counter() - started
    record = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k != "command"},
        "result": payload,
        "version": __version__,
    }
    if args.command == "dims-table" and getattr(args, "format", "csv") == "csv":
        print("n,dim,inv_power")
        for row in payload["rows"]:
            print(",".join("" if v is None else str(v)
                           for v in (row["n"], row["dim_float"], row["inv_power"])))
    elif args.command == "spaces" and args.format == "csv":
        print("id,cartan_label,family,rank,dim")
        for entry in payload:
            print(f"{entry['id']},{entry['cartan_label']},{entry['family']},"
                  f"{entry['rank']},{entry['dim']}")
    else:
        print(json.dumps(_strict(record), sort_keys=True, allow_nan=False))
    print(f"elapsed_s={elapsed:.6f}", file=sys.stderr)
    if args.command == "selfcheck" and not payload["ok"]:
        return _DOMAIN_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
