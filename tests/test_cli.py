import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the subprocesses import the package from this checkout, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = {**os.environ, "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(
            p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "wittenzeta", *args],
        capture_output=True, text=True, env=env or _ENV,
    )


def test_spaces_dump():
    proc = run_cli("spaces", "--format", "json")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    spaces = record["result"]
    ids = {entry["id"] for entry in spaces}
    assert {"S:2", "FII", "EVII", "EIII"} <= ids
    fii = next(e for e in spaces if e["id"] == "FII")
    assert fii["dim"] == 16
    assert fii["m"] == [8] and fii["m2"] == [7]
    evii = next(e for e in spaces if e["id"] == "EVII")
    assert evii["m"] is None


def test_spaces_csv():
    proc = run_cli("spaces", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "id,cartan_label,family,rank,dim"
    assert any(line.startswith("FII,") for line in lines)
    # a null is an empty field, as in dims-table: EVII has no dimension yet
    assert "EVII,E7/E6xSO(2),C,3," in lines
    assert not any("None" in line for line in lines)


def test_dim_command_exact_and_float():
    proc = run_cli("dim", "--space", "FII", "--n", "1")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["dim_exact"] == "26"
    assert result["dim_float"] == pytest.approx(26.0, rel=1e-9)
    assert result["factored"]["c"] == "1/16765056000"


def test_dim_command_past_the_lgamma_range():
    # dim_float comes from the exact value; dim_log from the gamma path
    proc = run_cli("dim", "--space", "S:3", "--n", "100000000000000000")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    exact = int(result["dim_exact"])
    assert exact == (10 ** 17 + 1) ** 2
    assert result["dim_float"] == float(exact)
    assert result["dim_log"] == pytest.approx(math.log(exact), rel=1e-12)


def test_dim_command_past_the_float_range():
    # a pairing of 10^400 is past the float range; the gamma path takes its
    # log from the exact pairing + rho
    proc = run_cli("dim", "--space", "S:3", "--n", str(10 ** 400))
    assert proc.returncode == 0 and proc.stderr.startswith("elapsed_s=")
    result = json.loads(proc.stdout)["result"]
    exact = int(result["dim_exact"])
    assert exact == (10 ** 400 + 1) ** 2
    assert result["dim_float"] is None
    assert result["dim_log"] == pytest.approx(math.log(exact), rel=1e-9)


def test_dim_command_coords():
    proc = run_cli("dim", "--space", "AI:3", "--coords", "1,1")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["dim_exact"] == "27"


@pytest.mark.parametrize("coords", ["1", "1,1,1"])
def test_dim_wrong_coordinate_count(coords):
    proc = run_cli("dim", "--space", "AI:3", "--coords", coords)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "UnknownSpace"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_unbounded_tail_is_strict_json_null():
    # past r/J = 1/6 but below the shares' convergence point 0.256 of EI
    proc = run_cli("zeta", "--space", "EI", "--s", "0.2", "--max-box", "2")
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["tail_bound"] is None
    assert result["converged"] is False
    assert set(result) == {"value", "tail_bound", "terms", "converged", "rigorous"}


def test_zeta_command_value_and_bound():
    proc = run_cli("zeta", "--space", "S:2", "--s", "2", "--tol", "1e-8")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == pytest.approx(math.pi ** 2 / 8, abs=1e-8)
    assert result["tail_bound"] < 1e-8
    assert result["converged"] is True


def test_zeta2_command():
    proc = run_cli("zeta2", "--group", "SU:2", "--s", "2")
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == pytest.approx(math.pi ** 2 / 6, abs=1e-8)


def test_partition_commands():
    proc = run_cli("partition", "--space", "S:3", "--genus", "1",
                   "--area", "0.01")
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["result"]["value"]
    assert 1.0 < value < math.pi ** 2 / 6
    proc = run_cli("partition2", "--group", "SU:2", "--genus", "2",
                   "--area", "0.1")
    assert proc.returncode == 0


def _elapsed_s(stderr: str) -> float:
    return float(next(line for line in stderr.splitlines()
                      if line.startswith("elapsed_s="))[len("elapsed_s="):])


def test_partition2_e8_large_area_certifies_fast():
    proc = run_cli("partition2", "--group", "E8", "--genus", "0", "--area", "5")
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["converged"] is True and result["rigorous"] is True
    assert result["value"] == pytest.approx(1.0, abs=1e-8)
    assert _elapsed_s(proc.stderr) < 1.0


def test_partition2_e6_converges_in_few_terms():
    proc = run_cli("partition2", "--group", "E6", "--genus", "0", "--area", "0.5")
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["converged"] is True and result["tail_bound"] <= 1e-8
    assert result["terms"] <= 1000


def test_partition2_under_a_small_cap_ends_unconverged():
    # the grade search stops at the largest grade the cap holds; at genus 2,
    # as genus 1 is answered in closed form over the flats at this area
    env = {**_ENV, "WZ_MAX_TERMS": "50000"}
    proc = subprocess.run(
        [sys.executable, "-m", "wittenzeta", "partition2", "--group", "SU:3",
         "--genus", "2", "--area", "1e-6"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["converged"] is False
    assert 0 < result["terms"] <= 50000
    assert math.isfinite(result["tail_bound"])


def test_partition_with_no_bound_in_the_cap_stops_at_one_term():
    proc = run_cli("partition", "--space", "S:2", "--genus", "0", "--area", "1e-300")
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["terms"] == 1 and result["tail_bound"] is None
    assert result["converged"] is False


def test_partition2_dual_past_the_float_range_is_not_converged():
    # the dual's leading term overflows while its tail bound underflows to 0
    proc = run_cli("partition2", "--group", "SU:3", "--genus", "0", "--area", "1e-300")
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["value"] is None and result["tail_bound"] is None
    assert result["converged"] is False


def _genus_one(command, ident, area):
    """The genus-1 heat sum command at ``area``, warnings as errors: its
    result and the seconds it reports."""
    flag = "--group" if command == "partition2" else "--space"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "wittenzeta", command, flag, ident,
         "--genus", "1", "--area", area],
        capture_output=True, text=True, env=_ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout, parse_constant=_reject_constant)["result"], \
        _elapsed_s(proc.stderr)


@pytest.mark.parametrize("command,ident,area", [
    ("partition", "AI:3", "5e-324"), ("partition", "AI:3", "1e-320"),
    ("partition", "AI:3", "1e-323"), ("partition2", "SU:3", "5e-324")])
def test_subnormal_area_heat_sum_ends_unconverged_at_once(command, ident, area):
    # the majorant's one-coordinate sums overflow there; inf * inf / inf made
    # its spill NaN, which no tolerance meets, and the grade search never ended
    result, seconds = _genus_one(command, ident, area)
    assert result["converged"] is False and result["tail_bound"] is None
    assert seconds < 1.0


@pytest.mark.parametrize("area", ["1e-320", "1e-323"])
def test_subnormal_area_heat_sum_at_positive_exponent_is_certified_by_a_box(area):
    # GI at genus 1 sums d^-1 q^{c2}: where the majorant overflows, the zeta
    # bound outside a box bounds its tail, and that box is the zeta sum's
    result, seconds = _genus_one("partition", "GI", area)
    zeta = json.loads(run_cli("zeta", "--space", "GI", "--s", "1").stdout)["result"]
    assert result["converged"] is True and result["tail_bound"] <= 1e-8
    assert result["terms"] == zeta["terms"]
    assert abs(result["value"] - zeta["value"]) <= 2 * zeta["tail_bound"]
    assert seconds < 1.0


def test_boundary_command():
    proc = run_cli("boundary", "--space", "S:2", "--genus", "1",
                   "--theta", "3.14159", "--area", "0.2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["converged"] is True


def test_genseries_commands():
    proc = run_cli("genseries", "--kappa", "1,2", "--T", "0,0")
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == pytest.approx(0.5, abs=1e-10)
    assert result["partial_fraction_value"] == pytest.approx(0.5, abs=1e-10)
    assert result["zero_identity_residual"] < 1e-12

    proc = run_cli("pizeta", "--pi", "1,1", "--kappa", "1,2")
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == pytest.approx(2 * math.pi ** 2 / 6 - 3.25,
                                            abs=1e-9)

    proc = run_cli("zetagen", "--space", "S:2", "--s", "2")
    result = json.loads(proc.stdout)["result"]
    assert abs(result["difference"]) < 1e-9


@pytest.mark.parametrize("args", [("pizeta", "--pi", "0,0", "--kappa", "1e300,2e300"),
                                  ("genseries", "--kappa", "1e300,2e300", "--T", "0,0")])
def test_series_with_huge_shifts_is_certified(args):
    # (kappa_j - kbar)^2 is past the float range: the tail takes its
    # first-order bound, and the sum, log 2 / 1e300, lies within it
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["converged"] and result["value"] == 0.0
    assert math.log(2) / 1e300 <= result["tail_bound"] < 1e-290


def test_oracle_command():
    proc = run_cli("oracle-s2", "--check", "orthogonality", "--n", "5",
                   "--m", "7")
    record = json.loads(proc.stdout)
    assert record["result"]["residual"] < 1e-13
    assert record["inputs"]["order"] == 128


def test_oracle_n_and_m_are_orthogonality_only():
    # the orthogonality check prints the n and m it ran, given or not; the
    # delta check reads neither, so it prints null and rejects them
    given = run_cli("oracle-s2", "--check", "orthogonality", "--n", "5", "--m", "7")
    assert given.returncode == 0
    assert run_cli("oracle-s2", "--check", "orthogonality").stdout == given.stdout
    inputs = json.loads(run_cli("oracle-s2", "--check", "delta").stdout)["inputs"]
    assert inputs["n"] is None and inputs["m"] is None
    for flag in ("--n", "--m"):
        proc = run_cli("oracle-s2", "--check", "delta", flag, "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr.splitlines()[0])["error"] == "usage"


def test_oracle_delta_honours_order():
    default = run_cli("oracle-s2", "--check", "delta")
    assert default.returncode == 0
    record = json.loads(default.stdout)
    assert record["inputs"]["order"] == 512
    coarse = json.loads(run_cli("oracle-s2", "--check", "delta", "--order", "129").stdout)
    assert coarse["inputs"]["order"] == 129
    assert coarse["result"]["errors"] != record["result"]["errors"]
    # 64 nodes cannot integrate the N = 128 kernel
    proc = run_cli("oracle-s2", "--check", "delta", "--order", "64")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_selfcheck_passes():
    proc = run_cli("selfcheck")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["ok"] is True


def test_usage_error_exit_code():
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("zeta", "--space").returncode == 1
    assert run_cli("genseries", "--kappa", "1,zz", "--T", "0,0").returncode == 1
    proc = run_cli("dims-table", "--space", "S:2", "--nmax", "-3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "usage"


def test_domain_error_exit_code():
    proc = run_cli("zeta", "--space", "S:2", "--s", "1")
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[0])
    assert err["error"] == "DivergenceError"
    proc = run_cli("dim", "--space", "EVII", "--coords", "0,0,0")
    assert proc.returncode == 2
    proc = run_cli("zeta", "--space", "NOPE:1", "--s", "2")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("dim", "--space", "AI:3", "--coords", "1,,2"),
    ("boundary", "--space", "S:2", "--genus", "1", "--theta", "", "--area", "0.2"),
])
def test_empty_list_entry_is_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "usage"


@pytest.mark.parametrize("args", [
    ("zeta", "--space", "S:2", "--s", "nan"),
    ("zeta", "--space", "AI:3", "--s", "nan"),
    ("partition", "--space", "S:3", "--genus", "1", "--area", "inf"),
    ("oracle-s2", "--check", "orthogonality", "--n", "-1", "--m", "7"),
    ("oracle-s2", "--check", "orthogonality", "--n", "-1", "--m", "-1"),
    ("dims-table", "--space", "S:2", "--s", "nan"),
    ("genseries", "--kappa", "1,2", "--T", "nan,0"),
    ("pizeta", "--pi", "1,1", "--kappa", "1,1e400"),
    ("genseries", "--kappa", "1e400,2", "--T", "0,0"),
    ("zeta", "--space", "AI:3", "--s", "2", "--max-box", "-1"),
    ("zeta", "--space", "S:2", "--s", "2", "--max-box", "-1"),
    ("zeta2", "--group", "SU:2", "--s", "2", "--max-box", "-5"),
    ("zeta", "--space", "S:5", "--s", "1e308"),
    ("pizeta", "--pi", "1,1" + "0" * 400, "--kappa", "1,2"),
    ("zetagen", "--space", "S:2", "--s", "1" + "0" * 400),
    ("partition", "--space", "S:2", "--genus", "1" + "0" * 400, "--area", "0.1"),
    # 1 + kappa_j - T_j = 2^-53 in 20 factors: the first term is past the float range
    ("genseries", "--kappa", ",".join(["0"] * 20), "--T", ",".join(["0.9999999999999999"] * 20)),
])
def test_non_finite_input_exit_code(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "DomainError"


@pytest.mark.parametrize("args", [
    ("partition", "--space", "S:2", "--genus", "1", "--area", "0.5", "--tol", "-1"),
    ("boundary", "--space", "S:2", "--genus", "1", "--theta", "1.0", "--area", "0.2",
     "--tol", "nan"),
    ("pizeta", "--pi", "1", "--kappa", "1", "--tol", "-1"),
])
def test_bad_tolerance_exit_code(args):
    proc = run_cli(*args, env={**_ENV, "WZ_MAX_TERMS": "1000"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "DomainError"


def test_determinism_identical_stdout():
    a = run_cli("zeta", "--space", "S:3", "--s", "2")
    b = run_cli("zeta", "--space", "S:3", "--s", "2")
    assert a.stdout == b.stdout
    a = run_cli("spaces")
    b = run_cli("spaces")
    assert a.stdout == b.stdout


def test_round_trip_reproduces_results():
    first = json.loads(run_cli("dim", "--space", "CP:3", "--n", "4").stdout)
    # re-feed the echoed inputs and compare payloads bit for bit
    n = first["inputs"]["n"]
    space = first["inputs"]["space"]
    second = json.loads(run_cli("dim", "--space", space, "--n", str(n)).stdout)
    assert first["result"] == second["result"]


def test_dims_table_csv():
    proc = run_cli("dims-table", "--space", "S:2", "--s", "2", "--nmax", "4")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,dim,inv_power"
    assert len(lines) == 6
    row = lines[2].split(",")
    assert float(row[1]) == 3.0
    assert float(row[2]) == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("space,rank", [("S:2", 1), ("AI:3", 2)])
def test_dims_table_inverse_power_is_the_float_power(space, rank):
    # d^-s is taken from the float d, not as exp(-s log d), which is a few
    # ulps off: AI:3 at n = 3 printed 8.499859752314094e-06 for 343^-2
    proc = run_cli("dims-table", "--space", space, "--s", "2", "--nmax", "20",
                   "--format", "json")
    rows = json.loads(proc.stdout)["result"]["rows"]
    assert len(rows) == 21
    for row in rows:
        assert row["dim_float"] == float(row["dim"]) == float(int(row["dim"]))
        assert row["inv_power"] == float(row["dim"]) ** -2.0, row
    if rank == 2:
        assert rows[3]["inv_power"] == 343.0 ** -2 == 8.499859752314087e-06
        assert rows[2]["inv_power"] == 6.4e-05


def test_dims_table_past_float_range():
    # d^2 is past the float range from n = 10 on, d itself from n = 184 on
    proc = run_cli("dims-table", "--space", "EVIII", "--s", "-2", "--nmax", "12",
                   "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["result"]["rows"]
    assert rows[2]["inv_power"] == pytest.approx(float(rows[2]["dim"]) ** 2)
    assert rows[12]["inv_power"] is None and rows[12]["dim_float"] > 1e150
    proc = run_cli("dims-table", "--space", "EVIII", "--nmax", "400")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 402
    n, dim, inv = lines[185].split(",")
    assert (n, dim) == ("184", "") and 0.0 < float(inv) < 1e-300
    assert lines[-1] == "400,,0.0"
    assert float(lines[2].split(",")[2]) == pytest.approx(1.0 / float(lines[2].split(",")[1]))


def test_max_terms_env_cap():
    env = {**_ENV, "WZ_MAX_TERMS": "100"}
    proc = run_cli("zeta", "--space", "AI:3", "--s", "2", "--tol", "1e-10",
                   env=env)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["terms"] <= 100
    assert result["converged"] is False


def test_invalid_max_terms_env_is_usage_error():
    env = {**_ENV, "WZ_MAX_TERMS": "abc"}
    proc = run_cli("zeta", "--space", "S:2", "--s", "2", env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[0])["error"] == "usage"


# runs cli.main in a fresh interpreter and reports whether numpy got loaded,
# which of the dataclass machinery's modules got loaded, and which library
# modules were loaded by the import and by the command
_COLD_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("wittenzeta."))
from wittenzeta.cli import main
imported = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out, \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "machinery": [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  "stdout": out.getvalue(), "imported": imported,
                  "added": sorted(set(loaded()) - set(imported))}))
"""


def _cold_run(command):
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, *command.split()],
                          capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command", [
    "zeta --space S:2 --s 2",
    "zetagen --space S:2 --s 2",
    "partition --space S:3 --genus 1 --area 0.01",
    "dim --space EVIII --coords 1,1,1,1,1,1,1,1",
    "spaces --format json",
    "zeta2 --group SU:2 --s 2",
    "partition2 --group SO:3 --genus 2 --area 0",
    "partition2 --group SU:3 --genus 0 --area 0.2",
    "selfcheck",
    "oracle-s2 --check orthogonality --n 5 --m 7",
    "oracle-s2 --check delta",
])
def test_cold_command_does_not_load_numpy(command):
    probe = _cold_run(command)
    assert probe["code"] == 0
    assert not probe["numpy"]


@pytest.mark.parametrize("command, code", [
    ("spaces", 0),
    ("dim --space EVIII --coords 1,1,1,1,1,1,1,1", 0),
    ("zeta --space S:2 --s 2", 0),
    ("partition --space S:3 --genus 1 --area 0.01", 0),
    ("selfcheck", 0),
    ("zeta --space S:2", 1),
])
def test_cold_command_skips_the_dataclass_machinery(command, code):
    probe = _cold_run(command)
    assert probe["code"] == code
    assert probe["machinery"] == []


_RANK_ONE = ["wittenzeta.dims", "wittenzeta.genseries", "wittenzeta.rootdata",
             "wittenzeta.specfun", "wittenzeta.zeta"]


@pytest.mark.parametrize("command, code, added", [
    ("spaces --format json", 0, ["wittenzeta.rootdata"]),
    ("zeta --space S:2", 1, []),
    # a rank-one or exact command never loads the lattice module, weights
    ("zeta --space S:2 --s 2", 0, _RANK_ONE),
    ("zetagen --space S:2 --s 2", 0, _RANK_ONE),
    ("partition --space S:3 --genus 1 --area 0.01", 0,
     sorted(_RANK_ONE + ["wittenzeta.partition"])),
    # dim imports dims alone, which loads neither weights nor partition
    ("dim --space EVIII --coords 1,1,1,1,1,1,1,1", 0,
     ["wittenzeta.dims", "wittenzeta.rootdata", "wittenzeta.specfun"]),
    ("selfcheck", 0, sorted(_RANK_ONE + ["wittenzeta.sphere_oracle"])),
    ("zeta2 --group SU:3 --s 2 --tol 1e-4", 0, sorted(_RANK_ONE + ["wittenzeta.weights"])),
    # a sphere sum that its Poisson dual answers loads the dual, not weights
    ("partition2 --group SU:3 --genus 0 --area 0.2", 0,
     sorted(_RANK_ONE + ["wittenzeta.dual", "wittenzeta.partition"])),
])
def test_cold_command_imports_only_what_it_runs(command, code, added):
    probe = _cold_run(command)
    assert probe["imported"] == ["wittenzeta.cli", "wittenzeta.errors",
                                 "wittenzeta.result"]
    assert probe["code"] == code
    assert probe["added"] == added


def test_cold_lattice_command_loads_numpy_on_demand():
    probe = _cold_run("zeta2 --group SU:3 --s 2 --tol 1e-4")
    assert probe["code"] == 0
    assert probe["numpy"]
    result = json.loads(probe["stdout"])["result"]
    assert result["converged"] is True
    assert result["value"] == pytest.approx(4 * math.pi ** 6 / 2835, abs=1e-4)
