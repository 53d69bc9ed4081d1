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
    # the grade search stops at the largest grade the cap holds
    env = {**_ENV, "WZ_MAX_TERMS": "50000"}
    proc = subprocess.run(
        [sys.executable, "-m", "wittenzeta", "partition2", "--group", "SU:3",
         "--genus", "1", "--area", "1e-6"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout, parse_constant=_reject_constant)["result"]
    assert result["converged"] is False
    assert 0 < result["terms"] <= 50000
    assert math.isfinite(result["tail_bound"])


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


def test_oracle_command():
    proc = run_cli("oracle-s2", "--check", "orthogonality", "--n", "5",
                   "--m", "7")
    result = json.loads(proc.stdout)["result"]
    assert result["residual"] < 1e-13


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


# runs cli.main in a fresh interpreter and reports whether numpy got loaded
_COLD_PROBE = """
import contextlib, io, json, sys
from wittenzeta.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "stdout": out.getvalue()}))
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
])
def test_cold_command_does_not_load_numpy(command):
    probe = _cold_run(command)
    assert probe["code"] == 0
    assert not probe["numpy"]


def test_cold_lattice_command_loads_numpy_on_demand():
    probe = _cold_run("zeta2 --group SU:3 --s 2 --tol 1e-4")
    assert probe["code"] == 0
    assert probe["numpy"]
    result = json.loads(probe["stdout"])["result"]
    assert result["converged"] is True
    assert result["value"] == pytest.approx(4 * math.pi ** 6 / 2835, abs=1e-4)
