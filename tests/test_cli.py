import hashlib
import json
import math
import pathlib
import subprocess
import sys
from dataclasses import asdict

import pytest

from besselstop import cli
from besselstop.boundary import NoRootError
from besselstop.cli import RunConfig, _config_from_args, build_parser, main
from besselstop.oracles import AccuracyError, LatticeError, RangeError
from besselstop.series import TruncationError

BOUNDARY_KEYS = {"Z", "C", "margin", "closed_form_Z", "residual", "iterations", "method"}
ENVELOPE_KEYS = {"tool_version", "config", "results", "timing"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_boundary_json_golden(capsys):
    code, out = run_cli(capsys, "boundary", "--alpha", "3", "--n", "1")
    assert code == 0
    env = json.loads(out)
    assert set(env) == ENVELOPE_KEYS
    assert set(env["results"]) == BOUNDARY_KEYS
    assert env["results"]["Z"] == pytest.approx(2.26020, abs=5e-6)
    assert env["results"]["C"] == pytest.approx(1.50339538, abs=1e-6)
    assert env["results"]["margin"] == pytest.approx(1.26020, abs=5e-6)
    assert env["config"]["seed"] == 20240601
    # reader round-trip
    assert json.loads(json.dumps(env)) == env


def test_boundary_excursion_constant_absent_elsewhere(capsys):
    code, out = run_cli(capsys, "boundary", "--alpha", "2", "--n", "2")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["C"] is None
    assert env["results"]["closed_form_Z"] == pytest.approx(2.0, abs=1e-9)


def test_boundary_integral_family_large_alpha(capsys):
    # (7, 2) is in the second integral family, n = 2 < alpha
    for alpha, n in (("80", "78"), ("7", "2")):
        code, out = run_cli(capsys, "boundary", "--alpha", alpha, "--n", n)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["closed_form_Z"] == pytest.approx(res["Z"], rel=1e-9)


def test_boundary_integral_form_breakdown_keeps_series_root(capsys):
    # the second integral form, summed in logs, holds at alpha = 120 (it
    # underflowed under quadrature and was reported as null)
    code, out = run_cli(capsys, "boundary", "--alpha", "120", "--n", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert math.isfinite(res["Z"])
    assert res["closed_form_Z"] == pytest.approx(res["Z"], rel=1e-10)


@pytest.mark.parametrize("alpha", ["40", "100"])
def test_boundary_second_integral_form_prints_no_warning(alpha):
    # a fresh interpreter, so no warning filter or registry of this suite applies
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "besselstop", "boundary", "--alpha", alpha, "--n", "2"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(repo_root),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["closed_form_Z"] is not None


def test_value_json(capsys):
    code, out = run_cli(capsys, "value", "--alpha", "1", "--n", "1", "--t0", "0", "--q0", "0")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["U"] == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert env["results"]["region"] == "continuation"


def test_usage_error_exit_codes(capsys):
    assert main(["boundary", "--alpha", "-1", "--n", "1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "--alpha", "3", "--n", "1", "--config", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
    for bad in ("a,b", "nan", "1,inf", "-1"):
        assert main(["sweep", "--multipliers", bad, "--paths", "10", "--steps", "5"]) == 2
        capsys.readouterr()
    for bad in ("-1", "nan", "inf"):
        assert main(["value", "--q0", bad]) == 2
        capsys.readouterr()
    # SimConfig rejects these; the CLI reports them as usage errors
    for cmd in ("simulate", "sweep"):
        for flag, bad in (("--q0", "-1"), ("--q0", "nan"), ("--q0", "inf"), ("--t0", "1.0")):
            assert main([cmd, flag, bad, "--paths", "10", "--steps", "5"]) == 2
            capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scheme", "euler"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["boundary", "--tol"], ["coeffs", "--ymax"], ["dp-oracle", "--q-max"], ["coeffs", "--eps"]],
)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_usage_error(capsys, argv, bad):
    # rejected before any solver runs, so no numeric-failure payload (exit 1)
    assert main([argv[0], f"{argv[1]}={bad}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{argv[1]} must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--tol", "0"],
        ["boundary", "--tol", "-1"],
        ["coeffs", "--ymax", "-1"],
        ["coeffs", "--eps", "0"],
        ["dp-oracle", "--q-max", "-1"],
        ["dp-oracle", "--t-steps", "10"],
        ["dp-oracle", "--q-steps", "10"],
        ["dp-oracle", "--t0", "1.0"],
        ["verify-appendix", "--r-max", "3"],
        ["verify-appendix", "--inv-steps", "0"],
    ],
)
def test_argument_rejected_by_library_is_usage_error(capsys, argv):
    # the library's ValueError names the bad argument; no numeric-failure payload
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ")


def test_verify_appendix_r_max_below_seven_names_r_max(capsys):
    assert main(["verify-appendix", "--r-max", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "r_max" in err


@pytest.mark.parametrize(
    "error",
    [
        NoRootError("no sign change"),
        TruncationError("K_MAX reached"),
        AccuracyError("residual too large"),
        RangeError("no sign change below ymax"),
        LatticeError("trinomial weights went negative", suggested_q_steps=1600),
    ],
)
def test_typed_numeric_failure_keeps_exit_one(capsys, monkeypatch, error):
    # LatticeError is a ValueError, yet it reports a lattice too coarse for valid
    # arguments, so it stays a numeric failure with its payload
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "dp_value", fail)
    assert main(["dp-oracle"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"type": type(error).__name__, "message": str(error)}


@pytest.mark.parametrize(
    "command",
    ["boundary", "coeffs", "value", "simulate", "sweep", "dp-oracle", "ode-oracle",
     "verify-appendix", "verify-lemmas", "acceptance"],
)
def test_config_defaults_come_from_run_config(command):
    # every flag left out takes its default from RunConfig, the config echoed by run()
    config = _config_from_args(build_parser().parse_args([command]))
    assert asdict(config) == asdict(RunConfig(command))


def test_boundary_csv_curve(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _ = run_cli(
        capsys, "boundary", "--alpha", "3", "--n", "1",
        "--format", "csv", "--out", str(out_file), "--t-points", "11",
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,z_q,x_boundary,value_at_zero"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2.260197658, abs=1e-6)
    assert float(first[2]) == pytest.approx(1.503395376, abs=1e-6)
    assert float(first[3]) == pytest.approx(0.9711974211, abs=1e-6)
    last = lines[-1].split(",")
    assert [float(v) for v in last] == [1.0, 0.0, 0.0, 0.0]
    # locale independence: one period per number, no comma inside fields
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_sweep_csv_deterministic_bytes(tmp_path, capsys):
    digests = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        code, _ = run_cli(
            capsys, "sweep", "--alpha", "3", "--n", "1",
            "--paths", "500", "--steps", "100", "--seed", "7",
            "--multipliers", "0.5,1,2", "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        digests.append(hashlib.sha256(out_file.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "multiplier,Z_level,mean,stderr,ci_lo,ci_hi,stop_fraction,candidate"
    assert len(lines) == 4
    candidate_flags = [line.split(",")[-1] for line in lines[1:]]
    assert candidate_flags == ["false", "true", "false"]


def test_coeffs_json_golden(capsys):
    code, out = run_cli(capsys, "coeffs", "--alpha", "3", "--n", "1")
    env = json.loads(out)
    assert code == 0
    assert set(env["results"]) == {"K", "eps", "ymax", "coeffs"}
    coeffs = env["results"]["coeffs"]
    assert coeffs[0] == 1.0
    assert coeffs[1] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert len(coeffs) == env["results"]["K"] + 1


def test_coeffs_csv_table(tmp_path, capsys):
    out_file = tmp_path / "coeffs.csv"
    code, _ = run_cli(
        capsys, "coeffs", "--alpha", "3", "--n", "1", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "k,A_k"
    assert lines[1] == "0,1"
    assert float(lines[2].split(",")[1]) == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_sweep_json_golden_keys(capsys):
    code, out = run_cli(
        capsys, "sweep", "--alpha", "3", "--n", "1",
        "--paths", "300", "--steps", "60", "--seed", "11", "--multipliers", "0.5,1",
    )
    env = json.loads(out)
    assert code == 0
    assert set(env["results"]) == {"base_Z", "argmax_multiplier", "rows"}
    row_keys = {
        "multiplier", "Z_level", "mean", "stderr", "ci95", "stop_fraction",
        "candidate", "paired_mean_vs_candidate", "paired_stderr_vs_candidate",
    }
    assert all(set(r) == row_keys for r in env["results"]["rows"])
    assert env["results"]["rows"][1]["candidate"] is True


def test_simulate_json_payload(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "3", "--n", "1",
        "--paths", "400", "--steps", "100", "--seed", "3",
    )
    env = json.loads(out)
    assert code == 0
    res = env["results"]
    assert res["scheme"] == "exact"
    assert res["n_paths"] == 400
    assert res["ci95"][0] <= res["mean"] <= res["ci95"][1]
    assert env["config"]["paths"] == 400


def test_simulate_fractional_dimension_off_origin(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alpha", "2.5", "--n", "1", "--t0", "0.3", "--q0", "0.2",
        "--paths", "200", "--steps", "80", "--seed", "3",
    )
    env = json.loads(out)
    assert code == 0
    assert env["results"]["scheme"] == "exact"
    assert 0.0 < env["results"]["mean"] < 2.0


def test_dp_oracle_payload(capsys):
    code, out = run_cli(
        capsys, "dp-oracle", "--alpha", "3", "--n", "1",
        "--t-steps", "150", "--q-steps", "120",
    )
    env = json.loads(out)
    assert code == 0
    assert env["results"]["rel_gap"] <= 0.05
    assert env["results"]["value_at_origin"] == pytest.approx(0.9712, abs=0.05)


def test_ode_oracle_payload(capsys):
    code, out = run_cli(capsys, "ode-oracle", "--alpha", "1", "--n", "1")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["abs_gap"] <= 1e-6
    assert env["results"]["max_residual"] <= 1e-8
    assert env["results"]["ymax"] == pytest.approx(4.0)
    assert env["results"]["step"] == pytest.approx(1e-3)


def test_verify_appendix_payload(capsys):
    code, out = run_cli(capsys, "verify-appendix", "--r-max", "20", "--inv-steps", "5")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["all_passed"] is True


def test_verify_lemmas_payload(capsys):
    code, out = run_cli(capsys, "verify-lemmas", "--alpha", "5", "--n", "3")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["all_passed"] is True


def test_acceptance_subset(capsys):
    code = main(["acceptance", "--criteria", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 0
    env = json.loads(captured.out)
    assert env["results"]["all_passed"] is True
    assert [c["index"] for c in env["results"]["criteria"]] == [1, 2, 3]
    assert "excursion constant" in captured.err


def test_csv_flat_fallback_for_scalar_results(tmp_path, capsys):
    out_file = tmp_path / "v.csv"
    code, _ = run_cli(
        capsys, "value", "--alpha", "1", "--n", "1", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "U" in keys


def test_module_entry_point():
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "besselstop", "boundary", "--alpha", "1", "--n", "1"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(repo_root),
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["results"]["Z"] == pytest.approx(1.0, abs=1e-9)
