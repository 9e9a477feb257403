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

BOUNDARY_KEYS = {"Z", "C", "margin", "kummer_Z", "residual", "iterations", "method"}
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
    assert env["results"]["kummer_Z"] == pytest.approx(env["results"]["Z"], rel=1e-14)
    assert env["results"]["method"] == "secant_polished"
    assert env["config"]["seed"] == 20240601
    # reader round-trip
    assert json.loads(json.dumps(env)) == env


def test_boundary_excursion_constant_absent_elsewhere(capsys):
    code, out = run_cli(capsys, "boundary", "--alpha", "2", "--n", "2")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["C"] is None
    assert env["results"]["kummer_Z"] == 2.0


def test_boundary_integral_family_large_alpha(capsys):
    # Kummer's root is reported for every pair, not only the former families
    for alpha, n in (("80", "78"), ("7", "2"), ("5", "1"), ("0.3", "17")):
        code, out = run_cli(capsys, "boundary", "--alpha", alpha, "--n", n)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["kummer_Z"] == pytest.approx(res["Z"], rel=1e-13)


def test_boundary_integral_form_breakdown_keeps_series_root(capsys):
    # n = 2 at alpha = 120, where a quadrature form once underflowed and was
    # reported as null
    code, out = run_cli(capsys, "boundary", "--alpha", "120", "--n", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert math.isfinite(res["Z"])
    assert res["kummer_Z"] == pytest.approx(res["Z"], rel=1e-13)


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
    assert json.loads(proc.stdout)["results"]["kummer_Z"] is not None


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


def test_sweep_refuses_repeated_multipliers(capsys):
    # a second m = 1 row used to print "candidate": true with a paired mean
    # and stderr of 0.0 against the first
    assert main(["sweep", "--multipliers", "1,1", "--paths", "64", "--steps", "16"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "multipliers must be distinct, got 1.0 repeated" in err


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
        ["dp-oracle", "--q-max", "2"],  # ymax at or below Z(3,1) = 2.26
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


def test_verify_appendix_past_float_range_is_usage_error(capsys):
    # the bound iterates leave float range at r = 145, and gamma**r at r = 320
    assert main(["verify-appendix", "--r-max", "400"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "r_max=400" in err and "float range" in err


def test_value_payoff_past_float_range_is_usage_error(capsys):
    # 1e308^30 overflows Python's float ``**``
    assert main(["value", "--alpha", "0.05", "--n", "60", "--q0", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: --q0 1e+308:") and "float range" in err


@pytest.mark.parametrize(
    "error",
    [
        NoRootError("no sign change"),
        TruncationError("K_MAX reached"),
        AccuracyError("residual too large"),
        RangeError("no sign change below ymax"),
        LatticeError("complementarity residual 1.000e-03 exceeds 1e-12"),
    ],
)
def test_typed_numeric_failure_keeps_exit_one(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    # the dp-oracle handler imports fd_value from the oracles module when it runs
    monkeypatch.setattr("besselstop.oracles.fd_value", fail)
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
        "multiplier", "Z_level", "mean", "stderr", "plain_mean", "plain_stderr", "controls",
        "ci95", "stop_fraction", "candidate", "paired_mean_vs_candidate", "paired_stderr_vs_candidate",
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
    assert set(res) == {
        "Z", "scheme", "mean", "stderr", "plain_mean", "plain_stderr", "controls", "ci95",
        "stop_fraction", "n_paths", "warning",
    }
    assert res["scheme"] == "exact"
    assert res["n_paths"] == 400
    assert res["stderr"] < res["plain_stderr"]
    assert 0 < res["controls"] <= 32  # the rank kept of two controls at each of 16 caps
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
        capsys, "dp-oracle", "--alpha", "3", "--n", "1", "--t0", "0.5",
        "--q-steps", "1000", "--q-max", "9",
    )
    env = json.loads(out)
    assert code == 0
    res = env["results"]
    assert set(res) == {
        "value_at_origin", "candidate_value", "rel_gap", "q_steps", "q_max", "Z_fd",
        "complementarity_residual", "boundary_estimate_t0", "boundary_scale_Z",
    }
    # signed: the lattice reads 3.5e-6 above U* here
    assert 0.0 < res["rel_gap"] <= 3e-5
    assert res["rel_gap"] == pytest.approx(res["value_at_origin"] / res["candidate_value"] - 1.0)
    assert res["value_at_origin"] == pytest.approx(0.9711974211 * 0.5**0.5, rel=3e-5)
    assert (res["q_steps"], res["q_max"]) == (1000, 9.0)
    assert abs(res["Z_fd"] - res["boundary_scale_Z"]) <= 9.0 / 1000
    assert res["boundary_estimate_t0"] == pytest.approx(0.5 * res["Z_fd"])
    assert res["complementarity_residual"] <= 1e-12


def test_ode_oracle_payload(capsys):
    code, out = run_cli(capsys, "ode-oracle", "--alpha", "1", "--n", "1")
    env = json.loads(out)
    assert code == 0
    assert env["results"]["abs_gap"] <= 1e-6
    assert env["results"]["max_residual"] <= 1e-8
    # the first shot spans half of default_ymax(1, 1) = 4
    assert env["results"]["ymax"] == pytest.approx(2.0)
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


@pytest.mark.parametrize("alpha, n, count", [("5", "3", 13), ("1", "1", 11), ("3", "1", 11)])
def test_verify_lemmas_runs_each_case_once(capsys, alpha, n, count):
    # a pair already in the shape battery adds no second copy of its checks
    code, out = run_cli(capsys, "verify-lemmas", "--alpha", alpha, "--n", n)
    names = [c["name"] for c in json.loads(out)["results"]["checks"]]
    assert code == 0
    assert len(names) == count
    assert len(set(names)) == count


def test_acceptance_subset(capsys):
    code = main(["acceptance", "--criteria", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 0
    env = json.loads(captured.out)
    assert env["results"]["all_passed"] is True
    assert [c["index"] for c in env["results"]["criteria"]] == [1, 2, 3]
    assert "excursion constant" in captured.err


@pytest.mark.parametrize("criteria", ["11", "0", "1,11", "", ","])
def test_acceptance_rejects_unknown_criterion(capsys, criteria):
    # an index outside 1..10, or none at all, is a usage error, not a run
    # that passes unasked
    code = main(["acceptance", "--criteria", criteria])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1..10" in captured.err


@pytest.mark.parametrize("command", ["coeffs", "verify-appendix", "verify-lemmas", "acceptance"])
def test_tol_only_on_commands_that_solve_for_z(capsys, command):
    # these four never read a root tolerance, so the flag is not offered
    with pytest.raises(SystemExit) as exc:
        main([command, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_unwritable_out_path_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused before the command runs: its handler is never called
    value = cli.COMMANDS["value"]._replace(handler=lambda config, params: pytest.fail("ran"))
    monkeypatch.setitem(cli.COMMANDS, "value", value)
    target = tmp_path / "missing" / "x.json"
    assert main(["value", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: cannot write --out: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_out_path_checked_before_a_failed_run_leaves_no_file(tmp_path, capsys):
    # the check opens the path and removes the file it made, so a run that
    # then fails leaves nothing, and an existing file keeps its content
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old")
    for target in (fresh, kept):
        assert main(["value", "--q0", "-1", "--out", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert not fresh.exists()
    assert kept.read_text() == "old"


def _no_constants(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--paths", "1", "--steps", "10"],
        ["simulate", "--paths", "2", "--steps", "10"],
        ["sweep", "--paths", "2", "--steps", "10"],
    ],
)
def test_undefined_quantities_are_json_null(capsys, argv):
    # one antithetic pair has no spread, so every standard error is undefined:
    # null in JSON, which has no NaN, and nan in CSV
    code, out = run_cli(capsys, *argv)
    assert code == 0
    res = json.loads(out, parse_constant=_no_constants)["results"]
    for row in res.get("rows", [res]):
        assert row["stderr"] is None and row["plain_stderr"] is None
        assert row["ci95"] == [None, None]
        if not row.get("candidate", True):
            assert row["paired_stderr_vs_candidate"] is None
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert ",nan" in out


LAYERS = ("besselstop.oracles", "besselstop.verify", "besselstop.acceptance")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["coeffs", "--alpha", "3", "--n", "1"], ("numpy", "scipy", *LAYERS)),
        (["coeffs", "--format", "csv"], ("numpy", "scipy", *LAYERS)),
        (["value", "--t0", "0.2", "--q0", "0.5"], ("scipy", *LAYERS)),
        (["simulate", "--paths", "64", "--steps", "20"], LAYERS),
        (["sweep", "--paths", "64", "--steps", "20", "--format", "csv"], LAYERS),
    ],
)
def test_command_loads_only_the_layers_it_runs(argv, unloaded):
    # a fresh interpreter, since this suite's test modules import every layer
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from besselstop.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"loaded = sorted(m for m in sys.modules if m.startswith({unloaded!r}))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(repo_root),
    )
    assert proc.returncode == 0, proc.stderr


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
