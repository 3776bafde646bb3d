"""Command-line entry points: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import pytest
import yaml

from jumpflow.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg(name):
    return os.path.join(CONFIGS, name)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_rotation_artifacts(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", _cfg("rotation.yaml"),
                 "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["driver.csv", "run_meta.txt", "summary.json",
                     "trajectory.csv"]
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["n_steps"] > 0
    assert summary["final_state"]


def test_simulate_is_byte_reproducible(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", _cfg("sphere_tangent.yaml"),
                 "--out", out_a]) == 0
    assert main(["simulate", "--config", _cfg("sphere_tangent.yaml"),
                 "--out", out_b]) == 0
    for name in ("driver.csv", "trajectory.csv", "summary.json"):
        assert _read(os.path.join(out_a, name)) == _read(
            os.path.join(out_b, name))


def test_seed_override_changes_driver(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", _cfg("sphere_tangent.yaml"),
                 "--out", out_a, "--seed", "1"]) == 0
    assert main(["simulate", "--config", _cfg("sphere_tangent.yaml"),
                 "--out", out_b, "--seed", "2"]) == 0
    assert _read(os.path.join(out_a, "driver.csv")) != _read(
        os.path.join(out_b, "driver.csv"))


def test_decompose_rotation_runs_to_horizon(tmp_path):
    out = str(tmp_path / "run")
    assert main(["decompose", "--config", _cfg("rotation.yaml"),
                 "--out", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["tau_reason"] == "horizon"
    assert not summary["stopped_early"]
    rows = [json.loads(line) for line in
            _read(os.path.join(out, "diagnostics.jsonl")).splitlines()[1:]]
    assert rows and all("det_block" in r for r in rows)


def test_decompose_jump_onto_degenerate_exits_4(tmp_path):
    out = str(tmp_path / "run")
    assert main(["decompose", "--config", _cfg("rotation_jump.yaml"),
                 "--out", out]) == 4
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["stopped_early"]
    assert summary["tau_reason"] == "jump_target_degenerate"
    assert summary["tau"] == 0.5


def test_verify_ivk_commuting_passes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_commuting.yaml"),
                 "--out", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["passes"]
    assert all(r <= summary["ratio_bound"] for r in summary["ratios"])
    assert summary["jump_concat_residual"] <= 1e-8


def test_verify_ivk_continuous_passes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_continuous.yaml"),
                 "--out", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["passes"]
    assert summary["jump_concat_residual"] is None


def test_convergence_reports_second_order(tmp_path):
    out = str(tmp_path / "run")
    assert main(["convergence", "--config", _cfg("convergence_linear.yaml"),
                 "--out", out]) == 0
    report = json.loads(_read(os.path.join(out, "convergence.json")))
    assert report["order"] > 1.8
    assert len(report["errors"]) == len(report["steps"])


def test_ensemble_outputs_moments(tmp_path):
    out = str(tmp_path / "run")
    assert main(["ensemble", "--config", _cfg("ensemble_linear.yaml"),
                 "--out", out]) == 0
    report = json.loads(_read(os.path.join(out, "ensemble.json")))
    assert report["n_paths"] == 500
    assert report["n_failures"] == 0
    assert len(report["mean"]) == len(report["times"])
    assert report["observable"] == "first"
    assert len(report["observable_mean"]) == len(report["times"])


def _simulate_rotation(tmp_path, driver):
    path = tmp_path / "rotation.yaml"
    path.write_text(yaml.safe_dump({"scenario": "rotation",
                                    "driver": driver}))
    out = str(tmp_path / "run")
    code = main(["simulate", "--config", str(path), "--out", out])
    return code, out


def test_grid_has_no_sliver_interval(tmp_path):
    # 0.7 / 0.1 rounds below 7: the grid is 0, 0.1, ..., 0.6, 0.7 with no
    # second point 1e-16 past the horizon
    code, out = _simulate_rotation(tmp_path, {"type": "deterministic",
                                              "horizon": 0.7, "step": 0.1})
    assert code == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["n_steps"] == 7


def test_jump_time_snaps_to_grid(tmp_path):
    # 3 * 0.1 != 0.3 in floating point; the jump must still land on the grid
    code, out = _simulate_rotation(tmp_path, {
        "type": "deterministic", "horizon": 1.0, "step": 0.1,
        "jumps": [{"time": 0.3, "size": [0.5]}]})
    assert code == 0
    lines = _read(os.path.join(out, "driver.csv")).decode().splitlines()
    flagged = [row.split(",")[0] for row in lines[1:]
               if row.split(",")[2] == "1"]
    assert len(flagged) == 1 and abs(float(flagged[0]) - 0.3) < 1e-12


def _overflowing_jump(tmp_path, command, time):
    # custom-linear with one jump whose exponential overflows double range
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": "custom-linear", "x0": [1.0, 0.5, -0.25],
        "horizontal_dim": 1,
        "fields": {"matrices": [
            [[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]],
            [[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [-0.2, 0.0, 0.1]]]},
        "driver": {"type": "deterministic", "horizon": 1.0, "step": 0.01,
                   "ramp_to": [0.0, 0.0],
                   "jumps": [{"time": time, "size": [0.0, 8000.0]}]}}))
    out = str(tmp_path / "run")
    return main([command, "--config", str(path), "--out", out]), out


def _strict_loads(text):
    def reject(name):
        raise ValueError("non-finite JSON value %s" % name)

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("time", [0.5, 1.0])
def test_simulate_overflowing_jump_fails_at_jump_time(tmp_path, capsys, time):
    code, out = _overflowing_jump(tmp_path, "simulate", time)
    assert code == 3
    assert not os.path.exists(os.path.join(out, "summary.json"))
    assert "at t=%g:" % time in capsys.readouterr().err


def test_decompose_overflowing_jump_stops_with_blowup(tmp_path):
    code, out = _overflowing_jump(tmp_path, "decompose", 0.5)
    assert code == 4
    summary = _strict_loads(_read(os.path.join(out, "summary.json")))
    assert summary["tau_reason"] == "blowup"
    assert summary["tau"] == 0.5
    assert not summary["degenerate_jump_target"]
    rows = [_strict_loads(line) for line in
            _read(os.path.join(out, "diagnostics.jsonl")).splitlines()]
    assert rows[-1]["t"] == 0.5


def test_ensemble_overflowing_squares_are_failures(tmp_path, capsys):
    # jumps of up to 3000: some paths stay finite, but their squares overflow
    path = tmp_path / "ensemble.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": "custom-linear", "x0": [1.0, 0.5, -0.25],
        "fields": {"matrices": [
            [[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]],
            [[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [-0.2, 0.0, 0.1]]]},
        "driver": {"type": "levy", "horizon": 1.0, "step": 0.02, "seed": 1,
                   "dimension": 2, "brownian_scale": 0.25,
                   "jump_intensity": 3.0,
                   "jump_law": {"kind": "uniform", "low": [-3000, -3000],
                                "high": [3000, 3000]}},
        "ensemble": {"n_paths": 20, "observable": "norm"}}))
    out = str(tmp_path / "run")
    assert main(["ensemble", "--config", str(path), "--out", out]) == 0
    report = _strict_loads(_read(os.path.join(out, "ensemble.json")))
    assert 0 < report["n_failures"] < 20
    assert capsys.readouterr().err == ""


def test_nonlinear_jump_blowup_reports_grid_time(tmp_path, capsys):
    # the RK4 jump flow blows up at flow time 0.96875 of the jump at t=0.7
    path = tmp_path / "ivk.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": "ivk-generic", "x0": [0.4, 0.2],
        "driver": {"type": "deterministic", "horizon": 1.0, "step": 0.1,
                   "ramp_to": [0.1, 0.1],
                   "jumps": [{"time": 0.7, "size": [0.0, 10000.0]}]}}))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(path), "--out", out]) == 3
    err = capsys.readouterr().err
    assert "integration failure at t=0.7:" in err
    assert "flow time 0.96875" in err


def test_cli_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, jumpflow.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_dump_config_round_trips(tmp_path, capsys):
    assert main(["simulate", "--config", _cfg("rotation.yaml"),
                 "--dump-config"]) == 0
    text = capsys.readouterr().out
    cfg = yaml.safe_load(text)
    assert cfg["scenario"] == "rotation"
    assert "driver" in cfg and "solver" in cfg


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: not-a-scenario\n")
    assert main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unclosed\n")
    assert main(["simulate", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.yaml"),
                 "--out", str(tmp_path / "o")]) == 2


def test_bad_seed_override_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", _cfg("rotation.yaml"),
                 "--out", str(tmp_path / "o"), "--seed", "-3"]) == 2


def test_run_meta_records_command(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", _cfg("rotation.yaml"),
                 "--out", out]) == 0
    meta = _read(os.path.join(out, "run_meta.txt")).decode()
    assert "simulate" in meta and "wall_seconds" in meta


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
