"""Command-line entry points: artifacts, exit codes, reproducibility."""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jumpflow import config
from jumpflow.cli import main
from jumpflow.config import (build_driver, build_marcus_config, build_problem,
                             load_config)
from jumpflow.marcus import solve_with_jacobian

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
    # the sweep's hop rows match the independent recomputation bit for bit
    assert summary["jump_concat_residual"] == 0.0


def test_verify_ivk_jump_concat_residual_is_exact(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_jump.yaml"),
                 "--out", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["jump_concat_residual"] == 0.0


def test_verify_ivk_continuous_passes(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_continuous.yaml"),
                 "--out", out]) == 0
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["passes"]
    assert summary["jump_concat_residual"] is None


def test_ladder_override_sets_the_rung_count(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_commuting.yaml"),
                 "--out", out, "--ladder", "6"]) == 0
    lines = _read(os.path.join(out, "ivk_ladder.jsonl")).splitlines()
    assert json.loads(lines[0])["ladder"] == 6
    assert len(lines) == 1 + 6
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert len(summary["residual_sup"]) == 6
    assert len(summary["ratios"]) == 5


@pytest.mark.parametrize("ladder", ["0", "9"])
def test_ladder_override_out_of_range_exits_2(tmp_path, capsys, ladder):
    out = str(tmp_path / "run")
    assert main(["verify-ivk", "--config", _cfg("ivk_commuting.yaml"),
                 "--out", out, "--ladder", ladder]) == 2
    err = capsys.readouterr().err
    assert "config error: --ladder: must be an integer in [1, 8]" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("name, which", [
    ("sphere_tangent.yaml", "fields"), ("ivk_jump.yaml", "fields"),
    ("ivk_jump.yaml", "inner_fields")])
def test_scenario_jacobians_match_central_differences(name, which):
    # every hand-written Jacobian of a nonlinear scenario, at random points
    fields = build_problem(load_config(_cfg(name)))[which]
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, (50, fields.dimension))
    h = 1e-6
    for i in range(fields.count):
        assert fields._jacs[i] is not None
        want = np.empty(X.shape + (fields.dimension,))
        for j in range(fields.dimension):
            e = np.zeros(fields.dimension)
            e[j] = h
            want[..., j] = (fields.field_matrix(X + e)[..., i]
                            - fields.field_matrix(X - e)[..., i]) / (2 * h)
        got = fields.jacobian_batch(i, X)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-8, (name, which, i)


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


def test_decompose_nonfinite_summary_value_is_null(tmp_path):
    # cond_cap 1.0 fails the first frame: tau 0 and a NaN det_block, which
    # every JSON artifact writes as null
    with open(_cfg("radial_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["geometry"] = {"cond_cap": 1.0}
    path = tmp_path / "radial.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "run")
    assert main(["decompose", "--config", str(path), "--out", out]) == 4
    summary = _strict_loads(_read(os.path.join(out, "summary.json")))
    assert summary["tau"] == 0.0
    assert summary["tau_reason"] == "split_degenerate"
    assert summary["final_det_block"] is None
    rows = [_strict_loads(line) for line in
            _read(os.path.join(out, "diagnostics.jsonl")).splitlines()]
    assert rows[1]["det_block"] is None


def test_simulate_writes_the_jacobian_columns(tmp_path):
    # custom-linear (n = 3) with record_jacobian: the jac_ij columns are
    # the post-jump Jacobians, row-major, bit for bit
    with open(_cfg("custom_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["solver"] = {"record_jacobian": True}
    path = tmp_path / "custom.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(path), "--out", out]) == 0
    with open(os.path.join(out, "trajectory.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    jac_head = ["jac_%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    assert rows[0][8:] == jac_head
    loaded = load_config(str(path))
    problem = build_problem(loaded)
    traj = solve_with_jacobian(problem["fields"], build_driver(loaded),
                               problem["x0"], build_marcus_config(loaded))
    cells = np.array([[float(c) for c in row[8:]] for row in rows[1:]])
    want = traj.jacobians_post.reshape(len(rows) - 1, 9)
    assert cells.tobytes() == want.tobytes()


def test_decompose_mesh_large_jump_stops_jump_path_degenerate(tmp_path):
    # radial-linear with its jump raised from 0.1 to 60: the mesh frame
    # degenerates inside the fictitious-time jump flow, so the run stops at
    # the jump time, as linear mode does
    with open(_cfg("radial_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["driver"]["jumps"][0]["size"] = [60.0]
    path = tmp_path / "radial.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "run")
    assert main(["decompose", "--config", str(path), "--out", out]) == 4
    summary = _strict_loads(_read(os.path.join(out, "summary.json")))
    assert summary["tau_reason"] == "jump_path_degenerate"
    assert summary["tau"] == 0.5
    rows = [_strict_loads(line) for line in
            _read(os.path.join(out, "diagnostics.jsonl")).splitlines()]
    assert rows[-1]["t"] == 0.5 and rows[-1]["is_jump"]


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


def test_ensemble_overflowing_moments_exit_3(tmp_path, capsys):
    # x = exp(Z): each path with one jump of 354 stays finite with a finite
    # square, but the sum of the squares overflows
    path = tmp_path / "ensemble.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": "custom-linear", "x0": [1.0],
        "fields": {"matrices": [[[1.0]]]},
        "driver": {"type": "levy", "horizon": 1.0, "step": 0.1, "seed": 1,
                   "jump_intensity": 1.0,
                   "jump_law": {"kind": "constant", "value": [354.0]}},
        "ensemble": {"n_paths": 100}}))
    out = str(tmp_path / "run")
    assert main(["ensemble", "--config", str(path), "--out", out]) == 3
    assert not os.path.exists(os.path.join(out, "ensemble.json"))
    err = capsys.readouterr().err
    assert "integration failure at t=0.3: ensemble moments overflowed" in err


@pytest.mark.parametrize("seed", range(1, 8))
def test_overflowing_driver_sample_exits_3(tmp_path, capsys, seed):
    # finite parameters whose Brownian part overflows while sampling: the
    # run fails at the first grid time where the path is not finite
    with open(_cfg("ensemble_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    del cfg["ensemble"]
    cfg["driver"]["brownian_scale"] = 1.7e308
    path = tmp_path / "simulate.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(path), "--seed", str(seed),
                 "--out", out]) == 3
    assert not os.path.exists(os.path.join(out, "summary.json"))
    err = capsys.readouterr().err
    assert err.startswith("integration failure at t=")
    t = float(err.split("at t=")[1].split(":")[0])
    assert 0 < t <= 1.0 and abs(t / 0.02 - round(t / 0.02)) < 1e-9


def test_overflowing_jump_sum_exits_3(tmp_path, capsys):
    # each jump of 1e308 is finite, but the driver's running sum of them is
    # not: the sample fails at the second jump, where the sum overflows
    with open(_cfg("ivk_jump.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["driver"]["jump_law"] = {"kind": "constant", "value": [1e308, 0.0]}
    path = tmp_path / "simulate.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("integration failure at t=")
    t = float(err.split("at t=")[1].split(":")[0])
    jump_times = build_driver(load_config(_cfg("ivk_jump.yaml"))).jump_times
    assert abs(t - jump_times[1]) < 1e-6


def test_overflowing_driver_samples_are_ensemble_failures(tmp_path, capsys):
    with open(_cfg("ensemble_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["driver"]["brownian_scale"] = 1.7e308
    cfg["ensemble"]["n_paths"] = 8
    path = tmp_path / "ensemble.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ensemble", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 3
    assert "every path in the ensemble failed" in capsys.readouterr().err


def test_overflowing_uniform_jump_law_exits_2(tmp_path, capsys):
    # high - low overflows a double: a config error, not a sampler crash
    with open(_cfg("ensemble_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    del cfg["ensemble"]
    cfg["driver"].update(jump_intensity=3, jump_law={
        "kind": "uniform", "low": [-1e308], "high": [1e308]})
    path = tmp_path / "simulate.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
    assert "config error: driver.jump_law:" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, where", [
    ("rotation.yaml", {"solvr": {"substeps": 3}}, "solvr"),
    ("rotation.yaml", {"driver": {"jump_intensity": 2.0}},
     "driver.jump_intensity"),
    ("sphere_tangent.yaml", {"driver": {"ramp_to": [1.0, 1.0]}},
     "driver.ramp_to"),
    ("rotation.yaml", {"solver": {"substep": 3}}, "solver.substep"),
    ("rotation.yaml", {"geometry": {"eps": 1e-9}}, "geometry.eps"),
    ("rotation.yaml", {"mesh": {"kind": "box"}}, "mesh.kind"),
    ("radial_linear.yaml", {"mesh": {"kind": "annulus"}}, "mesh.kind"),
    ("rotation.yaml", {"fields": {"bogus": 1}}, "fields.bogus"),
    ("ivk_commuting.yaml", {"fields": {"matrices": [[[1.0]]]}},
     "fields.matrices"),
    ("rotation.yaml", {"solver": {"use_expm": False}}, "solver.use_expm"),
], ids=["top-level", "deterministic-driver", "levy-driver", "solver",
        "geometry", "mesh", "radial-mesh", "fields", "ivk-commuting-fields",
        "solver-use-expm"])
def test_unknown_key_exits_2(tmp_path, capsys, name, edit, where):
    with open(_cfg(name)) as fh:
        cfg = yaml.safe_load(fh)
    for key, val in edit.items():
        cfg[key] = {**cfg.get(key, {}), **val}
    path = tmp_path / "unknown.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error: %s:" % where in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("solver", "substeps"),
                                          ("ensemble", "n_paths")])
def test_count_above_max_size_exits_2(tmp_path, capsys, section, key):
    # checked with the config, so a count the run could never get through
    # is rejected before anything runs
    with open(_cfg("ensemble_linear.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    path = tmp_path / "big.yaml"
    for count, code in ((config.MAX_SIZE, 0), (config.MAX_SIZE + 1, 2)):
        cfg[section] = {**cfg.get(section, {}), key: count}
        path.write_text(yaml.safe_dump(cfg))
        assert main(["ensemble", "--config", str(path),
                     "--dump-config"]) == code
    assert "config error: %s.%s:" % (section, key) in capsys.readouterr().err


def test_shipped_and_benchmark_configs_load(tmp_path):
    # every shipped config and every config the benchmark writes at seed 1
    # passes the config check and builds its problem (which reads ``mesh``
    # and ``fields``)
    root = os.path.join(os.path.dirname(__file__), "..")
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    paths = [_cfg(name) for name in sorted(os.listdir(CONFIGS))]
    for workload in workloads.WORKLOADS.values():
        paths += [op.config for op in workload.build(1, root, str(tmp_path))]
    assert len(paths) > len(os.listdir(CONFIGS))
    for path in paths:
        build_problem(load_config(path))


def _table_keys(table):
    """Every key of a schema table, with its sections' and variants'."""
    keys = set(table)
    for _, check in table.values():
        if isinstance(check, config._Variants):
            subs = check.values()
        elif isinstance(check, list):
            subs = check
        else:
            subs = [check] if isinstance(check, dict) else []
        for sub in subs:
            keys |= _table_keys(sub)
    return keys


def test_readme_schema_block_names_every_table_key():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Config schema\n\n```yaml\n")[1].split("```")[0]
    # a key starts a (possibly commented-out) line or a flow-mapping entry
    named = set(re.findall(r"(?m)^\s*(?:#\s*)?(?:-\s*)?([A-Za-z_]\w*):(?:\s|$)",
                           block))
    named |= set(re.findall(r"[{,]\s*([A-Za-z_]\w*):\s", block))
    keys = _table_keys(config._SCHEMA)
    for table in config._SCENARIOS.values():
        keys |= _table_keys(table)
    assert named == keys


def _ivk_generic_levy(**driver):
    drv = {"type": "levy", "horizon": 1.0, "step": 0.1, "seed": 3,
           "dimension": 2, "jump_intensity": 2.0,
           "jump_law": {"kind": "uniform", "low": [-0.5, -0.5],
                        "high": [0.5, 0.5]}}
    drv.update(driver)
    return {"scenario": "ivk-generic", "driver": drv, "ladder": 1}


@pytest.mark.parametrize("cfg, where", [
    (dict(_ivk_generic_levy(), x0=[0.4, 0.2, 0.1]), "x0"),
    (_ivk_generic_levy(dimension=3, jump_law={
        "kind": "uniform", "low": [-0.5] * 3, "high": [0.5] * 3}),
     "driver.dimension"),
    (_ivk_generic_levy(jump_law={"kind": "uniform", "low": [-0.5] * 3,
                                 "high": [0.5] * 3}), "driver.jump_law.low"),
    (dict(_ivk_generic_levy(), driver={"type": "deterministic",
                                       "ramp_to": [1.0]}), "driver.ramp_to"),
    (_ivk_generic_levy(brownian_scale=[0.1, 0.2, 0.3]),
     "driver.brownian_scale"),
    (_ivk_generic_levy(drift=[0.1, 0.2, 0.3]), "driver.drift"),
])
def test_dimension_mismatch_exits_2(tmp_path, capsys, cfg, where):
    path = tmp_path / "ivk.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["verify-ivk", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error: %s:" % where in capsys.readouterr().err


def _custom_linear(**top):
    cfg = {"scenario": "custom-linear", "x0": [1.0, 0.5, -0.25],
           "fields": {"matrices": [
               [[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]]]},
           "driver": {"type": "deterministic", "horizon": 1.0,
                      "step": 0.1, "ramp_to": [0.5]}}
    cfg.update(top)
    return cfg


def _radial(**top):
    cfg = {"scenario": "radial-linear",
           "driver": {"type": "deterministic", "horizon": 1.0,
                      "step": 0.1, "ramp_to": [0.3]}}
    cfg.update(top)
    return cfg


def _rotation(geometry=None, **driver):
    with open(_cfg("rotation.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["driver"].update(driver)
    if geometry is not None:
        cfg["geometry"] = geometry
    return cfg


@pytest.mark.parametrize("command, cfg, where", [
    ("verify-ivk", _ivk_generic_levy(brownian_scale="abc"),
     "driver.brownian_scale"),
    ("verify-ivk", _ivk_generic_levy(jump_intensity="abc"),
     "driver.jump_intensity"),
    ("verify-ivk", _ivk_generic_levy(jump_intensity=-1.0),
     "driver.jump_intensity"),
    ("verify-ivk", {"scenario": "ivk-commuting",
                    "fields": {"outer_rate": "abc"}}, "fields.outer_rate"),
    ("decompose", _custom_linear(horizontal_dim=5), "horizontal_dim"),
    ("decompose", _custom_linear(horizontal_dim="x"), "horizontal_dim"),
    ("decompose", _radial(fields={"matrices": [[["a", 0.0], [0.0, 1.0]]]}),
     "fields.matrices"),
    ("decompose", _radial(mesh={"shape": [2, 40]}), "mesh.shape"),
    ("decompose", _radial(mesh={"radii": [-1, 2]}), "mesh.radii"),
    ("decompose", _radial(probes=[[1, 2, 3]]), "probes"),
    ("simulate", _custom_linear(solver={"record_jacobian": "yes"}),
     "solver.record_jacobian"),
    ("ensemble", _custom_linear(
        driver={"type": "levy", "horizon": 1.0, "step": 0.1, "seed": 1},
        ensemble={"n_paths": 10, "observabel": "norm"}),
     "ensemble.observabel"),
    ("simulate", _rotation(ramp_to=["a"]), "driver.ramp_to"),
    ("simulate", _rotation(jumps=5), "driver.jumps"),
    ("simulate", _rotation(jumps=[{"time": 0.5, "size": ["a"]}]),
     "driver.jumps[0].size"),
    ("decompose", _rotation({"eps_det": "abc"}), "geometry.eps_det"),
    ("decompose", _rotation({"eps_det": -1.0}), "geometry.eps_det"),
    ("decompose", _rotation({"cond_cap": "abc"}), "geometry.cond_cap"),
    ("decompose", _rotation({"cond_cap": 0.0}), "geometry.cond_cap"),
    ("verify-ivk", _ivk_generic_levy(jump_law={"kind": []}),
     "driver.jump_law.kind"),
    ("verify-ivk", _ivk_generic_levy(jump_law={}), "driver.jump_law.kind"),
    ("simulate", _rotation(horizon=1e308), "driver.horizon"),
    ("verify-ivk", _ivk_generic_levy(jump_intensity=1e308),
     "driver.jump_intensity"),
    ("verify-ivk", dict(_ivk_generic_levy(), ladder=True), "ladder"),
    ("simulate", dict(_rotation(), format_version=True), "format_version"),
    ("verify-ivk", _ivk_generic_levy(seed=True), "driver.seed"),
])
def test_bad_value_exits_2(tmp_path, capsys, command, cfg, where):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error: %s:" % where in capsys.readouterr().err


@pytest.mark.parametrize("scenario, dimension", [("ivk-commuting", 1),
                                                 ("ivk-generic", 2)])
def test_unknown_jump_law_key_exits_2(tmp_path, capsys, scenario, dimension):
    # ``std`` is not the gaussian law's key (``scale`` is)
    path = tmp_path / "ivk.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": scenario, "ladder": 1,
        "driver": {"type": "levy", "horizon": 1.0, "step": 0.1, "seed": 3,
                   "dimension": dimension, "jump_intensity": 2.0,
                   "jump_law": {"kind": "gaussian", "mean": [0.0] * dimension,
                                "std": [0.001] * dimension}}}))
    assert main(["verify-ivk", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "config error: driver.jump_law.std:" in capsys.readouterr().err


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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def _fresh_python(probe, **caller):
    """stdout of ``probe`` run in a fresh interpreter on this source tree.

    The child sees none of OpenBLAS's thread variables but those in
    ``caller``: importing ``jumpflow.cli`` has set one in this process."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(caller, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_does_not_load_scipy():
    probe = ("import sys, jumpflow.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(probe) == "[]"


def test_geometry_imports_no_solver_and_all_names_resolve():
    # register the package without running its __init__, so that only
    # geometry's own imports load modules
    probe = ("import importlib.util, sys\n"
             "pkg = importlib.util.module_from_spec("
             "importlib.util.find_spec('jumpflow'))\n"
             "sys.modules['jumpflow'] = pkg\n"
             "import jumpflow.geometry\n"
             "print(sorted(m for m in sys.modules if m in "
             "('jumpflow.marcus', 'jumpflow.semimartingale')))")
    assert _fresh_python(probe) == "[]"
    import jumpflow
    for name in jumpflow.__all__:
        assert hasattr(jumpflow, name), name


PUBLIC_NAMES = [
    "ComplementaryPair", "CompositionReport", "ConfigError",
    "DecompositionRecord", "DegeneracyError", "DiffeoProbe", "Distribution",
    "EnsembleSummary", "GeometryConfig", "IntegralReport",
    "IntegrationFailure", "JumpLaw", "JumpPath", "LinearSystem",
    "MarcusConfig", "MeshChart", "MeshInversionError", "OracleResult",
    "PathParams", "Trajectory", "VectorFieldSet", "__version__",
    "adjoint_distribution", "curve_average", "decompose_linear_sde",
    "decompose_pointwise", "deterministic_path", "fit_order", "flow",
    "flow_with_jacobian", "interp_mesh", "invert_mesh_map", "marcus_integral",
    "matrix_exp", "mesh_jacobian", "prefix", "pushforward_integral",
    "quadratic_variation_c", "radial_decomposition", "refine",
    "rotation_decomposition", "sample_levy_jump_diffusion", "solve_ensemble",
    "solve_point", "solve_with_jacobian", "split_field", "split_frame",
    "subspace_projector", "subspaces_equal", "validity_monitor",
    "verify_composition", "verify_ivk",
]


def test_public_names_are_pinned_and_star_import_binds_them():
    probe = ("import json, jumpflow\n"
             "ns = {}\n"
             "exec('from jumpflow import *', ns)\n"
             "print(json.dumps([sorted(jumpflow.__all__), sorted(\n"
             "    k for k in ns if k != '__builtins__')]))")
    names, bound = json.loads(_fresh_python(probe))
    assert names == PUBLIC_NAMES
    assert bound == PUBLIC_NAMES


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count threads")
def test_cli_process_runs_one_thread():
    probe = ("import os, jumpflow.cli; "
             "print(len(os.listdir('/proc/self/task')))")
    assert _fresh_python(probe) == "1"


@pytest.mark.parametrize("caller, meta", [
    ({}, "OPENBLAS_NUM_THREADS=1 (set by jumpflow)"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "OPENBLAS_NUM_THREADS=2"),
    ({"GOTO_NUM_THREADS": "2"}, "GOTO_NUM_THREADS=2"),
    ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS=2"),
    ({"OMP_NUM_THREADS": "3", "GOTO_NUM_THREADS": "2"}, "GOTO_NUM_THREADS=2"),
])
def test_cli_thread_setting_yields_to_the_caller(tmp_path, caller, meta):
    out = str(tmp_path / "run")
    probe = ("import json, os, jumpflow.cli\n"
             "jumpflow.cli.main(['simulate', '--config', %r, '--out', %r])\n"
             "print(json.dumps({k: os.environ.get(k) for k in %r}))"
             % (_cfg("rotation.yaml"), out, BLAS_THREAD_VARS))
    want = dict.fromkeys(BLAS_THREAD_VARS)
    want.update(caller or {"OPENBLAS_NUM_THREADS": "1"})
    assert json.loads(_fresh_python(probe, **caller)) == want
    text = _read(os.path.join(out, "run_meta.txt")).decode()
    assert "blas_threads: %s\n" % meta in text


def test_library_import_loads_nothing_and_leaves_the_environment():
    probe = ("import json, os, sys\n"
             "before = dict(os.environ)\n"
             "import jumpflow\n"
             "loaded = sorted(m for m in sys.modules\n"
             "                if m.startswith('jumpflow.') or m == 'numpy')\n"
             "jumpflow.solve_point\n"
             "print(json.dumps([loaded, dict(os.environ) == before]))")
    assert json.loads(_fresh_python(probe)) == [[], True]


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


def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for out in (taken, taken / "below"):
        assert main(["simulate", "--config", _cfg("rotation.yaml"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: --out: cannot create output directory: ")
    assert taken.read_text() == "kept\n"


def test_run_meta_records_command(tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", _cfg("rotation.yaml"),
                 "--out", out]) == 0
    meta = _read(os.path.join(out, "run_meta.txt")).decode()
    assert "simulate" in meta
    fields = dict(line.split(": ", 1) for line in meta.splitlines())
    # the variable that decides OpenBLAS's thread count in this process
    name, _, value = fields["blas_threads"].partition("=")
    assert name in BLAS_THREAD_VARS
    assert value.removesuffix(" (set by jumpflow)") == os.environ[name]
    setup, run, wall = (float(fields[key]) for key in (
        "setup_seconds", "run_seconds", "wall_seconds"))
    assert min(setup, run) >= 0.0
    # each is rounded to the millisecond on its own
    assert abs(setup + run - wall) <= 0.002


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# shipped (config, subcommand) pairs for the mutation fuzz test
_FUZZ_RUNS = [("rotation.yaml", "decompose"), ("rotation_jump.yaml", "decompose"),
              ("sphere_tangent.yaml", "simulate"),
              ("custom_linear.yaml", "decompose"),
              ("ivk_commuting.yaml", "verify-ivk"),
              ("ivk_jump.yaml", "verify-ivk"),
              ("convergence_linear.yaml", "convergence"),
              ("ensemble_linear.yaml", "ensemble"),
              ("radial_linear.yaml", "decompose")]
_FUZZ_VALUES = [None, True, "abc", [], {}, 0, -1, 0.5, 3, 1e308, -1e308,
                5e-324, 2 ** 64, float("nan"), float("inf")]
# a larger value of these (a smaller step) only makes the run longer
_ENLARGING = ("horizon", "jump_intensity", "substeps", "ladder", "n_paths",
              "shape", "dimension")


def _fuzz_base(name):
    """A shipped config cut short: 20 steps of 0.01, its jumps moved onto
    them, and a small mesh, ensemble and ladder."""
    with open(_cfg(name)) as fh:
        cfg = yaml.safe_load(fh)
    cfg["driver"].update(horizon=0.2, step=0.01)
    for i, jump in enumerate(cfg["driver"].get("jumps", [])):
        jump["time"] = 0.05 * (i + 1)
    if "mesh" in cfg:
        cfg["mesh"]["shape"] = [12, 12]
    if "ensemble" in cfg:
        cfg["ensemble"]["n_paths"] = 4
    cfg["ladder"] = min(cfg.get("ladder", 3), 2)
    return cfg


def _key_paths(node, prefix=()):
    """The path of every key and list entry under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _key_paths(val, prefix + (key,))


def _is_num(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_shipped_config_exits_cleanly(data):
    # one key of a shipped config dropped, renamed, retyped, resized or set
    # to an extreme number: the run ends with a documented exit code, and
    # whatever JSON it wrote is finite
    name, command = data.draw(st.sampled_from(_FUZZ_RUNS))
    cfg = _fuzz_base(name)
    path = data.draw(st.sampled_from(list(_key_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    kind = data.draw(st.sampled_from(["drop", "rename", "retype", "resize"]))
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        assume(isinstance(key, str))
        parent[key + "_"] = parent.pop(key)
    elif kind == "resize":
        assume(isinstance(old, list) and old)
        parent[key] = old[:-1] if data.draw(st.booleans()) else old + old[-1:]
    else:
        new = data.draw(st.sampled_from(_FUZZ_VALUES))
        named = [k for k in path if isinstance(k, str)][-1]
        if _is_num(new) and _is_num(old):
            assume(not (named in _ENLARGING and new > old
                        or named == "step" and new < old))
        parent[key] = new
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "mutated.yaml")
        with open(config_path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        out = os.path.join(tmp, "out")
        assert main([command, "--config", config_path, "--out", out]) in (
            0, 2, 3, 4)
        for written in os.listdir(out) if os.path.isdir(out) else ():
            text = _read(os.path.join(out, written)).decode()
            if written.endswith(".json"):
                _strict_loads(text)
            elif written.endswith(".jsonl"):
                for line in text.splitlines():
                    _strict_loads(line)
