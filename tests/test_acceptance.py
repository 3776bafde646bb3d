"""Acceptance gate: one printed pass/fail line per pinned criterion.

Each test measures one shipping requirement at its stated tolerance and
prints a single summary line (visible in plain pytest output) before
asserting, so a red run still reports the measured numbers.
"""

import json
import os
import time

import numpy as np

from jumpflow.cli import main as cli_main
from jumpflow.config import (build_driver, build_marcus_config,
                             build_problem, load_config, normalize_config)
from jumpflow.convergence import fit_order
from jumpflow.decompose import (decompose_linear_sde, decompose_pointwise,
                                validity_monitor)
from jumpflow.geometry import (ComplementaryPair, DiffeoProbe, Distribution,
                               adjoint_distribution, split_field,
                               subspace_projector)
from jumpflow.marcus import MarcusConfig, solve_point, solve_with_jacobian
from jumpflow.mesh import MeshChart
from jumpflow.odeflow import VectorFieldSet
from jumpflow.reference import matrix_exp, rotation_decomposition
from jumpflow.semimartingale import deterministic_path
from jumpflow.stratjump import (marcus_integral, pushforward_integral,
                                verify_ivk)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _say(capsys, num, ok, detail):
    with capsys.disabled():
        print("[acceptance] criterion %d %s  %s"
              % (num, "PASS" if ok else "FAIL", detail))


def _ramp_three_jumps(step):
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    i = len(grid) - 1
    jumps = [(grid[i // 4], 0.4), (grid[i // 2], -0.3),
             (grid[3 * i // 4], 0.25)]
    return deterministic_path(grid, 0.7 * grid, jumps)


def test_criterion_1_marcus_exactness_and_order(capsys):
    started = time.monotonic()
    A = np.array([[0.1, -0.6], [0.6, 0.1]])
    fields = VectorFieldSet.linear(A[None])
    x0 = np.array([1.0, 0.0])

    def sup_err(step):
        path = _ramp_three_jumps(step)
        traj = solve_point(fields, path, x0, MarcusConfig())
        dz = path.values - path.values[0]
        oracle = np.stack([matrix_exp(A, float(d)) @ x0
                           for d in dz[:, 0]])
        return float(np.max(np.abs(traj.post - oracle)))

    err_fine = sup_err(1e-3)
    steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    errs = [sup_err(h) for h in steps]
    order = float(fit_order(steps, errs))
    elapsed = time.monotonic() - started
    ok = err_fine <= 1e-4 and order >= 1.8 and elapsed < 5.0
    _say(capsys, 1, ok,
         "sup_err=%.3e (tol 1e-4)  order=%.3f (>=1.8)  runtime=%.2fs (<5s)"
         % (err_fine, order, elapsed))
    assert ok


def test_criterion_2_circle_invariance_across_jumps(capsys):
    started = time.monotonic()

    def H(x):
        rot = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return np.stack([rot, np.sin(x[..., 0])[..., None] * rot], axis=-1)

    fields = VectorFieldSet.from_callable(2, 2, H)
    grid = np.linspace(0.0, 1.0, 501)
    rng = np.random.default_rng(5)
    cont = np.stack([0.4 * grid, 0.2 * np.sin(2 * np.pi * grid)], axis=1)
    jumps = [(grid[i], rng.uniform(-np.pi, np.pi, size=2))
             for i in (80, 170, 260, 350, 460)]
    path = deterministic_path(grid, cont, jumps)
    traj = solve_point(fields, path, np.array([1.0, 0.0]), MarcusConfig())
    drift = float(np.max(np.abs(np.linalg.norm(traj.post, axis=1) - 1.0)))
    elapsed = time.monotonic() - started
    ok = drift <= 1e-6 and elapsed < 5.0
    _say(capsys, 2, ok,
         "radius_drift=%.3e (tol 1e-6)  jumps=5 up to pi  runtime=%.2fs (<5s)"
         % (drift, elapsed))
    assert ok


def _ivk_from_config(cfg):
    problem = build_problem(cfg)
    driver = build_driver(cfg)
    mcfg = build_marcus_config(cfg)
    return verify_ivk(problem["fields"], problem["inner_fields"], driver,
                      problem["x0"], mcfg, ladder=cfg["ladder"])


def test_criterion_3_composition_ladder_three_fixtures(capsys):
    started = time.monotonic()
    continuous = load_config(os.path.join(CONFIG_DIR, "ivk_continuous.yaml"))
    commuting = load_config(os.path.join(CONFIG_DIR, "ivk_commuting.yaml"))
    single_jump = normalize_config({
        "scenario": "ivk-generic",
        "x0": [0.4, 0.2],
        "driver": {"type": "deterministic", "horizon": 1.0, "step": 0.01,
                   "ramp_to": [0.3, 0.2],
                   "jumps": [{"time": 0.5, "size": [0.5, -0.3]}]},
        "ladder": 3,
    })
    worst_ratio = 0.0
    for cfg in (continuous, single_jump, commuting):
        rep = _ivk_from_config(cfg)
        if rep.rungs[-1].residual_sup >= 1e-12:
            worst_ratio = max(worst_ratio, max(rep.ratios))
    concat = _ivk_from_config(single_jump).jump_concat_residual
    elapsed = time.monotonic() - started
    ok = worst_ratio <= 0.6 and concat is not None and concat <= 1e-8 \
        and elapsed < 60.0
    _say(capsys, 3, ok,
         "worst_ratio=%.3f (<=0.6)  jump_concat=%.3e (tol 1e-8)  "
         "runtime=%.2fs (<60s)" % (worst_ratio, concat, elapsed))
    assert ok


def test_criterion_4_degenerate_collapses(capsys):
    outer_zero = VectorFieldSet.linear(np.zeros((2, 2, 2)))

    def Y(x):
        return np.stack([np.stack([np.sin(x[..., 1]), x[..., 0]], axis=-1),
                         np.stack([0.3 * x[..., 1], -0.2 * x[..., 0]], axis=-1)],
                        axis=-1)

    inner = VectorFieldSet.from_callable(2, 2, Y)
    grid = np.round(np.arange(0.0, 1.0 + 2.5e-3, 5e-3), 12)
    cont = np.stack([0.5 * grid, 0.3 * grid], axis=1)
    jumps = [(0.25, np.array([0.4, -0.2])), (0.75, np.array([-0.3, 0.3]))]
    path = deterministic_path(grid, cont, jumps)
    x0 = np.array([0.6, -0.2])
    cfg = MarcusConfig(substeps=128)
    push = pushforward_integral(outer_zero, inner, path, x0, cfg)
    direct = marcus_integral(inner.field_matrix, inner, path, x0, cfg,
                             dH=inner.field_jacobian)
    collapse_gap = float(np.max(np.abs(push.partial - direct.partial)))

    smooth = deterministic_path(grid, cont)
    outer_rot = VectorFieldSet.linear(
        np.stack([np.array([[0.0, -1.0], [1.0, 0.0]]),
                  np.array([[0.2, 0.0], [0.0, -0.1]])]))
    rep = pushforward_integral(outer_rot, inner, smooth, x0, MarcusConfig())
    jump_zero = bool(np.array_equal(rep.jump_term, np.zeros(2)))
    ok = collapse_gap <= 1e-8 and jump_zero
    _say(capsys, 4, ok,
         "zero_outer_gap=%.3e (tol 1e-8)  continuous_jump_term_zero=%s"
         % (collapse_gap, jump_zero))
    assert ok


def test_criterion_5_rotation_decomposition_and_stop(capsys):
    started = time.monotonic()
    step = 1e-3
    rot = VectorFieldSet.linear(np.array([[[0.0, -1.0], [1.0, 0.0]]]))
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    driver = deterministic_path(grid, 1.2 * grid)
    rec = decompose_linear_sde(rot, 1, driver)
    worst = 0.0
    for k in range(0, len(rec.times), 100):
        zk = 1.2 * float(rec.times[k])
        xi_ref, psi_ref = rotation_decomposition(zk)
        worst = max(worst, float(np.max(np.abs(rec.xi[k] - xi_ref))),
                    float(np.max(np.abs(rec.psi[k] - psi_ref))))

    jump_driver = deterministic_path(grid, np.zeros_like(grid),
                                     [(0.5, np.pi / 2)])
    jump_rec = decompose_linear_sde(rot, 1, jump_driver)
    stop_exact = jump_rec.tau == 0.5
    flagged = (jump_rec.degenerate_jump_target
               and jump_rec.tau_reason == "jump_target_degenerate")
    elapsed = time.monotonic() - started
    ok = worst <= 1e-4 and stop_exact and flagged and elapsed < 5.0
    _say(capsys, 5, ok,
         "factor_err=%.3e (tol 1e-4)  tau=%.3f (=0.5 exactly: %s)  "
         "flagged=%s  runtime=%.2fs (<5s)"
         % (worst, jump_rec.tau, stop_exact, flagged, elapsed))
    assert ok


def test_criterion_6_determinant_criterion(capsys):
    step = 1e-3
    rot = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    fields = VectorFieldSet.linear(rot)
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)

    smooth = deterministic_path(grid, 1.2 * grid)
    traj = solve_with_jacobian(fields, smooth, np.array([1.0, 0.0]),
                               MarcusConfig())
    rep = validity_monitor(traj, horizontal_dim=1)
    det_gap = float(np.max(np.abs(rep.det_post - np.cos(1.2 * traj.times))))

    crossing = deterministic_path(grid, 2.0 * grid)
    mon = validity_monitor(
        solve_with_jacobian(fields, crossing, np.array([1.0, 0.0]),
                            MarcusConfig()), horizontal_dim=1)
    dec = decompose_linear_sde(fields, 1, crossing)
    tau_gap = abs(mon.tau - dec.tau)
    ok = det_gap <= 1e-6 and tau_gap <= step + 1e-12
    _say(capsys, 6, ok,
         "det_vs_cos=%.3e (tol 1e-6)  tau_monitor=%.4f tau_factor=%.4f "
         "gap=%.4f (<=one step %.0e)" % (det_gap, mon.tau, dec.tau,
                                         tau_gap, step))
    assert ok


def test_criterion_7_annulus_decomposition_random_flows(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(77)
    chart = MeshChart.annulus((0.5, 2.0), (40, 40))
    ang = 2 * np.pi * np.arange(8) / 8
    probes = np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def h_basis(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)[..., None]

    def v_basis(x):
        return np.asarray(x, dtype=float)[..., None].copy()

    pair = ComplementaryPair(
        horizontal=Distribution(2, 1, h_basis),
        vertical=Distribution(2, 1, v_basis))

    grid = np.round(np.arange(0.0, 1.0 + 2.5e-3, 5e-3), 12)
    driver = deterministic_path(grid, 0.5 * grid, [(0.5, 0.15)])
    cfg = MarcusConfig(substeps=16)
    worst_resid = 0.0
    worst_agree = 0.0
    reasons = []
    for _ in range(3):
        A = rng.standard_normal((2, 2))
        A *= 0.4 / np.linalg.norm(A, 2)
        fields = VectorFieldSet.linear(A[None])
        rec = decompose_pointwise(fields, pair, driver, chart, probes,
                                  cfg=cfg, snapshot_stride=20)
        reasons.append(rec.tau_reason)
        worst_resid = max(worst_resid, float(np.nanmax(rec.residual_sup)))
        agree = np.max(np.abs(rec.psi_probes - rec.psi_probes_inverse))
        worst_agree = max(worst_agree, float(agree))
    elapsed = time.monotonic() - started
    ok = (all(r == "horizon" for r in reasons) and worst_resid <= 1e-3
          and worst_agree <= 1e-3 and elapsed < 60.0)
    _say(capsys, 7, ok,
         "composition_resid=%.3e (tol 1e-3)  psi_agreement=%.3e (tol 1e-3)  "
         "tau=horizon on 3/3  runtime=%.2fs (<60s)"
         % (worst_resid, worst_agree, elapsed))
    assert ok


def test_criterion_8_geometry_property_suite(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(88)
    n_probes = 1000
    worst_exact = worst_idem = worst_basis = worst_adjoint = 0.0
    for _ in range(n_probes):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        while True:
            S = rng.standard_normal((n, n))
            if abs(np.linalg.det(S)) > 0.1 and np.linalg.cond(S) < 1e3:
                break
        H = Distribution.constant(S[:, :k])
        V = Distribution.constant(S[:, k:])
        x = rng.standard_normal(n)
        v = rng.standard_normal(n)

        h, w = split_field(v, H, V, x)
        worst_exact = max(worst_exact, float(np.max(np.abs(h + w - v))))

        h2, w2 = split_field(h, H, V, x)
        worst_idem = max(worst_idem, float(np.max(np.abs(h2 - h))),
                         float(np.max(np.abs(w2))))

        M = rng.standard_normal((k, k)) + 3 * np.eye(k)
        P_a = subspace_projector(S[:, :k])
        P_b = subspace_projector(S[:, :k] @ M)
        worst_basis = max(worst_basis, float(np.max(np.abs(P_a - P_b))))

        moved = adjoint_distribution(DiffeoProbe.identity(n), V)
        P_v = subspace_projector(V.basis(x))
        P_m = subspace_projector(moved.basis(x))
        worst_adjoint = max(worst_adjoint, float(np.max(np.abs(P_v - P_m))))
    elapsed = time.monotonic() - started
    ok = (worst_exact <= 1e-10 and worst_idem <= 1e-10
          and worst_basis <= 1e-10 and worst_adjoint <= 1e-10
          and elapsed < 10.0)
    _say(capsys, 8, ok,
         "split=%.1e idem=%.1e basis=%.1e adjoint=%.1e (tol 1e-10, "
         "%d probes)  runtime=%.2fs (<10s)"
         % (worst_exact, worst_idem, worst_basis, worst_adjoint,
            n_probes, elapsed))
    assert ok


_CONFIG_COMMANDS = [
    ("rotation.yaml", "decompose"),
    ("rotation_jump.yaml", "decompose"),
    ("sphere_tangent.yaml", "simulate"),
    ("custom_linear.yaml", "simulate"),
    ("ivk_commuting.yaml", "verify-ivk"),
    ("ivk_continuous.yaml", "verify-ivk"),
    ("ivk_jump.yaml", "verify-ivk"),
    ("convergence_linear.yaml", "convergence"),
    ("ensemble_linear.yaml", "ensemble"),
    ("radial_linear.yaml", "decompose"),
]


def _reject_constant(name):
    raise ValueError("non-finite JSON constant " + name)


def test_criterion_9_reproducibility_of_shipped_configs(capsys, tmp_path):
    # every artifact but run_meta.txt (its timings), CSVs included; JSON and
    # JSONL must also parse without NaN or Infinity
    mismatches = []
    for name, command in _CONFIG_COMMANDS:
        cfg_path = os.path.join(CONFIG_DIR, name)
        out_a = str(tmp_path / (name + ".a"))
        out_b = str(tmp_path / (name + ".b"))
        code_a = cli_main([command, "--config", cfg_path, "--out", out_a])
        code_b = cli_main([command, "--config", cfg_path, "--out", out_b])
        names_a, names_b = (sorted(set(os.listdir(out)) - {"run_meta.txt"})
                            for out in (out_a, out_b))
        if (code_a, names_a) != (code_b, names_b):
            mismatches.append("%s exit %d vs %d, files %s vs %s"
                              % (name, code_a, code_b, names_a, names_b))
            continue
        for fname in names_a:
            with open(os.path.join(out_a, fname), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, fname), "rb") as fh:
                blob_b = fh.read()
            if blob_a != blob_b:
                mismatches.append("%s/%s" % (name, fname))
            elif fname.endswith(".json"):
                json.loads(blob_a, parse_constant=_reject_constant)
            elif fname.endswith(".jsonl"):
                for line in blob_a.splitlines():
                    json.loads(line, parse_constant=_reject_constant)
    ok = not mismatches
    _say(capsys, 9, ok,
         "shipped configs double-run byte-identical: %d/%d%s"
         % (len(_CONFIG_COMMANDS) - len(mismatches), len(_CONFIG_COMMANDS),
            "" if ok else "  mismatches: " + ", ".join(mismatches)))
    assert ok
