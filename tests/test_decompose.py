"""Flow factorization: linear factor equations and the mesh-based mode."""

import json

import numpy as np
import pytest

from jumpflow.decompose import (TAU_REASONS, LinearSystem, _structured_rhs,
                                decompose_linear_algebraic,
                                decompose_linear_sde, decompose_pointwise,
                                validity_monitor, verify_composition)
from jumpflow.errors import DegeneracyError
from jumpflow.geometry import ComplementaryPair, Distribution, GeometryConfig
from jumpflow.marcus import MarcusConfig, solve_with_jacobian
from jumpflow.mesh import MeshChart
from jumpflow.odeflow import OdeConfig, VectorFieldSet
from jumpflow.reference import matrix_exp, rotation_decomposition
from jumpflow.semimartingale import deterministic_path

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rotation_driver(step, slope=1.2, jumps=()):
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    return deterministic_path(grid, slope * grid, jumps)


def _radial_pair():
    def h_basis(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)[..., None]

    def v_basis(x):
        return np.asarray(x, dtype=float)[..., None].copy()

    H = Distribution(2, 1, h_basis, vectorized=True)
    V = Distribution(2, 1, v_basis, vectorized=True)
    return ComplementaryPair(horizontal=H, vertical=V)


def test_algebraic_factor_blocks():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        M = rng.standard_normal((n, n)) + 2 * np.eye(n)
        fac = decompose_linear_algebraic(M, p)
        assert not fac.degenerate
        assert np.max(np.abs(fac.xi @ fac.psi - M)) < 1e-10
        # structural zeros and identities are exact, not approximate
        assert np.array_equal(fac.psi[:p, :p], np.eye(p))
        assert np.array_equal(fac.psi[:p, p:], np.zeros((p, n - p)))
        assert np.array_equal(fac.xi[p:, :p], np.zeros((n - p, p)))
        assert np.array_equal(fac.xi[p:, p:], np.eye(n - p))


def test_algebraic_factor_degenerate_block():
    M = np.array([[1.0, 2.0], [0.0, 0.0]])
    fac = decompose_linear_algebraic(M, 1)
    assert fac.degenerate
    assert fac.xi is None and fac.psi is None


def test_rotation_factors_match_closed_form():
    system = LinearSystem(ROT[None], horizontal_dim=1)
    driver = _rotation_driver(1e-3)
    rec = decompose_linear_sde(system, driver)
    assert rec.tau_reason == "horizon"
    assert not rec.stopped_early
    worst = 0.0
    for k in (len(rec.times) // 2, len(rec.times) - 1):
        z = 1.2 * float(rec.times[k])
        xi_ref, psi_ref = rotation_decomposition(z)
        worst = max(worst, float(np.max(np.abs(rec.xi[k] - xi_ref))),
                    float(np.max(np.abs(rec.psi[k] - psi_ref))))
    assert worst < 1e-4


def test_rotation_composition_residual_and_renorm():
    system = LinearSystem(ROT[None], horizontal_dim=1)
    rec = decompose_linear_sde(system, _rotation_driver(2e-3))
    resid = verify_composition(rec, np.eye(2))
    assert float(np.max(resid)) < 1e-4
    # block renormalization never has anything to fix on this fixture
    assert float(np.max(rec.renorm_deviation)) == 0.0


def test_rotation_jump_onto_degenerate_target():
    grid = np.linspace(0.0, 1.0, 11)
    driver = deterministic_path(grid, np.zeros(11), [(0.5, np.pi / 2)])
    system = LinearSystem(ROT[None], horizontal_dim=1)
    rec = decompose_linear_sde(system, driver)
    assert rec.tau == 0.5
    assert rec.tau_reason == "jump_target_degenerate"
    assert rec.degenerate_jump_target
    assert rec.stopped_early
    # the factors end at the left limit of the jump, still valid there
    assert float(rec.times[-1]) == 0.5


def test_rotation_smooth_crossing_stops_near_quarter_turn():
    step = 1e-3
    system = LinearSystem(ROT[None], horizontal_dim=1)
    rec = decompose_linear_sde(system, _rotation_driver(step, slope=2.0))
    assert rec.tau_reason == "det_block_zero"
    assert abs(rec.tau - np.pi / 4) <= 2 * step


def test_tau_reasons_registry():
    assert "horizon" in TAU_REASONS
    assert "jump_target_degenerate" in TAU_REASONS
    assert len(set(TAU_REASONS)) == len(TAU_REASONS)


def test_validity_monitor_matches_cosine():
    fields = VectorFieldSet.linear(ROT[None])
    driver = _rotation_driver(1e-3)
    traj = solve_with_jacobian(fields, driver, np.array([1.0, 0.0]),
                               MarcusConfig())
    rep = validity_monitor(traj, horizontal_dim=1)
    z = 1.2 * traj.times
    assert np.max(np.abs(rep.det_post - np.cos(z))) < 1e-6
    assert rep.tau_reason == "horizon"


def test_validity_monitor_stops_with_decomposition():
    step = 1e-3
    fields = VectorFieldSet.linear(ROT[None])
    driver = _rotation_driver(step, slope=2.0)
    traj = solve_with_jacobian(fields, driver, np.array([1.0, 0.0]),
                               MarcusConfig())
    rep = validity_monitor(traj, horizontal_dim=1)
    system = LinearSystem(ROT[None], horizontal_dim=1)
    rec = decompose_linear_sde(system, driver)
    assert rep.tau_reason == "det_block_zero"
    assert abs(rep.tau - rec.tau) <= step + 1e-12


def test_validity_monitor_flags_jump_trigger():
    fields = VectorFieldSet.linear(ROT[None])
    grid = np.linspace(0.0, 1.0, 21)
    driver = deterministic_path(grid, np.zeros(21), [(0.5, np.pi / 2)])
    traj = solve_with_jacobian(fields, driver, np.array([1.0, 0.0]),
                               MarcusConfig())
    rep = validity_monitor(traj, horizontal_dim=1)
    assert rep.tau == 0.5
    assert rep.tau_reason == "det_block_zero"
    assert rep.triggered_by_jump


def test_linear_record_rows_are_json_safe():
    system = LinearSystem(ROT[None], horizontal_dim=1)
    rec = decompose_linear_sde(system, _rotation_driver(0.05))
    rows = rec.jsonl_rows()
    assert len(rows) == rec.times.shape[0]
    text = "\n".join(json.dumps(r) for r in rows)
    assert "NaN" not in text
    assert set(rows[0]) == {"t", "det_block", "condition", "residual_sup",
                            "is_jump"}


def _structured_state(rng, n, p, w_norm):
    """Factor stages as the integrator holds them: Xi = [[X11, W], [0, I]],
    Psi = [[I, 0], [P21, P22]], with |W|_2 = w_norm."""
    Xi = np.eye(n)
    Xi[:p] = rng.standard_normal((p, n))
    W = rng.standard_normal((p, n - p))
    Xi[:p, p:] = W * (w_norm / np.linalg.norm(W, 2))
    Psi = np.eye(n)
    Psi[p:] = rng.standard_normal((n - p, n))
    return Xi, Psi, rng.standard_normal((n, n))


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_structured_rhs_matches_frame_solve(n, p):
    # the explicit frame must reproduce a general solve against
    # S = [E_H | Xi[:, p:]] and its 2-norm condition number
    rng = np.random.default_rng(100 * n + p)
    geo = GeometryConfig(cond_cap=1e12)
    for w_norm in (0.0, 1e-3, 0.5, 1.0, 7.0, 1e2, 1e3):
        Xi, Psi, A_dz = _structured_state(rng, n, p, w_norm)
        S = np.eye(n)
        S[:, p:] = Xi[:, p:]
        C = np.linalg.solve(S, np.concatenate([A_dz @ Xi, A_dz @ (Xi @ Psi)],
                                              axis=1))
        dXi, dPsi, cond = _structured_rhs(Xi, Psi, A_dz, p, geo)
        want_x = np.zeros((n, n))
        want_x[:p] = C[:p, :n]
        want_p = np.zeros((n, n))
        want_p[p:] = C[p:, n:]
        assert np.max(np.abs(dXi - want_x)) <= 1e-12 * np.max(np.abs(want_x))
        assert np.max(np.abs(dPsi - want_p)) <= 1e-12 * np.max(np.abs(want_p))
        assert abs(cond - np.linalg.cond(S)) <= 1e-10 * np.linalg.cond(S)


def test_structured_rhs_degenerate_frame_raises():
    rng = np.random.default_rng(5)
    Xi, Psi, A_dz = _structured_state(rng, 3, 1, 1e3)
    with pytest.raises(DegeneracyError):
        _structured_rhs(Xi, Psi, A_dz, 1, GeometryConfig(cond_cap=1e5))
    Xi[0, 2] = np.inf
    with pytest.raises(DegeneracyError):
        _structured_rhs(Xi, Psi, A_dz, 1, GeometryConfig())


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((1, 2, 3)), horizontal_dim=1)
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((1, 2, 2)), horizontal_dim=2)
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((1, 2, 2)), horizontal_dim=0)


def _unit_circle_probes(count=8, radius=1.0):
    ang = 2 * np.pi * np.arange(count) / count
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_pointwise_matches_radial_closed_form():
    A = np.array([[0.25, 0.1], [0.0, 0.15]])
    fields = VectorFieldSet.linear(A[None])
    grid = np.round(np.arange(0.0, 1.0 + 2.5e-3, 5e-3), 12)
    driver = deterministic_path(grid, 0.3 * grid, [(0.5, 0.1)])
    chart = MeshChart.annulus((0.5, 2.0), (40, 40))
    probes = _unit_circle_probes()
    cfg = MarcusConfig(ode=OdeConfig(substeps=32))
    rec = decompose_pointwise(fields, _radial_pair(), driver, chart, probes,
                              cfg=cfg, snapshot_stride=50)
    assert rec.tau_reason == "horizon"
    assert float(np.nanmax(rec.residual_sup)) < 1e-3
    # closed form: the vertical factor moves each probe along its own ray
    # to the radius of the full image
    for si, t in enumerate(rec.snapshot_times):
        z = 0.3 * float(t) + (0.1 if t >= 0.5 else 0.0)
        flow_map = matrix_exp(A, z).value
        expect = np.stack([
            (np.linalg.norm(flow_map @ p) / np.linalg.norm(p)) * p
            for p in probes
        ])
        got = rec.psi_probes[si]
        assert np.max(np.abs(got - expect)) < 1e-3
        assert np.max(np.abs(rec.psi_probes_inverse[si] - got)) < 1e-3


def test_pointwise_contraction_escapes_chart_and_stops():
    # a strong radial contraction drags the image far inside the annulus
    # inner radius, so the factor inversion loses its target and the run
    # must stop with the mesh failure reason instead of silently
    # extrapolating
    A = np.array([[-40.0, 0.0], [0.0, -40.0]])
    fields = VectorFieldSet.linear(A[None])
    grid = np.round(np.arange(0.0, 1.0 + 5e-3, 1e-2), 12)
    driver = deterministic_path(grid, grid.copy())
    chart = MeshChart.annulus((0.5, 2.0), (24, 24))
    probes = _unit_circle_probes()
    geo = GeometryConfig(eps_det=1e-12, cond_cap=1e8)
    rec = decompose_pointwise(fields, _radial_pair(), driver, chart, probes,
                              cfg=MarcusConfig(ode=OdeConfig(substeps=16)),
                              geo=geo, snapshot_stride=10)
    assert rec.stopped_early
    assert rec.tau_reason == "mesh_inversion_failure"
    assert rec.tau < 0.5


def test_pointwise_rejects_wrong_dimension():
    fields = VectorFieldSet.linear(np.zeros((1, 3, 3)))
    H = Distribution.constant(np.eye(3)[:, :1])
    V = Distribution.constant(np.eye(3)[:, 1:])
    pair = ComplementaryPair(horizontal=H, vertical=V)
    chart = MeshChart.box(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    grid = np.linspace(0.0, 1.0, 5)
    driver = deterministic_path(grid, grid.copy())
    with pytest.raises(ValueError):
        decompose_pointwise(fields, pair, driver, chart, np.zeros((1, 3)))
