"""Flow factorization: linear factor equations and the mesh-based mode."""

import json
import os

import numpy as np
import pytest

from jumpflow import decompose
from jumpflow.config import (apply_overrides, build_driver,
                             build_geometry_config, build_marcus_config,
                             build_problem, load_config)
from jumpflow.decompose import (TAU_REASONS, _det_block_hits, _frame_cond,
                                _pointwise_rhs, _structured_rhs,
                                decompose_linear_sde, decompose_pointwise,
                                validity_monitor, verify_composition)
from jumpflow.errors import IntegrationFailure
from jumpflow.geometry import ComplementaryPair, Distribution, GeometryConfig
from jumpflow.marcus import MarcusConfig, solve_point, solve_with_jacobian
from jumpflow.mesh import MeshChart
from jumpflow.odeflow import VectorFieldSet, _heun, _rk4, expm
from jumpflow.reference import (matrix_exp, radial_decomposition,
                                rotation_decomposition)
from jumpflow.semimartingale import (JumpLaw, PathParams, deterministic_path,
                                     sample_levy_jump_diffusion)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _rotation_driver(step, slope=1.2, jumps=()):
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    return deterministic_path(grid, slope * grid, jumps)


def _radial_pair():
    def h_basis(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)[..., None]

    def v_basis(x):
        return np.asarray(x, dtype=float)[..., None].copy()

    H = Distribution(2, 1, h_basis)
    V = Distribution(2, 1, v_basis)
    return ComplementaryPair(horizontal=H, vertical=V)


def test_rotation_factors_match_closed_form():
    fields = VectorFieldSet.linear(ROT[None])
    driver = _rotation_driver(1e-3)
    rec = decompose_linear_sde(fields, 1, driver)
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
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, _rotation_driver(2e-3))
    resid = verify_composition(rec, np.eye(2))
    assert float(np.max(resid)) < 1e-4
    # the structural blocks of the factors never move
    assert float(np.max(rec.renorm_deviation)) == 0.0


def test_rotation_jump_onto_degenerate_target():
    grid = np.linspace(0.0, 1.0, 11)
    driver = deterministic_path(grid, np.zeros(11), [(0.5, np.pi / 2)])
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, driver)
    assert rec.tau == 0.5
    assert rec.tau_reason == "jump_target_degenerate"
    assert rec.degenerate_jump_target
    assert rec.stopped_early
    # the factors end at the left limit of the jump, still valid there
    assert float(rec.times[-1]) == 0.5


def test_rotation_jump_path_degenerate_keeps_pre_jump_factors():
    # the jump target (z = 1.45) is fine, but the fictitious-time path to
    # it crosses cond_cap = 10: the run stops at the jump time with the
    # pre-jump factors and the target's determinant
    driver = _rotation_driver(0.01, slope=0.1, jumps=[(0.5, 1.4)])
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, driver,
                               geo=GeometryConfig(cond_cap=10.0))
    assert rec.tau_reason == "jump_path_degenerate"
    assert rec.tau == 0.5
    assert float(rec.times[-1]) == 0.5 and rec.is_jump[-1]
    xi_ref, psi_ref = rotation_decomposition(0.05)
    assert np.max(np.abs(rec.xi[-1] - xi_ref)) < 1e-7
    assert np.max(np.abs(rec.psi[-1] - psi_ref)) < 1e-7
    assert rec.det_block[-1] == pytest.approx(np.cos(1.45), abs=1e-7)


def test_rotation_factor_error_is_second_order():
    # xi against the sec/tan closed form at the horizon, halving the step
    fields = VectorFieldSet.linear(ROT[None])
    xi_ref, _ = rotation_decomposition(1.2)
    errors = []
    for step in (0.01, 0.005, 0.0025, 0.00125):
        rec = decompose_linear_sde(fields, 1, _rotation_driver(step))
        assert rec.tau_reason == "horizon"
        errors.append(float(np.max(np.abs(rec.xi[-1] - xi_ref))))
    ratios = [b / a for a, b in zip(errors[:-1], errors[1:])]
    assert all(r <= 0.3 for r in ratios), ratios


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commuting_factors_match_the_exponential_on_a_brownian_driver(seed):
    # commuting A_1 = B, A_2 = B^2 (B non-normal): the Marcus flow is
    # exp(sum_i A_i Z_i(t)) exactly, and Xi Psi must track it at every grid
    # time through the Brownian stretches and the jump.  Measured: |Xi Psi -
    # exp| <= 4.0e-5 on seeds 0-5; an Euler factor step (the Heun
    # corrector dropped) gives 0.074-0.084, its Ito drift sum_k dZ_k^2 / 2
    B = np.array([[0.2, 0.6, 0.0], [0.0, -0.1, 0.4], [0.0, 0.0, 0.3]])
    A = np.array([B, B @ B])
    rng = np.random.default_rng(seed)
    grid = np.arange(1001) * 1e-3
    cont = np.zeros((1001, 2))
    cont[1:] = np.cumsum(rng.normal(0.0, np.sqrt(1e-3), (1000, 2)),
                         axis=0) * [0.8, 0.5]
    driver = deterministic_path(grid, cont, [(grid[500], [0.7, -0.4])])
    rec = decompose_linear_sde(VectorFieldSet.linear(A), 1, driver)
    assert rec.tau_reason == "horizon"
    flow = [matrix_exp(np.einsum("i,ijl->jl", z, A))
            for z in driver.values]
    assert np.max(np.abs(rec.xi @ rec.psi - flow)) < 2e-4


def test_rotation_smooth_crossing_stops_near_quarter_turn():
    step = 1e-3
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, _rotation_driver(step, slope=2.0))
    assert rec.tau_reason == "det_block_zero"
    assert abs(rec.tau - np.pi / 4) <= 2 * step


def test_rotation_continuous_stage_stops_split_degenerate():
    # no jumps: |W| = tan z grows until a Heun stage frame crosses
    # cond_cap = 3, and the run stops at the grid time that step began
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, _rotation_driver(0.01),
                               geo=GeometryConfig(cond_cap=3.0))
    assert rec.tau_reason == "split_degenerate"
    assert rec.tau == 0.71
    assert float(rec.times[-1]) == 0.71
    assert rec.condition[-1] == 2.968603731447612


def test_custom_linear_record_is_consistent_with_its_factors():
    # every diagnostic is a function of the recorded factors, and the
    # structural blocks of xi and psi are exact
    cfg = load_config(os.path.join(CONFIGS, "custom_linear.yaml"))
    problem = build_problem(cfg)
    apply_overrides(cfg, seed=2)
    driver = build_driver(cfg)
    assert int(np.sum(driver.jump_mask)) == 7
    p = problem["horizontal_dim"]
    rec = decompose_linear_sde(problem["fields"], p, driver,
                               build_marcus_config(cfg))
    assert rec.tau_reason == "horizon"
    n = rec.xi.shape[1]
    for k in range(1, rec.times.shape[0]):
        assert rec.residual_sup[k] == np.max(np.abs(rec.xi[k] @ rec.psi[k]
                                                    - rec.phi[k]))
        assert rec.det_block[k] == np.linalg.det(rec.phi[k][p:, p:])
    assert np.all(rec.renorm_deviation == 0.0)
    right = np.zeros((n - p, n))
    right[:, p:] = np.eye(n - p)
    top = np.zeros((p, n))
    top[:, :p] = np.eye(p)
    assert np.all(rec.xi[:, p:] == right)
    assert np.all(rec.psi[:, :p] == top)


@pytest.mark.parametrize("name, seed", [
    ("rotation.yaml", None), ("custom_linear.yaml", 1),
    ("custom_linear.yaml", 2), ("custom_linear.yaml", 3),
    ("rotation_jump.yaml", None)])
def test_verify_composition_at_identity_probes_is_residual_sup(name, seed):
    # the probes e_1..e_n give xi psi - phi column by column: the same bits
    # as the record's own residual, which the CLI summary reads
    cfg = load_config(os.path.join(CONFIGS, name))
    problem = build_problem(cfg)
    fields, p = problem["fields"], problem["horizontal_dim"]
    apply_overrides(cfg, seed=seed)
    rec = decompose_linear_sde(fields, p, build_driver(cfg),
                               build_marcus_config(cfg),
                               build_geometry_config(cfg))
    resid = verify_composition(rec, np.eye(fields.dimension))
    assert resid.tobytes() == rec.residual_sup.tobytes()


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
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, driver)
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
    fields = VectorFieldSet.linear(ROT[None])
    rec = decompose_linear_sde(fields, 1, _rotation_driver(0.05))
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
        dXi, dPsi = _structured_rhs(np.stack([Xi, Psi]), A_dz, p,
                                    np.zeros((3, n, n)))
        cond = _frame_cond(Xi[:p, p:], geo)
        want_x = np.zeros((n, n))
        want_x[:p] = C[:p, :n]
        want_p = np.zeros((n, n))
        want_p[p:] = C[p:, n:]
        assert np.max(np.abs(dXi - want_x)) <= 1e-12 * np.max(np.abs(want_x))
        assert np.max(np.abs(dPsi - want_p)) <= 1e-12 * np.max(np.abs(want_p))
        assert abs(cond - np.linalg.cond(S)) <= 1e-10 * np.linalg.cond(S)


def test_structured_rhs_degenerate_frame_raises():
    # NaN from the frame check is what stops a run (the jump RK4 raises)
    rng = np.random.default_rng(5)
    Xi, Psi, A_dz = _structured_state(rng, 3, 1, 1e3)
    assert np.isnan(_frame_cond(Xi[:1, 1:], GeometryConfig(cond_cap=1e5)))
    good = _frame_cond(Xi[:1, 1:], GeometryConfig())
    Xi_inf = Xi.copy()
    Xi_inf[0, 2] = np.inf
    assert np.isnan(_frame_cond(Xi_inf[:1, 1:], GeometryConfig()))
    # a stack gives each frame's single-frame value, bit for bit
    stack = _frame_cond(np.stack([Xi[:1, 1:], Xi_inf[:1, 1:]]),
                        GeometryConfig())
    assert stack[0] == good and np.isnan(stack[1])


def test_frame_cond_applies_the_scaled_determinant():
    # S = [[1, 30, 40], [0, 1, 0], [0, 0, 1]]: scaled det 1 / sqrt(901 * 1601)
    # = 8.3e-4, cond 2.5e3
    W = np.array([[30.0, 40.0]])
    assert np.isnan(_frame_cond(W, GeometryConfig(eps_det=1e-3)))
    cond = _frame_cond(W, GeometryConfig(eps_det=1e-4))
    S = np.eye(3)
    S[0, 1:] = W
    assert abs(cond - np.linalg.cond(S)) <= 1e-10 * cond


def test_decompose_linear_sde_validation():
    # a nonlinear set, a split outside (0, n) and a driver whose channels
    # do not match the fields are rejected before any step
    driver = _rotation_driver(0.1)
    fields = VectorFieldSet.linear(ROT[None])
    assert decompose_linear_sde(fields, 1, driver).tau_reason == "horizon"
    rotate = VectorFieldSet.from_callable(
        2, 1, lambda p: np.einsum("ij,...j->...i", ROT, p)[..., None])
    with pytest.raises(ValueError, match="linear field set"):
        decompose_linear_sde(rotate, 1, driver)
    for p in (0, 2):
        with pytest.raises(ValueError, match="horizontal_dim"):
            decompose_linear_sde(fields, p, driver)
    two = VectorFieldSet.linear(np.array([ROT, np.eye(2)]))
    with pytest.raises(ValueError, match="driver dimension"):
        decompose_linear_sde(two, 1, driver)


def _per_array_rhs(Xi, Psi, M, p):
    """The factor increments (dXi, dPsi) as two fresh arrays, each with its
    own zero structural block."""
    W = Xi[:p, p:]
    AX = M @ Xi
    dXi = np.zeros(Xi.shape)
    dXi[:p] = AX[:p] - W @ AX[p:]
    dPsi = np.zeros(Psi.shape)
    dPsi[p:] = AX[p:] @ Psi
    return dXi, dPsi


def _reference_linear_record(fields, p, driver, cfg, geo):
    """The linear record as one plain loop: odeflow's ``_heun`` over the
    per-array right-hand side, RK4 across each jump, and every stop rule
    applied at the step it belongs to (the frames of its stages, a
    non-finite state, the jump's outcome, then the block determinant)."""
    A, n, grid = fields.matrices, fields.dimension, driver.grid
    sizes = driver.jump_size_at_grid()
    seen = []

    def rhs(state):
        Xi, Psi, *Phi = state
        seen.append(Xi[:p, p:])
        return (*_per_array_rhs(Xi, Psi, M, p), *(M @ P for P in Phi))

    rows = [([np.eye(n)] * 3, 1.0)]
    tau, reason = driver.horizon, "horizon"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(grid) - 1):
            M = np.einsum("i,ijl->jl", driver.increments[k], A)
            seen.clear()
            state = _heun(rhs, rows[-1][0])
            cond = _frame_cond(np.array(seen), geo)
            if np.isnan(cond).any():
                tau, reason = float(grid[k]), "split_degenerate"
                break
            if not all(np.isfinite(a).all() for a in state):
                tau, reason = float(grid[k]), "blowup"
                break
            cond = cond.max()
            if driver.jump_mask[k + 1]:
                M = np.einsum("i,ijl->jl", sizes[k + 1], A)
                Phi = expm(M) @ state[2]
                seen.clear()
                if not np.isfinite(Phi).all():
                    reason = "blowup"
                elif abs(np.linalg.det(Phi[p:, p:])) <= geo.eps_det:
                    reason, state[2] = "jump_target_degenerate", Phi
                else:
                    try:
                        factors = _rk4(rhs, state[:2], 1.0, cfg.substeps)
                        path = _frame_cond(np.array(seen), geo)
                    except IntegrationFailure:
                        path = np.array([np.nan])
                    state[2] = Phi
                    if np.isnan(path).any():
                        reason = "jump_path_degenerate"
                    else:
                        state[:2], cond = factors, max(cond, path[-1])
                if reason != "horizon":
                    tau = float(grid[k + 1])
            rows.append((state, cond))
            if reason != "horizon":
                break
            det = [np.linalg.det(s[2][p:, p:]) for s, _ in rows[-2:]]
            if _det_block_hits(det[1], det[0], geo):
                tau, reason = float(grid[k + 1]), "det_block_zero"
                break
    xi, psi, phi = (np.array([s[i] for s, _ in rows]) for i in range(3))
    R = len(rows)
    return tau, reason, dict(
        times=grid[:R], is_jump=driver.jump_mask[:R],
        det_block=np.array([np.linalg.det(P[p:, p:]) for P in phi]),
        condition=np.array([c for _, c in rows]),
        residual_sup=np.array([np.max(np.abs(X @ Y - P))
                               for X, Y, P in zip(xi, psi, phi)]),
        renorm_deviation=np.zeros(R), xi=xi, psi=psi, phi=phi)


@pytest.mark.parametrize("n, p, seed", [(n, p, seed) for n in (2, 3, 4)
                                        for p in range(1, n)
                                        for seed in range(5)])
def test_linear_record_is_the_reference_loop_bit_for_bit(n, p, seed):
    # random fields on a Levy driver with jumps, at the default geometry
    # (horizon and det_block_zero stops) and at cond_cap = 30 (stage and
    # jump-path frames that fail): every array of the record has the
    # reference loop's bytes
    rng = np.random.default_rng(100 * seed + 10 * n + p)
    fields = VectorFieldSet.linear(rng.standard_normal((2, n, n)))
    driver = sample_levy_jump_diffusion(PathParams(
        horizon=1.0, step=0.005, brownian_scale=0.5, jump_intensity=4.0,
        jump_law=JumpLaw.uniform([-0.6] * 2, [0.6] * 2), seed=seed,
        dimension=2))
    cfg = MarcusConfig(substeps=8)
    for geo in (GeometryConfig(), GeometryConfig(cond_cap=30.0)):
        rec = decompose_linear_sde(fields, p, driver, cfg, geo)
        tau, reason, want = _reference_linear_record(fields, p, driver, cfg,
                                                     geo)
        assert (rec.tau, rec.tau_reason) == (tau, reason)
        for name, value in want.items():
            assert getattr(rec, name).tobytes() == value.tobytes(), name


def _overflow_driver(jumps):
    # the field x -> (0, 40 x_2) on a ramp of slope 1 and step 0.01: each
    # Heun step multiplies Psi's and Phi's corner by 1 + 0.4 + 0.08, and
    # with a jump of 0.01 at t = 5 the product overflows in the step that
    # starts at t = 18.09
    grid = np.round(np.arange(2001) * 0.01, 12)
    return VectorFieldSet.linear([[[0.0, 0.0], [0.0, 40.0]]]), \
        deterministic_path(grid, grid, jumps)


def test_linear_blowup_in_the_middle_of_a_stretch():
    # a small jump first, so the stretch that overflows starts after it
    fields, driver = _overflow_driver([(5.0, 0.01), (19.0, 0.01)])
    rec = decompose_linear_sde(fields, 1, driver)
    assert (rec.tau, rec.tau_reason) == (18.09, "blowup")
    assert rec.times.shape == (1810,) and float(rec.times[-1]) == 18.09
    assert np.isfinite(rec.phi).all() and rec.is_jump.sum() == 1


def test_linear_blowup_on_the_last_step_before_a_jump():
    # the overflowing step ends on the jump at t = 18.1, which is never
    # taken: the stop keeps the step's start and its rows
    fields, driver = _overflow_driver([(5.0, 0.01), (18.1, 0.01)])
    rec = decompose_linear_sde(fields, 1, driver)
    assert (rec.tau, rec.tau_reason) == (18.09, "blowup")
    assert rec.times.shape == (1810,) and float(rec.times[-1]) == 18.09
    assert np.isfinite(rec.phi).all() and rec.is_jump.sum() == 1


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
    cfg = MarcusConfig(substeps=32)
    rec = decompose_pointwise(fields, _radial_pair(), driver, chart, probes,
                              cfg=cfg, snapshot_stride=50)
    assert rec.tau_reason == "horizon"
    assert float(np.nanmax(rec.residual_sup)) < 1e-3
    # closed form: the vertical factor moves each probe along its own ray
    # to the radius of the full image
    for si, t in enumerate(rec.snapshot_times):
        z = 0.3 * float(t) + (0.1 if t >= 0.5 else 0.0)
        flow_map = matrix_exp(A, z)
        expect = np.stack([
            (np.linalg.norm(flow_map @ p) / np.linalg.norm(p)) * p
            for p in probes
        ])
        got = rec.psi_probes[si]
        assert np.max(np.abs(got - expect)) < 1e-3
        assert np.max(np.abs(rec.psi_probes_inverse[si] - got)) < 1e-3


def _radial_snapshot_errors(rec, A, driver, probes, base):
    """Largest |psi - psi*| at the probes and |xi - xi*| on the mesh over
    every snapshot, against the closed form at exp(A Z_t)."""
    err_psi = err_xi = 0.0
    for si, t in enumerate(rec.snapshot_times):
        z = float(driver.values[np.searchsorted(driver.grid, t), 0])
        psi, xi = radial_decomposition(matrix_exp(A, z), probes)
        want_psi = np.array([psi(p) for p in probes])
        want_xi = np.array([[xi(y) for y in row] for row in base])
        err_psi = max(err_psi, np.max(np.abs(rec.psi_probes[si] - want_psi)))
        err_xi = max(err_xi, np.max(np.abs(rec.xi_mesh[si] - want_xi)))
    return err_psi, err_xi


def test_pointwise_matches_radial_oracle_at_second_order():
    # criterion 7's circle/ray pair on radial_linear's matrix: every
    # snapshot of psi at the probes and of the xi mesh against the closed
    # form at exp(A Z_t), across the jump, at two steps
    A = np.array([[0.25, 0.1], [0.0, 0.15]])
    fields = VectorFieldSet.linear(A[None])
    chart = MeshChart.annulus((0.5, 2.0), (40, 40))
    base = chart.base_points()
    probes = _unit_circle_probes()
    errors = []
    for step in (0.004, 0.002):
        grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
        driver = deterministic_path(grid, 0.3 * grid, [(0.5, 0.1)])
        rec = decompose_pointwise(fields, _radial_pair(), driver, chart,
                                  probes, cfg=MarcusConfig(substeps=32),
                                  snapshot_stride=50)
        assert rec.tau_reason == "horizon"
        errors.append(_radial_snapshot_errors(rec, A, driver, probes, base))
    assert errors[0][0] <= 5e-9, errors
    assert errors[1][0] <= 0.3 * errors[0][0], errors
    assert errors[1][1] <= 0.3 * errors[0][1], errors


def test_pointwise_matches_radial_oracle_on_a_brownian_driver():
    # one driving field, so phi_t = exp(A Z_t) on any path: a Brownian
    # continuous part (scale 0.3) exercises the Stratonovich form of the
    # factor equations, which a ramp, with zero quadratic variation, cannot
    A = np.array([[0.25, 0.1], [0.0, 0.15]])
    chart = MeshChart.annulus((0.5, 2.0), (40, 40))
    probes = _unit_circle_probes()
    step = 1 / 400
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    dw = np.random.default_rng(0).normal(0.0, np.sqrt(step), grid.size - 1)
    brownian = 0.3 * np.concatenate([[0.0], np.cumsum(dw)])
    driver = deterministic_path(grid, brownian[:, None], [(0.5, 0.1)])
    rec = decompose_pointwise(VectorFieldSet.linear(A[None]), _radial_pair(),
                              driver, chart, probes,
                              cfg=MarcusConfig(substeps=32),
                              snapshot_stride=50)
    assert rec.tau_reason == "horizon"
    assert rec.snapshot_times.size == 9   # every 50 steps, and t = 0
    err_psi, err_xi = _radial_snapshot_errors(rec, A, driver, probes,
                                              chart.base_points())
    # measured 6.3e-7 and 9.4e-8; an Euler mesh step, which drops the
    # Stratonovich correction, gives 2.7e-3 and 1.3e-3
    assert err_psi <= 5e-6 and err_xi <= 1e-6, (err_psi, err_xi)


def test_pointwise_inversion_failure_at_time_zero_stops_there():
    # a 3x3 chart is too coarse to invert at the probe: the run stops at
    # t = 0 with one diagnostic row and empty snapshot stacks
    A = np.array([[0.25, 0.1], [0.0, 0.15]])
    chart = MeshChart.annulus((0.5, 2.0), (3, 3))
    grid = np.linspace(0.0, 1.0, 11)
    rec = decompose_pointwise(VectorFieldSet.linear(A[None]), _radial_pair(),
                              deterministic_path(grid, 0.3 * grid), chart,
                              [[0.0, 2.0]])
    assert (rec.tau, rec.tau_reason) == (0.0, "mesh_inversion_failure")
    assert rec.times.tolist() == [0.0]
    assert rec.snapshot_times.shape == (0,)
    assert rec.xi_mesh.shape == (0, 3, 3, 2)
    assert rec.psi_probes.shape == rec.psi_probes_inverse.shape == (0, 1, 2)


def test_pointwise_blowup_stops_at_the_step_start():
    # x -> (exp(x_0), 0) on a box: the second Heun step overflows, and the
    # run stops at the grid time that step began
    def grow(x):
        out = np.zeros(x.shape + (1,))
        with np.errstate(over="ignore"):
            out[..., 0, 0] = np.exp(x[..., 0])
        return out

    fields = VectorFieldSet.from_callable(2, 1, grow)
    pair = ComplementaryPair(
        horizontal=Distribution.constant(np.eye(2)[:, :1]),
        vertical=Distribution.constant(np.eye(2)[:, 1:]))
    chart = MeshChart.box(((0.0, 1.0), (0.0, 1.0)), (5, 5))
    grid = np.linspace(0.0, 1.0, 3)
    driver = deterministic_path(grid, 2.0 * grid)
    rec = decompose_pointwise(fields, pair, driver, chart,
                              np.array([[0.5, 0.5]]))
    assert rec.tau_reason == "blowup"
    assert rec.tau == 0.5
    assert rec.times.tolist() == [0.0, 0.5]
    assert np.isfinite(rec.psi_probes).all()


def test_pointwise_stage_interpolates_evaluates_and_splits_once(monkeypatch):
    A = np.array([[0.25, 0.1], [0.0, 0.15]])
    fields = VectorFieldSet.linear(A[None])
    chart = MeshChart.annulus((0.5, 2.0), (12, 10))
    probes = _unit_circle_probes()
    rhs = _pointwise_rhs(fields, _radial_pair(), chart, GeometryConfig(), [])
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("interp_mesh", "split_frame"):
        monkeypatch.setattr(decompose, name,
                            counted(name, getattr(decompose, name)))
    monkeypatch.setattr(fields, "field_matrix",
                        counted("field_matrix", fields.field_matrix))
    rhs((chart.base_points(), probes, probes), np.array([0.01]))
    assert calls == {"interp_mesh": 1, "split_frame": 1, "field_matrix": 1}


def test_verify_composition_rejects_a_mesh_record():
    # a mesh record carries its residual; verify_composition is linear-only
    fields = VectorFieldSet.linear(np.array([[[0.25, 0.1], [0.0, 0.15]]]))
    grid = np.linspace(0.0, 0.1, 3)
    rec = decompose_pointwise(fields, _radial_pair(),
                              deterministic_path(grid, grid.copy()),
                              MeshChart.annulus((0.5, 2.0), (8, 8)),
                              _unit_circle_probes())
    assert rec.mode == "mesh" and rec.tau_reason == "horizon"
    with pytest.raises(ValueError, match="linear-mode record"):
        verify_composition(rec, _unit_circle_probes())


@pytest.mark.parametrize("stride", [0, -1, 2.5, 1.5])
def test_pointwise_rejects_a_stride_that_is_not_a_whole_number(stride):
    # 0 used to divide by zero after the first step, -1 to snapshot every
    # step and 2.5 every 5 steps
    fields = VectorFieldSet.linear(np.array([[[0.25, 0.1], [0.0, 0.15]]]))
    grid = np.linspace(0.0, 0.1, 7)
    args = (fields, _radial_pair(), deterministic_path(grid, grid.copy()),
            MeshChart.annulus((0.5, 2.0), (8, 8)), _unit_circle_probes())
    with pytest.raises(ValueError, match="snapshot_stride"):
        decompose_pointwise(*args, snapshot_stride=stride)
    # a numpy integer is a whole number: snapshots at 0, 2, 4 and 6
    rec = decompose_pointwise(*args, snapshot_stride=np.int64(2))
    assert rec.snapshot_times.tolist() == grid[::2].tolist()


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
                              cfg=MarcusConfig(substeps=16),
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


def test_validity_monitor_needs_a_trajectory_with_jacobians():
    fields = VectorFieldSet.linear(ROT[None])
    traj = solve_point(fields, _rotation_driver(0.25), np.array([1.0, 0.0]),
                       MarcusConfig())
    with pytest.raises(ValueError, match="trajectory must carry Jacobians"):
        validity_monitor(traj, horizontal_dim=1)
