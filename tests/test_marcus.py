"""Canonical jump-SDE solver: exactness, order, invariance, ensembles."""

import csv
import io
import os
from dataclasses import replace

import numpy as np
import pytest

import jumpflow.odeflow as odeflow
from jumpflow.config import (build_driver, build_marcus_config, build_problem,
                             load_config)
from jumpflow.errors import IntegrationFailure
from jumpflow.marcus import (MarcusConfig, solve_ensemble, solve_map_batch,
                             solve_point, solve_with_jacobian,
                             trajectory_to_csv)
from jumpflow.odeflow import VectorFieldSet
from jumpflow.reference import linear_marcus_mean, matrix_exp
from jumpflow.semimartingale import (JumpLaw, PathParams, _grid_for,
                                     _substream, deterministic_path, prefix,
                                     sample_levy_jump_diffusion)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _linear_oracle(A, path, x0):
    dz = path.values - path.values[0]
    return np.stack([matrix_exp(A, float(d)).value @ x0 for d in dz[:, 0]])


def _ramp_with_jumps(step=1e-2):
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    i = len(grid) - 1
    jumps = [(grid[i // 4], 0.4), (grid[i // 2], -0.3),
             (grid[3 * i // 4], 0.25)]
    return deterministic_path(grid, 0.7 * grid, jumps)


def test_linear_exactness_on_piecewise_linear_driver():
    A = np.array([[0.1, -0.6], [0.6, 0.1]])
    fields = VectorFieldSet.linear(A[None])
    path = _ramp_with_jumps(1e-3)
    x0 = np.array([1.0, 0.0])
    traj = solve_point(fields, path, x0, MarcusConfig())
    err = np.max(np.abs(traj.post - _linear_oracle(A, path, x0)))
    assert err < 1e-4


def test_deterministic_order_two():
    A = np.array([[0.1, -0.6], [0.6, 0.1]])
    fields = VectorFieldSet.linear(A[None])
    x0 = np.array([1.0, 0.0])
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        path = _ramp_with_jumps(step)
        traj = solve_point(fields, path, x0, MarcusConfig())
        errs.append(np.max(np.abs(traj.post - _linear_oracle(A, path, x0))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.min(orders) > 1.8


def test_single_jump_is_exact_exponential():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    fields = VectorFieldSet.linear(A[None])
    grid = np.linspace(0.0, 1.0, 11)
    path = deterministic_path(grid, np.zeros(11), [(grid[5], 2.0)])
    traj = solve_point(fields, path, np.array([1.0, 0.0]), MarcusConfig())
    expect = matrix_exp(A, 2.0).value @ np.array([1.0, 0.0])
    assert np.max(np.abs(traj.final_state() - expect)) < 1e-12
    # left limit at the jump index still sits at the initial point
    assert np.max(np.abs(traj.pre[5] - [1.0, 0.0])) < 1e-12
    assert bool(traj.is_jump[5])
    assert np.max(np.abs(traj.post[5] - expect)) < 1e-12


def test_sphere_invariance_through_large_jumps():
    def f1(x):
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    def f2(x):
        return np.sin(x[..., 0])[..., None] * np.stack(
            [-x[..., 1], x[..., 0]], axis=-1)

    fields = VectorFieldSet.from_callables(2, [f1, f2])
    grid = np.linspace(0.0, 1.0, 201)
    rng = np.random.default_rng(5)
    cont = np.stack([0.4 * grid, 0.2 * np.sin(2 * np.pi * grid)], axis=1)
    jumps = [(grid[i], rng.uniform(-np.pi, np.pi, size=2))
             for i in (30, 70, 110, 150, 190)]
    path = deterministic_path(grid, cont, jumps)
    traj = solve_point(fields, path, np.array([1.0, 0.0]), MarcusConfig())
    radii = np.linalg.norm(traj.post, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6


def test_jacobian_matches_linear_flow():
    A = np.array([[0.1, -0.6], [0.6, 0.1]])
    fields = VectorFieldSet.linear(A[None])
    path = _ramp_with_jumps(1e-3)
    traj = solve_with_jacobian(fields, path, np.array([1.0, 0.0]),
                               MarcusConfig())
    dz = float(path.values[-1, 0] - path.values[0, 0])
    expect = matrix_exp(A, dz).value
    assert np.max(np.abs(traj.jacobians_post[-1] - expect)) < 1e-4


def test_jacobian_matches_finite_differences_nonlinear():
    def f(x):
        return np.stack([np.sin(x[..., 1]), np.cos(x[..., 0])], axis=-1)

    fields = VectorFieldSet.from_callables(2, [f])
    path = _ramp_with_jumps(2e-3)
    x0 = np.array([0.3, -0.2])
    cfg = MarcusConfig()
    traj = solve_with_jacobian(fields, path, x0, cfg)
    eps = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        d = np.zeros(2)
        d[j] = eps
        plus = solve_point(fields, path, x0 + d, cfg).final_state()
        minus = solve_point(fields, path, x0 - d, cfg).final_state()
        fd[:, j] = (plus - minus) / (2 * eps)
    assert np.max(np.abs(traj.jacobians_post[-1] - fd)) < 1e-6


def _field_kinds():
    """One field set of each kind: callables, and linear (exponential
    jumps)."""
    def f(x):
        return np.stack([x[..., 1], -np.sin(x[..., 0])], axis=-1)

    return [VectorFieldSet.from_callables(2, [f]),
            VectorFieldSet.linear(np.array([[[0.1, -0.6], [0.6, 0.1]]]))]


def test_map_batch_equals_prefix_runs():
    path = _ramp_with_jumps(2.5e-2)
    bases = np.array([[0.5, 0.0], [0.0, 0.5], [-0.3, 0.4]])
    K = path.grid.shape[0]
    fidx = np.array([K // 4, K // 2, K - 1])
    fside = np.array([0, 1, 1])
    cfg = MarcusConfig()
    for fields in _field_kinds():
        states, jacs = solve_map_batch(fields, path, bases, fidx, fside, cfg)
        for r in range(3):
            t = float(path.grid[fidx[r]])
            sub = prefix(path, t, include_jump_at_end=bool(fside[r]))
            ref = solve_with_jacobian(fields, sub, bases[r], cfg)
            pick = ref.post[-1] if fside[r] else ref.pre[-1]
            jpick = (ref.jacobians_post[-1] if fside[r]
                     else ref.jacobians_pre[-1])
            assert np.max(np.abs(states[r] - pick)) == 0.0
            assert np.max(np.abs(jacs[r] - jpick)) == 0.0


def test_map_batch_any_row_order_equals_prefix_runs():
    # shuffled rows; repeated indices; indices 0 and K-1; both sides at a
    # jump index (10) and at a non-jump index (15); results in caller order
    path = _ramp_with_jumps(2.5e-2)
    K = path.grid.shape[0]
    fidx = np.array([0, 0, 5, 10, 10, 10, 15, 15, 20, 20, 30, K - 1, K - 1])
    fside = np.array([0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1])
    rng = np.random.default_rng(5)
    order = rng.permutation(fidx.shape[0])
    fidx, fside = fidx[order], fside[order]
    bases = rng.uniform(-0.6, 0.6, size=(fidx.shape[0], 2))
    cfg = MarcusConfig()
    for fields in _field_kinds():
        states, jacs = solve_map_batch(fields, path, bases, fidx, fside, cfg)
        for r in range(fidx.shape[0]):
            if fidx[r] == 0:
                pick, jpick = bases[r], np.eye(2)
            else:
                sub = prefix(path, float(path.grid[fidx[r]]),
                             include_jump_at_end=bool(fside[r]))
                ref = solve_with_jacobian(fields, sub, bases[r], cfg)
                pick = ref.post[-1] if fside[r] else ref.pre[-1]
                jpick = (ref.jacobians_post[-1] if fside[r]
                         else ref.jacobians_pre[-1])
            assert np.array_equal(states[r], pick)
            assert np.array_equal(jacs[r], jpick)


def test_state_run_equals_jacobian_run_states():
    path = _ramp_with_jumps(2.5e-2)
    x0 = np.array([0.5, -0.2])
    cfg = MarcusConfig()
    for fields in _field_kinds():
        plain = solve_point(fields, path, x0, cfg)
        full = solve_with_jacobian(fields, path, x0, cfg)
        assert np.array_equal(plain.pre, full.pre)
        assert np.array_equal(plain.post, full.post)
        assert plain.jacobians_post is None


def test_random_driver_determinism():
    params = PathParams(horizon=1.0, step=5e-3, brownian_scale=0.5,
                        drift=0.1, jump_intensity=3.0,
                        jump_law=JumpLaw.gaussian(0.0, 0.4), seed=99)
    fields = VectorFieldSet.linear(np.array([[[0.0, -1.0], [1.0, 0.0]]]))
    a = solve_point(fields, sample_levy_jump_diffusion(params),
                    np.array([1.0, 0.0]), MarcusConfig())
    b = solve_point(fields, sample_levy_jump_diffusion(params),
                    np.array([1.0, 0.0]), MarcusConfig())
    assert np.array_equal(a.post, b.post)


def test_commuting_fields_reduce_to_exponential_for_random_driver():
    # [A1, A2] = 0 makes the interpolated solution exp(A1 z1 + A2 z2) x0
    A1 = np.array([[0.3, 0.0], [0.0, -0.2]])
    A2 = np.array([[0.1, 0.0], [0.0, 0.4]])
    fields = VectorFieldSet.linear(np.stack([A1, A2]))
    params = PathParams(horizon=1.0, step=2.5e-3, brownian_scale=(0.3, 0.3),
                        drift=(0.2, -0.1), jump_intensity=2.0,
                        jump_law=JumpLaw.uniform([-0.5, -0.5], [0.5, 0.5]),
                        seed=3, dimension=2)
    path = sample_levy_jump_diffusion(params)
    x0 = np.array([1.0, 2.0])
    traj = solve_point(fields, path, x0, MarcusConfig())
    dz = path.values - path.values[0]
    expect = np.stack([matrix_exp(A1 * d1 + A2 * d2).value @ x0
                       for d1, d2 in dz])
    assert np.max(np.abs(traj.post - expect)) < 5e-3


def test_ensemble_moments_and_observables():
    params = PathParams(horizon=1.0, step=1e-2, brownian_scale=0.4,
                        drift=0.0, jump_intensity=0.0, seed=11)
    fields = VectorFieldSet.linear(np.array([[[1.0]]]))
    obs = {"first": lambda t, x: x[:, 0]}
    summary = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(),
                             n_paths=400, observables=obs)
    # geometric driver: E x_t = exp(sigma^2 t / 2) for sigma = 0.4
    expect = np.exp(0.5 * 0.16 * summary.times)
    se = np.sqrt(summary.variance[:, 0] / 400)
    gap = np.abs(summary.mean[:, 0] - expect)
    assert np.all(gap <= 4.0 * se + 1e-12)
    assert summary.n_failures == 0
    assert np.array_equal(summary.observable_mean["first"], summary.mean[:, 0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ensemble_mean_follows_the_marcus_generator(seed):
    # custom_linear's matrices under a Levy driver: the sampled mean sits
    # within 4 standard errors of exp(tG) x0 with the Marcus jump term
    # lam (E[exp(sum A_i J_i)] - I), and outside them with the Ito term
    # lam (E[I + sum A_i J_i] - I) (max over t > 0: 2.15, 2.71, 2.23 against
    # 5.20, 7.78, 7.05 for seeds 1-3)
    cfg = load_config(os.path.join(CONFIGS, "custom_linear.yaml"))
    A = np.array(cfg["fields"]["matrices"], dtype=float)
    x0 = np.array(cfg["x0"], dtype=float)
    low, high, lam, sigma, n_paths = [-0.3, -0.3], [0.3, 0.3], 3.0, 0.25, 4000
    params = PathParams(horizon=1.0, step=0.02, brownian_scale=sigma,
                        drift=0.0, jump_intensity=lam,
                        jump_law=JumpLaw.uniform(low, high), seed=seed,
                        dimension=2)
    summary = solve_ensemble(VectorFieldSet.linear(A), params, x0,
                             MarcusConfig(), n_paths)
    assert summary.n_failures == 0
    marcus = linear_marcus_mean(A, x0, summary.times, 0.0, sigma, lam,
                                ("uniform", low, high)).value
    G_ito = (0.5 * sigma ** 2 * np.einsum("ijk,ikl->jl", A, A)
             + lam * np.einsum("i,ijk->jk", 0.5 * np.add(low, high), A))
    ito = np.array([matrix_exp(G_ito, t).value @ x0 for t in summary.times])
    se = np.sqrt(summary.variance[1:] / n_paths)
    stat_marcus = np.max(np.abs(summary.mean[1:] - marcus[1:]) / se)
    stat_ito = np.max(np.abs(summary.mean[1:] - ito[1:]) / se)
    assert stat_marcus <= 4.0 < stat_ito, (stat_marcus, stat_ito)


def test_ensemble_is_reproducible():
    params = PathParams(horizon=0.5, step=1e-2, brownian_scale=0.3,
                        drift=0.0, jump_intensity=1.0,
                        jump_law=JumpLaw.constant([0.2]), seed=21)
    fields = VectorFieldSet.linear(np.array([[[0.5]]]))
    a = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(),
                       n_paths=16)
    b = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(),
                       n_paths=16)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)


def test_trajectory_csv_layout():
    fields = VectorFieldSet.linear(np.array([[[0.0, -1.0], [1.0, 0.0]]]))
    path = _ramp_with_jumps(0.25)
    traj = solve_point(fields, path, np.array([1.0, 0.0]), MarcusConfig())
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,pre_1,pre_2,post_1,post_2,is_jump"
    assert len(lines) == 1 + traj.times.shape[0]
    parsed = np.array([float(v) for v in lines[-1].split(",")[3:5]])
    assert np.array_equal(parsed, traj.post[-1])


def test_trajectory_csv_reads_back_bit_for_bit():
    # the shipped rotation run with one jump: every cell parses back to the
    # trajectory's bits, is_jump as 0/1
    cfg = load_config(os.path.join(CONFIGS, "rotation_jump.yaml"))
    problem = build_problem(cfg)
    traj = solve_point(problem["fields"], build_driver(cfg), problem["x0"],
                       build_marcus_config(cfg))
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["time", "pre_1", "pre_2", "post_1", "post_2",
                       "is_jump"]
    cells = np.array([[float(c) for c in row] for row in rows[1:]])
    assert cells[:, 0].tobytes() == traj.times.tobytes()
    assert np.ascontiguousarray(cells[:, 1:3]).tobytes() == traj.pre.tobytes()
    assert np.ascontiguousarray(cells[:, 3:5]).tobytes() == traj.post.tobytes()
    assert [row[5] for row in rows[1:]] == [
        "1" if j else "0" for j in traj.is_jump]
    assert "1" in [row[5] for row in rows[1:]]


def _ensemble_by_points(fields, params, x0, n_paths, observables):
    """The ensemble moments from one solve_point per child driver, summed in
    path order; a path that raises IntegrationFailure is skipped."""
    base = _grid_for(params.horizon, params.step)
    acc = acc2 = 0.0
    oacc = {name: 0.0 for name in observables}
    oacc2 = {name: 0.0 for name in observables}
    done = 0
    for r in range(n_paths):
        child = int(_substream(params.seed, 3, r).integers(0, 2 ** 63))
        path = sample_levy_jump_diffusion(replace(params, seed=child))
        try:
            traj = solve_point(fields, path, x0, MarcusConfig())
        except IntegrationFailure:
            continue
        states = traj.post[np.searchsorted(traj.times, base)]
        acc = acc + states
        acc2 = acc2 + states ** 2
        for name, fn in observables.items():
            series = np.asarray(fn(base, states), dtype=float)
            oacc[name] = oacc[name] + series
            oacc2[name] = oacc2[name] + series ** 2
        done += 1
    mean = acc / done
    omean = {name: oacc[name] / done for name in observables}
    return (mean, np.maximum(acc2 / done - mean ** 2, 0.0), omean,
            {name: np.maximum(oacc2[name] / done - omean[name] ** 2, 0.0)
             for name in observables}, n_paths - done)


def _assert_ensemble_is_sum_of_points(fields, params, x0, n_paths):
    obs = {"norm": lambda t, x: np.linalg.norm(x, axis=-1),
           "first": lambda t, x: x[..., 0]}
    got = solve_ensemble(fields, params, x0, MarcusConfig(), n_paths,
                         observables=obs)
    mean, var, omean, ovar, failures = _ensemble_by_points(
        fields, params, x0, n_paths, obs)
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.variance, var)
    for name in obs:
        assert np.array_equal(got.observable_mean[name], omean[name])
        assert np.array_equal(got.observable_variance[name], ovar[name])
    assert got.n_failures == failures
    return got


def test_ensemble_equals_point_runs_linear_with_jumps():
    # 20 paths x 1024 steps: more row-steps than one block of 2**14 holds
    mats = np.array([[[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]],
                     [[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [-0.2, 0.0, 0.1]]])
    params = PathParams(horizon=1.0, step=2.0 ** -10, brownian_scale=0.25,
                        drift=0.0, jump_intensity=3.0,
                        jump_law=JumpLaw.uniform([-0.3, -0.3], [0.3, 0.3]),
                        seed=5, dimension=2)
    got = _assert_ensemble_is_sum_of_points(
        VectorFieldSet.linear(mats), params, np.array([1.0, 0.5, -0.25]), 20)
    assert got.n_failures == 0


def test_ensemble_equals_point_runs_sphere_tangent_with_jumps():
    # nonlinear fields: RK4 jump flows; 9 paths x 2048 steps span two blocks
    fields = build_problem({"scenario": "sphere-tangent"})["fields"]
    params = PathParams(horizon=1.0, step=2.0 ** -11, brownian_scale=0.3,
                        drift=0.1, jump_intensity=2.0,
                        jump_law=JumpLaw.gaussian([0.0, 0.0], [0.2, 0.2]),
                        seed=42, dimension=2)
    _assert_ensemble_is_sum_of_points(fields, params, np.array([1.0, 0.0]), 9)


def test_single_path_ensemble_is_child_zero():
    params = PathParams(horizon=1.0, step=0.02, brownian_scale=0.3,
                        jump_intensity=2.0, jump_law=JumpLaw.constant([0.2]),
                        seed=8)
    fields = VectorFieldSet.linear(np.array([[[0.5]]]))
    got = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(), 1)
    child = int(_substream(8, 3, 0).integers(0, 2 ** 63))
    traj = solve_point(fields, sample_levy_jump_diffusion(
        replace(params, seed=child)), np.array([1.0]), MarcusConfig())
    assert np.array_equal(got.mean,
                          traj.post[np.searchsorted(traj.times, got.times)])
    assert np.array_equal(got.variance, np.zeros_like(got.mean))


def test_ensemble_with_failing_rows_gives_survivor_moments():
    # x = exp(Z): every path with a jump of 800 overflows, the rest survive
    params = PathParams(horizon=1.0, step=2.0 ** -10, brownian_scale=0.5,
                        jump_intensity=1.0, jump_law=JumpLaw.constant([800.0]),
                        seed=13)
    fields = VectorFieldSet.linear(np.array([[[1.0]]]))
    got = _assert_ensemble_is_sum_of_points(fields, params, np.array([1.0]),
                                            20)
    assert 0 < got.n_failures < 20


def test_ensemble_path_with_overflowing_squares_fails():
    # x = exp(Z): one jump of 500 leaves x finite but x**2 overflows, so
    # every path with a jump fails and the moments stay finite
    params = PathParams(horizon=1.0, step=0.02, brownian_scale=0.1,
                        jump_intensity=1.0, jump_law=JumpLaw.constant([500.0]),
                        seed=4)
    fields = VectorFieldSet.linear(np.array([[[1.0]]]))
    got = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(), 30,
                         observables={"first": lambda t, x: x[..., 0]})
    jumped = sum(sample_levy_jump_diffusion(replace(params, seed=int(
        _substream(4, 3, r).integers(0, 2 ** 63)))).jump_times.shape[0] > 0
        for r in range(30))
    assert 0 < jumped < 30
    assert got.n_failures == jumped
    for arr in (got.mean, got.variance, got.observable_mean["first"],
                got.observable_variance["first"]):
        assert np.all(np.isfinite(arr))


def test_nonlinear_ensemble_fails_only_the_rows_that_blow_up():
    # x' = x^2 dz: a jump dz >= 1/x has a pole inside its unit-time flow.
    # On a 4-step grid up to 8 paths jump at one step index, some of them
    # past the pole and some not; only the former may fail
    fields = VectorFieldSet.from_callables(1, [lambda x: x * x])
    params = PathParams(horizon=1.0, step=0.25, brownian_scale=0.1,
                        jump_intensity=3.0,
                        jump_law=JumpLaw.gaussian([0.0], [300.0]), seed=3)
    got = _assert_ensemble_is_sum_of_points(fields, params, np.array([0.01]),
                                            12)
    assert 0 < got.n_failures < 12


def test_ensemble_makes_one_jump_flow_per_block_step(monkeypatch):
    # one block of 40 paths on a 4-step grid puts about 120 jumps on a
    # handful of step indices, and each index takes one batched flow
    calls = []
    real_flow = odeflow._flow

    def counted(*args, **kwargs):
        calls.append(1)
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(odeflow, "_flow", counted)
    params = PathParams(horizon=1.0, step=0.25, brownian_scale=0.2,
                        jump_intensity=3.0,
                        jump_law=JumpLaw.uniform([-0.5], [0.5]), seed=21)
    fields = VectorFieldSet.linear(np.array([[[0.5]]]))
    solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(), 40)
    paths = [sample_levy_jump_diffusion(replace(params, seed=int(
        _substream(21, 3, r).integers(0, 2 ** 63)))) for r in range(40)]
    steps = max(p.grid.shape[0] for p in paths) - 1
    jumps = sum(p.jump_times.shape[0] for p in paths)
    assert 0 < len(calls) <= steps < jumps
