"""Canonical jump-SDE solver: exactness, order, invariance, ensembles."""

import csv
import functools
import io
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import jumpflow.odeflow as odeflow
from jumpflow.config import (build_driver, build_marcus_config, build_problem,
                             load_config)
from jumpflow.errors import IntegrationFailure
from jumpflow.marcus import (MarcusConfig, _driver_block, _run, _sweep,
                             solve_ensemble, solve_point, solve_with_jacobian,
                             trajectory_to_csv)
from jumpflow.odeflow import VectorFieldSet
from jumpflow.reference import linear_marcus_mean, matrix_exp
from jumpflow.semimartingale import (JumpLaw, PathParams, _grid_for,
                                     _substream,
                                     deterministic_path, prefix,
                                     sample_levy_jump_diffusion)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _linear_oracle(A, path, x0):
    dz = path.values - path.values[0]
    return np.stack([matrix_exp(A, float(d)) @ x0 for d in dz[:, 0]])


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
    expect = matrix_exp(A, 2.0) @ np.array([1.0, 0.0])
    assert np.max(np.abs(traj.final_state() - expect)) < 1e-12
    # left limit at the jump index still sits at the initial point
    assert np.max(np.abs(traj.pre[5] - [1.0, 0.0])) < 1e-12
    assert bool(traj.is_jump[5])
    assert np.max(np.abs(traj.post[5] - expect)) < 1e-12


def test_sphere_invariance_through_large_jumps():
    def H(x):
        rot = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return np.stack([rot, np.sin(x[..., 0])[..., None] * rot], axis=-1)

    fields = VectorFieldSet.from_callable(2, 2, H)
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
    expect = matrix_exp(A, dz)
    assert np.max(np.abs(traj.jacobians_post[-1] - expect)) < 1e-4


def test_jacobian_matches_finite_differences_nonlinear():
    def H(x):
        return np.stack([np.sin(x[..., 1]), np.cos(x[..., 0])], axis=-1)[..., None]

    fields = VectorFieldSet.from_callable(2, 1, H)
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
    """One field set of each kind: a callable, and linear (exponential
    jumps)."""
    def H(x):
        return np.stack([x[..., 1], -np.sin(x[..., 0])], axis=-1)[..., None]

    return [VectorFieldSet.from_callable(2, 1, H),
            VectorFieldSet.linear(np.array([[[0.1, -0.6], [0.6, 0.1]]]))]


def test_map_batch_equals_prefix_runs():
    path = _ramp_with_jumps(2.5e-2)
    bases = np.array([[0.5, 0.0], [0.0, 0.5], [-0.3, 0.4]])
    K = path.grid.shape[0]
    fidx = np.array([K // 4, K // 2, K - 1])
    fside = np.array([0, 1, 1])
    cfg = MarcusConfig()
    for fields in _field_kinds():
        states, jacs = _run(_sweep(fields, path, bases, cfg, True, fidx, fside))
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
        states, jacs = _run(_sweep(fields, path, bases, cfg, True, fidx, fside))
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
    expect = np.stack([matrix_exp(A1 * d1 + A2 * d2) @ x0
                       for d1, d2 in dz])
    assert np.max(np.abs(traj.post - expect)) < 5e-3


def test_ensemble_moments_and_observables():
    params = PathParams(horizon=1.0, step=1e-2, brownian_scale=0.4,
                        drift=0.0, jump_intensity=0.0, seed=11)
    fields = VectorFieldSet.linear(np.array([[[1.0]]]))
    obs = {"first": lambda t, x: x[..., 0]}
    summary = solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(),
                             n_paths=400, observables=obs)
    # geometric driver: E x_t = exp(sigma^2 t / 2) for sigma = 0.4
    expect = np.exp(0.5 * 0.16 * summary.times)
    se = np.sqrt(summary.variance[:, 0] / 400)
    gap = np.abs(summary.mean[:, 0] - expect)
    assert np.all(gap <= 4.0 * se + 1e-12)
    assert summary.n_failures == 0
    assert np.array_equal(summary.observable_mean["first"], summary.mean[:, 0])


# the Levy driver of the ensemble oracle tests: uniform jumps in +-0.3 at
# intensity 3, Brownian scale 0.25, 4,000 paths
LOW, HIGH, LAM, SIGMA, N_PATHS = [-0.3, -0.3], [0.3, 0.3], 3.0, 0.25, 4000


@functools.lru_cache(maxsize=None)
def _custom_linear_ensemble(seed):
    """custom_linear's matrices and x0 and the summary of their ensemble
    under the oracle tests' driver; each seed is solved once."""
    cfg = load_config(os.path.join(CONFIGS, "custom_linear.yaml"))
    A = np.array(cfg["fields"]["matrices"], dtype=float)
    x0 = np.array(cfg["x0"], dtype=float)
    params = PathParams(horizon=1.0, step=0.02, brownian_scale=SIGMA,
                        drift=0.0, jump_intensity=LAM,
                        jump_law=JumpLaw.uniform(LOW, HIGH), seed=seed,
                        dimension=2)
    return A, x0, solve_ensemble(VectorFieldSet.linear(A), params, x0,
                                 MarcusConfig(), N_PATHS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ensemble_mean_follows_the_marcus_generator(seed):
    # custom_linear's matrices under a Levy driver: the sampled mean sits
    # within 4 standard errors of exp(tG) x0 with the Marcus jump term
    # lam (E[exp(sum A_i J_i)] - I), and outside them with the Ito term
    # lam (E[I + sum A_i J_i] - I) (max over t > 0: 2.15, 2.71, 2.23 against
    # 5.20, 7.78, 7.05 for seeds 1-3)
    A, x0, summary = _custom_linear_ensemble(seed)
    low, high, lam, sigma, n_paths = LOW, HIGH, LAM, SIGMA, N_PATHS
    assert summary.n_failures == 0
    marcus = linear_marcus_mean(A, x0, summary.times, 0.0, sigma, lam,
                                ("uniform", low, high))
    G_ito = (0.5 * sigma ** 2 * np.einsum("ijk,ikl->jl", A, A)
             + lam * np.einsum("i,ijk->jk", 0.5 * np.add(low, high), A))
    ito = np.array([matrix_exp(G_ito, t) @ x0 for t in summary.times])
    se = np.sqrt(summary.variance[1:] / n_paths)
    stat_marcus = np.max(np.abs(summary.mean[1:] - marcus[1:]) / se)
    stat_ito = np.max(np.abs(summary.mean[1:] - ito[1:]) / se)
    assert stat_marcus <= 4.0 < stat_ito, (stat_marcus, stat_ito)


def _kronecker_sum(A, k):
    """sum_j I x .. x A_i x .. x I (A_i in the j-th of k factors) for each
    A_i: the fields of the linear Marcus SDE that X^(x k) solves."""
    eye = np.eye(A.shape[-1])
    return np.array([sum(functools.reduce(np.kron, [a if i == j else eye
                                                    for i in range(k)])
                         for j in range(k)) for a in A])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ensemble_variance_follows_the_kronecker_generator(seed):
    # E[X_c^k] is a component of E[X^(x k)], the mean of the linear Marcus
    # SDE with the k-fold Kronecker sums of the A_i from x0^(x k): exact,
    # since they commute across the factors, so a jump's exponential is
    # E^(x k).  The sampled variance sits within 4 exact standard errors
    # sqrt((mu_4 - sigma^4) / N) of the exact one (max over t > 0: 2.40,
    # 2.92, 1.68 for seeds 1-3; with the variance scaled by 1.2: 10.68,
    # 10.91, 8.19)
    A, x0, summary = _custom_linear_ensemble(seed)
    m1, m2, m3, m4 = (np.einsum(
        "t" + "i" * k + "->ti", linear_marcus_mean(
            _kronecker_sum(A, k), functools.reduce(np.kron, [x0] * k),
            summary.times, 0.0, SIGMA, LAM, ("uniform", LOW, HIGH)
        ).reshape((-1,) + (len(x0),) * k)) for k in range(1, 5))
    var = m2 - m1 ** 2
    mu4 = m4 - 4 * m1 * m3 + 6 * m1 ** 2 * m2 - 3 * m1 ** 4
    se = np.sqrt((mu4[1:] - var[1:] ** 2) / N_PATHS)
    stat = np.max(np.abs(summary.variance[1:] - var[1:]) / se)
    assert stat <= 4.0, stat


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
    path order; a path that raises IntegrationFailure, or whose states or
    observable series do not square to finite values, is skipped."""
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
        series = {name: np.asarray(fn(base, states), dtype=float)
                  for name, fn in observables.items()}
        with np.errstate(over="ignore"):
            if not all(np.isfinite(v ** 2).all()
                       for v in [states, *series.values()]):
                continue
        acc = acc + states
        acc2 = acc2 + states ** 2
        for name, v in series.items():
            oacc[name] = oacc[name] + v
            oacc2[name] = oacc2[name] + v ** 2
        done += 1
    mean = acc / done
    omean = {name: oacc[name] / done for name in observables}
    return (mean, np.maximum(acc2 / done - mean ** 2, 0.0), omean,
            {name: np.maximum(oacc2[name] / done - omean[name] ** 2, 0.0)
             for name in observables}, n_paths - done)


def _assert_ensemble_is_sum_of_points(fields, params, x0, n_paths, obs=None):
    """The ensemble's moments are bit for bit those of one solve_point per
    path (``tobytes``: -0.0 is not 0.0, and a NaN is compared by its bits)."""
    obs = obs or {"norm": lambda t, x: np.linalg.norm(x, axis=-1),
                  "first": lambda t, x: x[..., 0],
                  "timed": lambda t, x: t * x[..., -1] - t}
    got = solve_ensemble(fields, params, x0, MarcusConfig(), n_paths,
                         observables=obs)
    mean, var, omean, ovar, failures = _ensemble_by_points(
        fields, params, x0, n_paths, obs)
    assert got.mean.tobytes() == mean.tobytes()
    assert got.variance.tobytes() == var.tobytes()
    for name in obs:
        assert got.observable_mean[name].tobytes() == omean[name].tobytes()
        assert (got.observable_variance[name].tobytes()
                == ovar[name].tobytes())
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


def test_ensemble_path_whose_observable_alone_overflows_fails():
    # x = exp(0.5 B) squares to finite values, but the observable is 1e200
    # wherever x > 1.5: those paths fail by their observable alone
    params = PathParams(horizon=1.0, step=0.05, brownian_scale=0.5, seed=6)
    fields = VectorFieldSet.linear(np.array([[[1.0]]]))
    got = _assert_ensemble_is_sum_of_points(
        fields, params, np.array([1.0]), 30,
        {"capped": lambda t, x: np.where(x[..., 0] > 1.5, 1e200, x[..., 0])})
    assert 0 < got.n_failures < 30


def _one_path(params, seed, base):
    """(grid, continuous values, jump times, jump sizes) of the driver that
    ``params`` draws with ``seed`` on ``base``, recomputed alone from its
    substreams: purpose 1 the Poisson count and sorted times, purpose 2 the
    sizes, purpose 0 one normal per interval of each scaled channel."""
    T, m = params.horizon, params.dimension
    times, sizes = np.empty(0), np.zeros((0, m))
    if params.jump_intensity > 0:
        rng = _substream(seed, 1)
        count = int(rng.poisson(params.jump_intensity * T))
        times = np.sort(rng.uniform(0.0, T, size=count))
        times = times[np.diff(times, prepend=0.0) > 0]
        law, shape = params.jump_law, (times.shape[0], m)
        if times.shape[0] and law.kind == "constant":
            sizes = np.tile(law.value, (shape[0], 1))
        elif times.shape[0] and law.kind == "uniform":
            sizes = _substream(seed, 2).uniform(law.low, law.high, size=shape)
        elif times.shape[0]:
            sizes = law.mean + law.std * _substream(seed, 2).standard_normal(
                shape)
    grid = np.sort(np.concatenate([base, times]))
    grid = grid[np.diff(grid, prepend=-1.0) > 0]
    dt = np.diff(grid)
    bm = np.zeros((grid.shape[0], m))
    for c in np.flatnonzero(params.scale_vector()):
        bm[1:, c] = np.cumsum(
            _substream(seed, 0, c).standard_normal(dt.shape[0]) * np.sqrt(dt))
    cont = params.drift_vector() * grid[:, None] + params.scale_vector() * bm
    return grid, cont, times, sizes


_SAMPLED = {
    "m1-constant": PathParams(
        horizon=1.0, step=0.05, brownian_scale=0.4, drift=0.3,
        jump_intensity=1.0, jump_law=JumpLaw.constant([0.2]), seed=11),
    "m2-uniform-zero-scale": PathParams(
        horizon=1.0, step=0.1, brownian_scale=(0.25, 0.0), drift=(0.0, -0.5),
        jump_intensity=3.0,
        jump_law=JumpLaw.uniform([-0.3, -0.3], [0.3, 0.3]), seed=14,
        dimension=2),
    "m3-gaussian-zero-scale": PathParams(
        horizon=2.0, step=0.125, brownian_scale=(0.3, 0.0, 1.5),
        drift=(0.1, -0.2, 0.0), jump_intensity=1.5,
        jump_law=JumpLaw.gaussian([0.0, 1.0, -1.0], [0.5, 0.0, 2.0]),
        seed=17, dimension=3),
    "m2-intensity-0": PathParams(
        horizon=0.7, step=0.1, brownian_scale=(1.0, 0.5), drift=0.2,
        seed=15, dimension=2),
}


@pytest.mark.parametrize("on_base", [False, True],
                         ids=["base-grid", "jump-on-base-point"])
@pytest.mark.parametrize("name", list(_SAMPLED))
def test_sampled_rows_equal_one_path_draws_bitwise(name, on_base):
    # every row of a block, and the one-path sampler, holds the bits of
    # its driver recomputed alone; on_base puts a base point on a drawn
    # jump time, which the merged grid then holds once
    params = _SAMPLED[name]
    seeds = [int(_substream(params.seed, 3, r).integers(0, 2 ** 63))
             for r in range(12)]
    base = _grid_for(params.horizon, params.step)
    ref = [_one_path(params, s, base) for s in seeds]
    counts = [times.shape[0] for _, _, times, _ in ref]
    if params.jump_intensity:
        assert min(counts) == 0 and max(counts) >= 2
    else:
        assert max(counts) == 0
    if on_base and max(counts):
        t = next(times[-1] for _, _, times, _ in ref if times.shape[0])
        base = np.sort(np.r_[base, t])
        ref = [_one_path(params, s, base) for s in seeds]
        assert any(t in grid for grid, _, _, _ in ref)
    (_, dz, jumps), at = _driver_block(params, seeds, base)
    hops = {r: [] for r in range(len(seeds))}
    for k, (rows, sizes) in jumps.items():
        for r, size in zip(rows.tolist(), sizes):
            hops[r].append((int(k), size.tobytes()))
    for r, (grid, cont, times, sizes) in enumerate(ref):
        n = grid.shape[0]
        assert dz[:n - 1, r].tobytes() == np.diff(cont, axis=0).tobytes()
        assert not dz[n - 1:, r].any()
        assert sorted(hops[r]) == [
            (k, size.tobytes())
            for k, size in zip(np.searchsorted(grid, times).tolist(), sizes)]
        assert at[r].tolist() == np.searchsorted(grid, base).tolist()
    base = _grid_for(params.horizon, params.step)
    for seed in seeds:
        path = sample_levy_jump_diffusion(replace(params, seed=seed))
        for got, want in zip((path.grid, path.continuous_values,
                              path.jump_times, path.jump_sizes),
                             _one_path(params, seed, base)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_block_row_that_overflows_stays_non_finite():
    # x_1' = x_1 dz, x_2' = 0 with a jump of 800: a row that jumps
    # overflows there to (inf, x_2), and the next Heun step makes x_2 NaN
    # too (0 * inf).  The block sweep has no failure mask and never raises;
    # that row stays non-finite up to the block's last step, every other
    # row keeps the bits of its own solve_point run
    params = PathParams(horizon=1.0, step=2.0 ** -6, brownian_scale=0.5,
                        jump_intensity=1.0, jump_law=JumpLaw.constant([800.0]),
                        seed=13)
    fields = VectorFieldSet.linear(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    base = _grid_for(params.horizon, params.step)
    seeds = [int(_substream(13, 3, r).integers(0, 2 ** 63)) for r in range(8)]
    block, _ = _driver_block(params, seeds, base)
    post = _run(_sweep(fields, block, np.ones((8, 2)), MarcusConfig(), False))
    failing = 0
    for r, seed in enumerate(seeds):
        path = sample_levy_jump_diffusion(replace(params, seed=seed))
        try:
            traj = solve_point(fields, path, np.ones(2), MarcusConfig())
        except IntegrationFailure as exc:
            k = int(np.searchsorted(path.grid, exc.time))
            assert np.isfinite(post[:k, r]).all()
            assert not np.isfinite(post[k:, r]).all(axis=-1).any()
            assert not np.isfinite(post[k + 1:, r]).any()
            failing += 1
        else:
            assert (post[:path.grid.shape[0], r].tobytes()
                    == traj.post.tobytes())
    assert 0 < failing < 8


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
    fields = VectorFieldSet.from_callable(1, 1, lambda x: (x * x)[..., None])
    params = PathParams(horizon=1.0, step=0.25, brownian_scale=0.1,
                        jump_intensity=3.0,
                        jump_law=JumpLaw.gaussian([0.0], [300.0]), seed=3)
    got = _assert_ensemble_is_sum_of_points(fields, params, np.array([0.01]),
                                            12)
    assert 0 < got.n_failures < 12


def test_ensemble_observes_each_block_once():
    # 20 paths x 1024 steps: blocks of 16 and 4 rows, one call for each
    shapes = []

    def first(t, x):
        shapes.append((t.shape, x.shape))
        return x[..., 0]

    params = PathParams(horizon=1.0, step=2.0 ** -10, brownian_scale=0.25,
                        jump_intensity=3.0,
                        jump_law=JumpLaw.uniform([-0.3], [0.3]), seed=5)
    fields = VectorFieldSet.linear(np.array([[[0.5]]]))
    solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(), 20,
                   observables={"first": first})
    assert shapes == [((1025,), (16, 1025, 1)), ((1025,), (4, 1025, 1))]


@pytest.mark.parametrize("fn, shape", [
    (lambda t, x: x, (3, 5, 1)),
    (lambda t, x: t, (5,)),
    (lambda t, x: x[:, 0], (3, 1)),
    (lambda t, x: np.sum(x), ())], ids=["states", "times", "rows", "scalar"])
def test_observable_of_the_wrong_shape_raises(fn, shape):
    # an observable maps states (..., K, n) to (..., K); a block of 3 paths
    # on a 4-step grid hands it (3, 5, 1)
    params = PathParams(horizon=1.0, step=0.25, brownian_scale=0.2, seed=2)
    fields = VectorFieldSet.linear(np.array([[[0.5]]]))
    with pytest.raises(ValueError, match=re.escape(
            "observable: shape %s, not (3, 5) (..., K)" % (shape,))):
        solve_ensemble(fields, params, np.array([1.0]), MarcusConfig(), 3,
                       observables={"first": lambda t, x: x[..., 0],
                                    "bad": fn})


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


_ROT = VectorFieldSet.linear(np.array([[[0.0, -1.0], [1.0, 0.0]]]))


@pytest.mark.parametrize("make, message", [
    (lambda: solve_point(VectorFieldSet.linear(np.zeros((2, 2, 2))),
                         _ramp_with_jumps(0.25), np.ones(2), MarcusConfig()),
     "field count must match driver dimension"),
    (lambda: _run(_sweep(_ROT, _ramp_with_jumps(0.25), np.ones((1, 2)),
                         MarcusConfig(), True, [5], [0])),
     "freeze_index or freeze_side out of range"),
    (lambda: _run(_sweep(_ROT, _ramp_with_jumps(0.25), np.ones((1, 2)),
                         MarcusConfig(), True, [-1], [0])),
     "freeze_index or freeze_side out of range"),
    (lambda: _run(_sweep(_ROT, _ramp_with_jumps(0.25), np.ones((1, 2)),
                         MarcusConfig(), True, [1], [2])),
     "freeze_index or freeze_side out of range"),
    (lambda: solve_ensemble(_ROT, PathParams(horizon=1.0, step=0.5),
                            np.ones(2), MarcusConfig(), n_paths=0),
     "n_paths must be >= 1"),
], ids=["field-count", "freeze-past-end", "freeze-negative", "freeze-side-2",
        "no-paths"])
def test_argument_checks_name_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_map_batch_frozen_at_time_0_returns_its_bases():
    # every row stops at grid index 0, so the sweep ends before its first
    # step: the states are the bases and the Jacobians the identity
    bases = np.array([[1.0, 0.0], [0.3, -0.7], [-2.0, 0.5]])
    states, jacs = _run(_sweep(_ROT, _ramp_with_jumps(0.25), bases,
                               MarcusConfig(), True, [0, 0, 0], [0, 1, 0]))
    assert np.array_equal(states, bases)
    assert np.array_equal(jacs, np.broadcast_to(np.eye(2), (3, 2, 2)))
