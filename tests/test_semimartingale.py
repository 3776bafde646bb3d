"""Driving-path sampling, path algebra and serialization."""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

from jumpflow.semimartingale import (JumpLaw, JumpPath, PathParams,
                                     deterministic_path, increment, jump_at,
                                     left_limit, path_to_csv, prefix,
                                     quadratic_variation_c, refine,
                                     restrict_uniform,
                                     sample_levy_jump_diffusion, value_at)


def _params(**kw):
    base = dict(horizon=1.0, step=0.05, brownian_scale=1.0, drift=0.0,
                jump_intensity=0.0, jump_law=None, seed=3, dimension=1)
    base.update(kw)
    return PathParams(**base)


def test_sampling_is_deterministic():
    a = sample_levy_jump_diffusion(_params(jump_intensity=3.0,
                                           jump_law=JumpLaw.gaussian(
                                               np.array([0.0]),
                                               np.array([0.5]))))
    b = sample_levy_jump_diffusion(_params(jump_intensity=3.0,
                                           jump_law=JumpLaw.gaussian(
                                               np.array([0.0]),
                                               np.array([0.5]))))
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.continuous_values, b.continuous_values)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_sizes, b.jump_sizes)


def test_seed_changes_the_draw():
    a = sample_levy_jump_diffusion(_params(seed=1))
    b = sample_levy_jump_diffusion(_params(seed=2))
    assert not np.array_equal(a.continuous_values, b.continuous_values)


def test_zero_intensity_has_no_jumps():
    path = sample_levy_jump_diffusion(_params())
    assert path.jump_times.shape == (0,)
    assert not path.jump_mask.any()


def test_drift_only_path_is_linear():
    path = sample_levy_jump_diffusion(_params(brownian_scale=0.0, drift=2.0))
    assert np.max(np.abs(path.continuous_values[:, 0] - 2.0 * path.grid)) == 0.0


def test_poisson_jump_count_mean():
    law = JumpLaw.constant(np.array([1.0]))
    counts = []
    for seed in range(2000):
        p = sample_levy_jump_diffusion(_params(step=0.25, jump_intensity=3.0,
                                               jump_law=law,
                                               brownian_scale=0.0, seed=seed))
        counts.append(p.jump_times.shape[0])
    mean = np.mean(counts)
    # lambda T = 3, sd of the mean ~ sqrt(3/2000) ~ 0.039
    assert abs(mean - 3.0) < 0.15


def test_jumps_land_on_grid_and_in_window():
    law = JumpLaw.uniform(np.array([-1.0]), np.array([1.0]))
    p = sample_levy_jump_diffusion(_params(jump_intensity=5.0, jump_law=law,
                                           seed=9))
    for t in p.jump_times:
        assert t in p.grid
        assert 0.0 < t <= p.horizon


def test_realized_qv_of_brownian_is_near_t():
    vals = []
    for seed in range(400):
        p = sample_levy_jump_diffusion(_params(step=0.01, seed=seed))
        vals.append(quadratic_variation_c(p)[:, 0, 0].sum())
    mean = float(np.mean(vals))
    # E = 1, sd of a single-path total ~ sqrt(2h) ~ 0.14, so the mean of
    # 400 draws has se ~ 0.007; allow 3.5 se
    assert abs(mean - 1.0) < 0.025


def test_realized_qv_scales_with_step_for_smooth_path():
    totals = []
    for n in (10, 20, 40):
        grid = np.linspace(0.0, 1.0, n + 1)
        path = deterministic_path(grid, (grid * 0.8)[:, None])
        totals.append(quadratic_variation_c(path)[:, 0, 0].sum())
    assert totals[0] / totals[1] == pytest.approx(2.0, rel=1e-12)
    assert totals[1] / totals[2] == pytest.approx(2.0, rel=1e-12)


def test_qv_of_pure_jump_path_is_zero():
    grid = np.linspace(0.0, 1.0, 11)
    path = deterministic_path(grid, np.zeros((11, 1)),
                              jumps=[(0.5, np.array([2.0]))])
    assert np.all(quadratic_variation_c(path) == 0.0)


def test_path_point_operations():
    grid = np.linspace(0.0, 1.0, 11)
    vals = (grid * 1.0)[:, None]
    path = deterministic_path(grid, vals, jumps=[(0.5, np.array([0.25]))])
    assert value_at(path, 0.5)[0] == pytest.approx(0.75)
    assert left_limit(path, 0.5)[0] == pytest.approx(0.5)
    assert increment(path, 0.2, 0.7)[0] == pytest.approx(0.75)
    assert jump_at(path, 0.5)[0] == pytest.approx(0.25)
    assert jump_at(path, 0.3) is None
    assert value_at(path, 1.0)[0] == pytest.approx(1.25)


def test_cadlag_values_include_jumps():
    grid = np.linspace(0.0, 1.0, 11)
    path = deterministic_path(grid, np.zeros((11, 1)),
                              jumps=[(grid[3], np.array([1.0])),
                                     (grid[6], np.array([-2.0]))])
    assert path.values[-1, 0] == pytest.approx(-1.0)
    assert path.left_values[3, 0] == pytest.approx(0.0)
    assert path.values[3, 0] == pytest.approx(1.0)


def test_refine_preserves_endpoint_values_and_jumps():
    p = sample_levy_jump_diffusion(_params(
        jump_intensity=4.0, seed=21,
        jump_law=JumpLaw.constant(np.array([0.5]))))
    fine = refine(p, 4)
    assert fine.grid.shape[0] > p.grid.shape[0]
    assert np.array_equal(fine.jump_times, p.jump_times)
    for t in p.grid:
        assert np.max(np.abs(value_at(fine, t) - value_at(p, t))) < 1e-14


def test_restrict_inverts_refine_on_uniform_grid():
    grid = np.linspace(0.0, 1.0, 21)
    path = deterministic_path(grid, np.sin(grid)[:, None])
    fine = refine(path, 4)
    back = restrict_uniform(fine, 4)
    assert np.allclose(back.grid, path.grid, atol=1e-15)
    assert np.allclose(back.continuous_values, path.continuous_values,
                       atol=1e-15)


def test_prefix_stops_before_or_at_jump():
    grid = np.linspace(0.0, 1.0, 11)
    path = deterministic_path(grid, np.zeros((11, 1)),
                              jumps=[(0.5, np.array([1.0]))])
    with_jump = prefix(path, 0.5, include_jump_at_end=True)
    without = prefix(path, 0.5, include_jump_at_end=False)
    assert with_jump.jump_times.shape == (1,)
    assert without.jump_times.shape == (0,)
    assert with_jump.horizon == pytest.approx(0.5)


def test_validation_rejects_bad_grids():
    with pytest.raises(ValueError):
        deterministic_path(np.array([0.1, 0.2]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        deterministic_path(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        # jump not on the grid
        deterministic_path(np.array([0.0, 1.0]), np.zeros((2, 1)),
                           jumps=[(0.37, np.array([1.0]))])


def test_params_validation():
    with pytest.raises(ValueError):
        _params(step=-0.1)
    with pytest.raises(ValueError):
        _params(horizon=0.0)
    with pytest.raises(ValueError):
        _params(jump_intensity=1.0)   # intensity without a law
    with pytest.raises(ValueError):
        _params(seed=-1)


def test_csv_round_trip_precision():
    p = sample_levy_jump_diffusion(_params(
        jump_intensity=2.0, seed=33,
        jump_law=JumpLaw.gaussian(np.array([0.0]), np.array([1.0]))))
    buf = io.StringIO()
    path_to_csv(p, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].split(",")[:2] == ["time", "z_1"]
    assert len(lines) == p.grid.shape[0] + 1
    # values parse back exactly
    k = len(lines) // 2
    parts = lines[k].split(",")
    assert float(parts[0]) == p.grid[k - 1]


def test_multichannel_brownian_channels_independent():
    p = sample_levy_jump_diffusion(_params(dimension=3, step=0.01, seed=8))
    incs = np.diff(p.continuous_values, axis=0)
    corr = np.corrcoef(incs.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.35


def test_sampling_does_not_load_numpy_ma():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys\n"
             "from jumpflow.semimartingale import (JumpLaw, PathParams,\n"
             "    sample_levy_jump_diffusion)\n"
             "sample_levy_jump_diffusion(PathParams(\n"
             "    horizon=1.0, step=0.01, jump_intensity=5.0,\n"
             "    jump_law=JumpLaw.constant([0.5]), seed=3))\n"
             "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
