"""Driving-path sampling, path algebra and serialization."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from jumpflow.errors import IntegrationFailure
from jumpflow.marcus import MarcusConfig, solve_point
from jumpflow.mesh import MeshChart
from jumpflow.odeflow import VectorFieldSet
from jumpflow.semimartingale import (JumpLaw, JumpPath, PathParams,
                                     deterministic_path, path_to_csv, prefix,
                                     quadratic_variation_c, refine,
                                     sample_levy_jump_diffusion)


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


def test_cadlag_values_include_jumps():
    grid = np.linspace(0.0, 1.0, 11)
    path = deterministic_path(grid, np.zeros((11, 1)),
                              jumps=[(grid[3], np.array([1.0])),
                                     (grid[6], np.array([-2.0]))])
    assert path.values[-1, 0] == pytest.approx(-1.0)
    left = path.values - path.jump_size_at_grid()
    assert left[3, 0] == pytest.approx(0.0)
    assert path.values[3, 0] == pytest.approx(1.0)


def test_refine_preserves_endpoint_values_and_jumps():
    p = sample_levy_jump_diffusion(_params(
        jump_intensity=4.0, seed=21,
        jump_law=JumpLaw.constant(np.array([0.5]))))
    fine = refine(p, 4)
    assert fine.grid.shape[0] > p.grid.shape[0]
    assert np.array_equal(fine.jump_times, p.jump_times)
    # every 4th fine point is a coarse one, with the same cadlag value
    assert np.array_equal(fine.grid[::4], p.grid)
    assert np.max(np.abs(fine.values[::4] - p.values)) < 1e-14


@pytest.mark.parametrize("factor", [2.5, 1.5, 0, -1, 0.5])
def test_refine_rejects_a_factor_that_is_not_a_whole_number(factor):
    # on a 0.25 grid, 2.5 used to give 0, 0.1, 0.2, 0.25, ... and 1.5 one
    # point at 2/3 of each interval
    grid = np.linspace(0.0, 1.0, 5)
    p = deterministic_path(grid, grid.copy())
    with pytest.raises(ValueError, match="whole number"):
        refine(p, factor)
    # numpy integers and the 2 ** k of a refinement ladder keep working
    assert np.array_equal(refine(p, np.int64(2)).grid, np.linspace(0, 1, 9))
    assert np.array_equal(refine(p, 2 ** 2).grid, np.linspace(0, 1, 17))


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
    for grid, times, sizes in [([0.0, 0.5, np.inf], [], None),
                               ([0.0, 0.5, 1.0], [np.nan], [[1.0]]),
                               ([0.0, 0.5, 1.0], [0.5], [[np.inf]]),
                               ([0.0, 0.5, 1.0], [0.5], [[np.nan]])]:
        with pytest.raises(ValueError):  # non-finite, not an overflow
            JumpPath(np.array(grid), np.zeros(3), np.array(times), sizes)


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


def test_path_csv_reads_back_bit_for_bit():
    # the smallest subnormal, a huge value and an inexact decimal, plus one
    # jump: every cell parses back to the driver's bits, is_jump as 0/1
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    values = [[0.0, 0.0], [5e-324, -1e308], [1e308, 0.1], [0.1, 5e-324],
              [0.3, 1.0 / 3.0]]
    p = deterministic_path(times, values, [(0.75, [0.5, -0.25])])
    buf = io.StringIO()
    path_to_csv(p, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["time", "z_1", "z_2", "is_jump", "dz_1", "dz_2"]
    cells = np.array([[float(c) for c in row] for row in rows[1:]])
    assert cells[:, 0].tobytes() == p.grid.tobytes()
    assert np.ascontiguousarray(cells[:, 1:3]).tobytes() == p.values.tobytes()
    assert (np.ascontiguousarray(cells[:, 4:]).tobytes()
            == p.jump_size_at_grid().tobytes())
    assert [row[3] for row in rows[1:]] == ["0", "0", "0", "1", "0"]


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _layout_drivers():
    """(label, path): the driver of every shipped config, a refined and two
    prefixed Levy paths, and a path with a -0.0 jump."""
    from jumpflow.config import build_driver, load_config
    out = [(name, build_driver(load_config(os.path.join(CONFIGS, name))))
           for name in sorted(os.listdir(CONFIGS))]
    levy = sample_levy_jump_diffusion(_params(
        dimension=2, jump_intensity=6.0, seed=5,
        jump_law=JumpLaw.gaussian([0.0, 1.0], [1.0, 0.5])))
    t = float(levy.jump_times[1])
    out += [("refined", refine(levy, 3)),
            ("prefix-with-jump", prefix(levy, t)),
            ("prefix-without-jump",
             prefix(levy, t, include_jump_at_end=False))]
    grid = np.linspace(0.0, 1.0, 11)
    out.append(("negative-zero-jump", deterministic_path(
        grid, np.outer(grid, [0.5, -1.0]),
        [(grid[3], [-0.0, 0.25]), (grid[7], [1.5, -0.0])])))
    return out


@pytest.mark.parametrize("label, path", _layout_drivers())
def test_driver_layout_matches_an_explicit_recomputation(label, path):
    # the jump rows, their running sums (one float addition per grid point)
    # and the values built from them, bit for bit
    cont, grid = path.continuous_values, path.grid
    index = [int(np.flatnonzero(grid == t)[0]) for t in path.jump_times]
    mask = np.zeros(grid.shape[0], dtype=bool)
    mask[index] = True
    rows = np.zeros_like(cont)
    for k, size in zip(index, path.jump_sizes):
        rows[k] = size
    cum = np.empty_like(cont)
    cum[0] = rows[0]
    for k in range(1, grid.shape[0]):
        cum[k] = cum[k - 1] + rows[k]
    assert path.jump_mask.dtype == bool
    assert path.jump_mask.tobytes() == mask.tobytes()
    assert path.jump_size_at_grid().tobytes() == rows.tobytes()
    assert path.values.tobytes() == (cont + cum).tobytes()


def test_negative_zero_jump_keeps_its_sign_in_the_csv():
    path = dict(_layout_drivers())["negative-zero-jump"]
    buf = io.StringIO()
    path_to_csv(path, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0][-2:] == ["dz_1", "dz_2"]
    assert rows[1 + 3][-3:] == ["1", "-0.0", "0.25"]
    assert rows[1 + 7][-3:] == ["1", "1.5", "-0.0"]


def test_driver_layout_is_stored_once_and_read_only():
    path = dict(_layout_drivers())["refined"]
    assert path.increments.tobytes() == np.diff(path.continuous_values,
                                                axis=0).tobytes()
    assert np.array_equal(path.jump_index,
                          np.searchsorted(path.grid, path.jump_times))
    assert path.jump_size_at_grid() is path.jump_size_at_grid()
    for arr in (path.increments, path.jump_index, path.jump_mask,
                path.jump_size_at_grid()):
        with pytest.raises(ValueError):
            arr[-1] = arr[0]


def test_path_copies_the_callers_arrays():
    grid = np.linspace(0.0, 1.0, 11)
    cont = np.outer(grid, [1.0, -2.0])
    times, sizes = grid[[3, 8]], np.array([[0.5, 1.0], [-1.0, 0.25]])
    path = JumpPath(grid, cont, times, sizes)
    made = deterministic_path(grid, cont, zip(times, sizes))
    kept = [a.copy() for a in (grid, cont, times, sizes)]
    for arr in (grid, cont, times, sizes):
        arr[0] = 9.0  # the caller's arrays stay writable
    for p in (path, made):
        for arr, old in zip((p.grid, p.continuous_values, p.jump_times,
                             p.jump_sizes), kept):
            assert arr.tobytes() == old.tobytes()


@pytest.mark.parametrize("cont, jumps, time", [
    (np.zeros(11), [(0.5, 1e308), (0.6, 1e308)], 0.6),  # the running sum
    (np.zeros(11), [(0.5, 1e308), (0.6, 1e308), (0.7, -1e308)], 0.6),
    (np.r_[np.zeros(7), np.inf, np.zeros(3)], [], 0.7),  # the continuous part
    (np.r_[np.zeros(4), np.nan, np.zeros(6)], [(0.2, 1.0)], 0.4),
])
def test_overflowed_path_fails_at_its_first_bad_time(cont, jumps, time):
    grid = np.round(np.linspace(0.0, 1.0, 11), 12)
    with pytest.raises(IntegrationFailure, match="driver path overflowed") \
            as exc:
        deterministic_path(grid, cont, jumps)
    assert exc.value.time == time


def test_array_records_compare_by_identity_and_hash():
    g = np.linspace(0.0, 1.0, 3)
    a, b = deterministic_path(g, g), deterministic_path(g, g)
    assert a == a and a != b and not a == b
    law = JumpLaw.uniform([0.0], [1.0])
    traj = solve_point(VectorFieldSet.linear([[[1.0]]]), a, [1.0],
                       MarcusConfig())
    chart = MeshChart.annulus((0.5, 2.0), (4, 4))
    for record in (a, law, traj, chart):
        assert {record: 1}[record] == 1
    assert law != JumpLaw.uniform([0.0], [1.0])
    assert _params(seed=4) == _params(seed=4)


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


@pytest.mark.parametrize("make, message", [
    (lambda: JumpLaw.constant([np.nan]), "constant jump law needs a finite"),
    (lambda: JumpLaw.constant([0.5, np.inf]),
     "constant jump law needs a finite"),
    (lambda: JumpLaw.gaussian([0.0], [np.nan]), "gaussian jump law needs std"),
    (lambda: JumpLaw.gaussian([np.inf], [1.0]),
     "gaussian jump law needs a finite"),
    (lambda: JumpLaw.gaussian([0.0], [np.inf]),
     "gaussian jump law needs a finite"),
], ids=["constant-nan", "constant-inf", "gaussian-nan-std", "gaussian-inf-mean",
        "gaussian-inf-std"])
def test_jump_law_rejects_non_finite_parameters(make, message):
    # such a law used to pass, and its first sampled path then failed
    with pytest.raises(ValueError, match=message):
        make()


_GRID = np.array([0.0, 0.5, 1.0])


@pytest.mark.parametrize("make, message", [
    (lambda: _params(horizon=np.inf), "horizon must be finite"),
    (lambda: _params(jump_intensity=-1.0), "jump_intensity must be >= 0"),
    (lambda: _params(brownian_scale=np.nan),
     "brownian_scale and drift must be finite"),
    (lambda: _params(jump_intensity=1.0, jump_law=JumpLaw.constant([1, 2])),
     "jump law dimension does not match path dimension"),
    (lambda: JumpPath(np.array([0.0]), np.zeros(1)),
     "grid needs at least two points"),
    (lambda: JumpPath(np.array([0.5, 1.0]), np.zeros(2)),
     "grid must start at 0"),
    (lambda: JumpPath(_GRID, np.zeros(2)),
     "continuous_values must have one row per grid point"),
    (lambda: JumpPath(_GRID, np.zeros(3), np.array([0.5]), [[1.0], [2.0]]),
     "jump ledger shapes are inconsistent"),
    (lambda: JumpPath(_GRID, np.zeros(3), np.array([0.5]), [[1.0, 2.0]]),
     "jump ledger shapes are inconsistent"),
    (lambda: JumpPath(_GRID, np.zeros(3), np.array([1.0, 0.5]), [[1.0], [2.0]]),
     "jump times must be strictly increasing"),
    (lambda: JumpPath(_GRID, np.zeros(3), np.array([0.0]), [[1.0]]),
     r"jump times must lie in \(0, horizon\]"),
    (lambda: JumpPath(_GRID, np.zeros(3), np.array([1.5]), [[1.0]]),
     r"jump times must lie in \(0, horizon\]"),
    (lambda: prefix(deterministic_path(_GRID, np.zeros(3)), 0.25),
     "t_end must be a grid point"),
    (lambda: prefix(deterministic_path(_GRID, np.zeros(3)), 0.0),
     "prefix needs t_end > 0"),
    (lambda: JumpLaw.uniform([0.5], [0.25]),
     "uniform jump law needs low <= high of equal shape"),
    (lambda: JumpLaw.uniform([0.0], [1.0, 2.0]),
     "uniform jump law needs low <= high of equal shape"),
    (lambda: JumpLaw(kind="constant").dimension, "jump law has no parameters"),
    (lambda: JumpLaw(kind="poisson", value=np.ones(1)).sample(
        np.random.default_rng(0), 1), "unknown jump law kind 'poisson'"),
], ids=["params-horizon-inf", "params-negative-intensity", "params-scale-nan",
        "params-law-dimension", "path-one-point", "path-start", "path-rows",
        "path-ledger-count", "path-ledger-width", "path-jump-order",
        "path-jump-at-0", "path-jump-past-horizon", "prefix-off-grid",
        "prefix-at-0", "law-low-above-high", "law-shapes",
        "bare-law-no-parameters", "bare-law-unknown-kind"])
def test_argument_checks_name_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()
