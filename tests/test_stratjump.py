"""Orbit integrals, pushforwards and the two-flow composition identity."""

import itertools

import numpy as np
import pytest

from jumpflow import odeflow, reference, stratjump
from jumpflow.config import build_problem
from jumpflow.errors import IntegrationFailure
from jumpflow.marcus import MarcusConfig, _run, _sweep, solve_point
from jumpflow.odeflow import VectorFieldSet, curve_average, flow
from jumpflow.semimartingale import (JumpLaw, PathParams, deterministic_path,
                                     refine, sample_levy_jump_diffusion)
from jumpflow.stratjump import (_composite_orbits, marcus_integral,
                                pushforward_integral, verify_ivk)


def _ramp(step=1e-2, slope=0.8, jumps=()):
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    return deterministic_path(grid, slope * grid, jumps)


def _scalar_growth():
    return VectorFieldSet.linear(np.array([[[1.0]]]))


def test_constant_integrand_telescopes_exactly():
    fields = _scalar_growth()
    path = _ramp(0.05, jumps=[(0.5, 0.7), (0.75, -0.4)])

    def H(x):
        return np.full(np.shape(x)[:-1] + (1, 1), 2.0)

    rep = marcus_integral(H, fields, path, np.array([1.0]), MarcusConfig())
    total = float(path.values[-1, 0] - path.values[0, 0])
    assert abs(float(rep.value[0]) - 2.0 * total) < 1e-14
    assert abs(float(rep.jump_term[0])) < 1e-14
    assert abs(float(rep.qv_term[0])) < 1e-14


def test_integrand_is_called_on_all_left_points_at_once():
    # one H call on the 500 left points of a jump-free ramp, none per step
    fields = _scalar_growth()
    path = _ramp(2e-3)
    H0, dH = fields.field_matrix, fields.field_jacobian
    calls = []

    def H(x):
        calls.append(np.shape(x))
        return H0(x)

    marcus_integral(H, fields, path, np.array([1.0]), MarcusConfig(), dH=dH)
    assert path.grid.shape == (501,)
    assert 1 <= len(calls) <= 2 and (500, 1) in calls


def test_integrand_of_the_wrong_shape_raises():
    fields = _scalar_growth()
    with pytest.raises(ValueError, match=r"H: shape \(10, 1\), not \(10, d, 1\)"):
        marcus_integral(lambda x: 2.0 * x, fields, _ramp(0.1),
                        np.array([1.0]), MarcusConfig())


def test_field_matrix_and_jacobian_broadcast_over_points():
    _, inner = _scenario_sets("ivk-generic")
    H, dH = inner.field_matrix, inner.field_jacobian
    pts = np.array([[0.4, -0.3], [1.2, 0.5], [-0.7, 2.0]])
    assert H(pts).shape == (3, 2, 2) and dH(pts).shape == (3, 2, 2, 2)
    for p, h, dh in zip(pts, H(pts), dH(pts)):
        assert np.array_equal(H(p), h) and np.array_equal(dH(p), dh)
    fd = odeflow._fd_jacobian(H, pts)
    assert fd.shape == (3, 2, 2, 2) and np.allclose(fd, dH(pts), atol=1e-8)


def test_exponential_readout_matches_closed_form():
    # dg = g o dZ from g0 = 1 gives g = e^{z}; the orbit integral of H = g
    # against Z is then e^{z_T} - 1 for a smooth ramp
    fields = _scalar_growth()
    path = _ramp(1e-3, slope=0.8)
    H, dH = fields.field_matrix, fields.field_jacobian
    rep = marcus_integral(H, fields, path, np.array([1.0]), MarcusConfig(),
                          dH=dH)
    assert abs(float(rep.value[0]) - (np.exp(0.8) - 1.0)) < 1e-6
    assert float(rep.jump_term[0]) == 0.0


def test_pure_jump_integral_matches_closed_form():
    # a single jump of size d contributes the full e^{d} - 1 displacement:
    # the atom g_{t-} d plus the orbit average correction
    fields = _scalar_growth()
    grid = np.linspace(0.0, 1.0, 5)
    path = deterministic_path(grid, np.zeros(5), [(0.5, 1.3)])
    H, dH = fields.field_matrix, fields.field_jacobian
    rep = marcus_integral(H, fields, path, np.array([1.0]), MarcusConfig(),
                          dH=dH)
    assert abs(float(rep.value[0]) - (np.exp(1.3) - 1.0)) < 1e-8
    assert abs(float(rep.ito_term[0]) - 1.3) < 1e-14


def test_finite_difference_directional_matches_analytic():
    fields = VectorFieldSet.linear(np.array([[[0.2, -0.5], [0.5, 0.2]]]))
    path = _ramp(2e-3, slope=1.1, jumps=[(0.5, 0.6)])
    H, dH = fields.field_matrix, fields.field_jacobian
    x0 = np.array([1.0, -0.5])
    with_dh = marcus_integral(H, fields, path, x0, MarcusConfig(), dH=dH)
    without = marcus_integral(H, fields, path, x0, MarcusConfig())
    assert np.max(np.abs(with_dh.partial - without.partial)) < 1e-8


def test_zero_outer_collapses_to_orbit_integral():
    outer = VectorFieldSet.linear(np.zeros((2, 2, 2)))

    def Y(x):
        return np.stack([np.stack([np.sin(x[..., 1]), x[..., 0]], axis=-1),
                         np.stack([0.3 * x[..., 1], -0.2 * x[..., 0]], axis=-1)],
                        axis=-1)

    inner = VectorFieldSet.from_callable(2, 2, Y)
    params = PathParams(horizon=1.0, step=5e-3, brownian_scale=(0.4, 0.3),
                        drift=(0.1, 0.0), jump_intensity=2.0,
                        jump_law=JumpLaw.uniform([-0.4, -0.4], [0.4, 0.4]),
                        seed=17, dimension=2)
    path = sample_levy_jump_diffusion(params)
    x0 = np.array([0.6, -0.2])
    cfg = MarcusConfig(substeps=128)
    push = pushforward_integral(outer, inner, path, x0, cfg)
    H, dH = inner.field_matrix, inner.field_jacobian
    direct = marcus_integral(H, inner, path, x0, cfg, dH=dH)
    assert np.max(np.abs(push.partial - direct.partial)) < 1e-8


def test_continuous_driver_has_zero_jump_term():
    outer = VectorFieldSet.linear(np.array([[[0.0, -1.0], [1.0, 0.0]]]))
    inner = VectorFieldSet.linear(np.array([[[0.2, 0.0], [0.0, -0.1]]]))
    path = _ramp(1e-2, slope=0.9)
    rep = pushforward_integral(outer, inner, path, np.array([1.0, 0.3]),
                               MarcusConfig())
    assert np.array_equal(rep.jump_term, np.zeros(2))


def _commuting_sets():
    outer = VectorFieldSet.linear(np.array([[[0.7, 0.0], [0.0, 0.7]]]))
    inner = VectorFieldSet.linear(np.array([[[0.4, 0.0], [0.0, 0.4]]]))
    return outer, inner


def _generic_sets():
    # derivatives [..., a, i, b] = d(X_i)_a / dp_b
    def X(p):
        return np.stack([np.stack([np.sin(p[..., 1]), p[..., 0]], axis=-1),
                         np.stack([0.3 * p[..., 1], -0.2 * p[..., 0]], axis=-1)],
                        axis=-1)

    def dX(p):
        z = np.zeros(p.shape[:-1])
        o = np.ones_like(z)
        return np.moveaxis(np.array([[[z, np.cos(p[..., 1])], [z, 0.3 * o]],
                                     [[o, z], [-0.2 * o, z]]]),
                           (0, 1, 2), (-3, -2, -1))

    def Y(p):
        return np.stack([np.stack([p[..., 1], -0.5 * p[..., 0]], axis=-1),
                         np.stack([0.2 * p[..., 0], 0.3 * p[..., 1]], axis=-1)],
                        axis=-1)

    def dY(p):
        z = np.zeros(p.shape[:-1])
        o = np.ones_like(z)
        return np.moveaxis(np.array([[[z, o], [0.2 * o, z]],
                                     [[-0.5 * o, z], [z, 0.3 * o]]]),
                           (0, 1, 2), (-3, -2, -1))

    return (VectorFieldSet.from_callable(2, 2, X, dX),
            VectorFieldSet.from_callable(2, 2, Y, dY))


def _linear_sets():
    outer = VectorFieldSet.linear(np.array([[[0.3, -0.8], [0.8, 0.3]],
                                            [[0.1, 0.0], [0.0, -0.2]]]))
    inner = VectorFieldSet.linear(np.array([[[0.0, 0.5], [-0.2, 0.1]],
                                            [[0.2, 0.3], [0.0, 0.4]]]))
    return outer, inner


_PAIRS = pytest.mark.parametrize(
    "pair", [_generic_sets, _linear_sets], ids=["vectorized", "linear-expm"])


def _two_jump_path():
    # two jumps, the second at the last grid index
    grid = np.round(np.arange(0.0, 1.0 + 2.5e-2, 5e-2), 12)
    cont = np.stack([0.8 * grid, 0.4 * np.sin(np.pi * grid)], axis=1)
    jumps = [(grid[7], np.array([0.5, -0.3])),
             (grid[-1], np.array([-0.2, 0.4]))]
    return deterministic_path(grid, cont, jumps)


def _reference_orbit(outer, inner, driver, x0, cfg):
    """The 2K + J-row sweep (K post rows, K pre rows, and one row per jump
    from the post-jump inner state stopped before the jump) with both jump
    hops of the outer flow taken by single-point flows."""
    xi = solve_point(inner, driver, x0, cfg)
    K = driver.grid.shape[0]
    jump_idx = np.nonzero(driver.jump_mask)[0]
    bases = np.concatenate([xi.post, xi.pre, xi.post[jump_idx]], axis=0)
    fidx = np.concatenate([np.arange(K), np.arange(K), jump_idx])
    fside = np.concatenate([np.ones(K, dtype=int), np.zeros(K, dtype=int),
                            np.zeros(jump_idx.shape[0], dtype=int)])
    states, jacs = _run(_sweep(outer, driver, bases, cfg, True, fidx, fside))
    sizes = driver.jump_size_at_grid()
    hops = {int(k): (flow(outer, sizes[k], states[2 * K + r], 1.0, cfg),
                     flow(outer, sizes[k], states[K + k], 1.0, cfg))
            for r, k in enumerate(jump_idx)}
    return states[:K], states[K:2 * K], jacs[:K], jacs[K:2 * K], hops


@_PAIRS
def test_composite_orbit_matches_full_sweep(pair):
    outer, inner = pair()
    driver = _two_jump_path()
    x0 = np.array([0.4, -0.3])
    cfg = MarcusConfig()
    orbit, = _composite_orbits(outer, inner, [driver], x0, cfg)
    F_post, F_pre, D_post, D_pre, hops = _reference_orbit(outer, inner,
                                                          driver, x0, cfg)
    assert np.array_equal(orbit.F_post, F_post)
    assert np.array_equal(orbit.F_pre, F_pre)
    assert np.array_equal(orbit.Dpsi_post, D_post)
    assert np.array_equal(orbit.Dpsi_pre, D_pre)
    assert sorted(hops) == [7, driver.grid.shape[0] - 1]
    for k, (hop_from_post, hop_from_pre) in hops.items():
        assert np.array_equal(orbit.F_post[k], hop_from_post)
        assert np.array_equal(orbit.hop[k], hop_from_pre)


# closed-form composite orbits: outer (B x, B^2 x) or the shear
# ((1 + x_2^2, 0), (C, 0)), inner (D x, D^2 x), with [B, D] != 0
_B = np.array([[0.1, -0.6], [0.6, 0.1]])
_D = np.array([[0.2, 0.3], [0.0, -0.4]])
_C = 0.5


def _shear():
    def H(x):
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = 1.0 + x[..., 1] ** 2
        out[..., 0, 1] = _C
        return out

    def dH(x):
        out = np.zeros(x.shape + (2, 2))
        out[..., 0, 0, 1] = 2.0 * x[..., 1]
        return out

    return VectorFieldSet.from_callable(2, 2, H, dH)


def _brownian_one_jump(seed, scale, steps=200):
    """A 2-channel Brownian path on [0, 1] with one jump at t = 0.5."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, steps + 1)
    cont = np.zeros((steps + 1, 2))
    cont[1:] = np.cumsum(scale * np.sqrt(1.0 / steps)
                         * rng.standard_normal((steps, 2)), axis=0)
    return deterministic_path(grid, cont, [(grid[steps // 2], [0.3, -0.2])])


@pytest.mark.parametrize("family, scale, bound", [
    # sup errors measured at 200 steps: 4.8e-5 (F) and 7.4e-5 (Dpsi) for the
    # linear pair, 2.9e-4 and 4.8e-4 for the shear
    ("linear", 0.5, 2e-4), ("shear", 1.0, 1e-3)])
def test_composite_orbit_matches_closed_form(family, scale, bound):
    # F = psi(q) and Dpsi(q) at every grid time, both sides of the jump,
    # against the orbits of fields that commute within each set
    x0 = np.array([0.4, 0.2])
    driver = _brownian_one_jump(0, scale)
    inner = VectorFieldSet.linear(np.stack([_D, _D @ _D]))
    if family == "linear":
        outer = VectorFieldSet.linear(np.stack([_B, _B @ _B]))
        exact = lambda z: reference.composite_orbit_linear(_B, _D, z, x0)
    else:
        outer = _shear()
        exact = lambda z: reference.composite_orbit_shear(_C, _D, z, x0)
    orbit, = _composite_orbits(outer, inner, [driver], x0, MarcusConfig())
    k = driver.jump_index[0]
    F_post, D_post = exact(driver.values - driver.values[0])
    left = driver.values - driver.jump_size_at_grid()
    F_pre, D_pre = exact(left - driver.values[0])
    assert np.max(np.abs(F_post[k] - F_pre[k])) > 10 * bound  # a real jump
    for got, want in ((orbit.F_post, F_post), (orbit.F_pre, F_pre),
                      (orbit.Dpsi_post, D_post), (orbit.Dpsi_pre, D_pre)):
        assert np.max(np.abs(got - want)) <= bound


def test_reports_sum_their_terms_exactly():
    # value == ito_term + qv_term + jump_term is an accumulator identity, not
    # a tolerance, with a jump at the last grid index included
    outer, inner = _scenario_sets("ivk-generic")
    driver = _two_jump_path()
    x0, cfg = np.array([0.4, -0.3]), MarcusConfig()
    H, dH = inner.field_matrix, inner.field_jacobian
    for rep in (marcus_integral(H, inner, driver, x0, cfg, dH=dH),
                pushforward_integral(outer, inner, driver, x0, cfg)):
        assert np.array_equal(rep.value,
                              rep.ito_term + rep.qv_term + rep.jump_term)
        assert np.array_equal(rep.value, rep.partial[-1])


def test_one_pass_integral_matches_the_per_step_loop():
    # the step-by-step sums that the one-pass form replaced; the order of
    # the additions differs, so equal to rounding over 20 steps
    _, inner = _scenario_sets("ivk-generic")
    driver = _two_jump_path()
    x0, cfg = np.array([0.4, -0.3]), MarcusConfig()
    H, dH = inner.field_matrix, inner.field_jacobian
    traj = solve_point(inner, driver, x0, cfg)
    inc = np.zeros((driver.grid.shape[0] - 1, 2))
    for k, dzc in enumerate(driver.increments):
        inc[k] = H(traj.post[k]) @ dzc
        mid = 0.5 * (traj.post[k] + traj.pre[k + 1])
        for j in range(2):
            dh_j = dH(mid) @ inner.field_matrix(mid)[:, j]
            inc[k] += 0.5 * (dh_j @ dzc) * dzc[j]
        if driver.jump_mask[k + 1]:
            dz = driver.jump_size_at_grid()[k + 1]
            inc[k] += curve_average(H, inner, dz, traj.pre[k + 1], cfg) @ dz
    rep = marcus_integral(H, inner, driver, x0, cfg, dH=dH)
    assert np.max(np.abs(rep.partial[1:] - np.cumsum(inc, axis=0))) < 1e-14


@_PAIRS
def test_ladder_flows_only_for_concat_residual(pair, monkeypatch):
    # the integral reports read their jump hops from the sweep; only the
    # independent concatenation check takes single-point flows, two a jump
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(stratjump, "flow", counted)
    outer, inner = pair()
    rep = verify_ivk(outer, inner, _two_jump_path(), np.array([0.4, -0.3]),
                     MarcusConfig(), ladder=2)
    assert rep.jump_concat_residual is not None
    assert len(calls) == 2 * 2


def test_ivk_ladder_commuting_linear():
    outer, inner = _commuting_sets()
    path = _ramp(2e-2, slope=0.8, jumps=[(0.5, 0.3)])
    rep = verify_ivk(outer, inner, path, np.array([1.0, 0.5]),
                     MarcusConfig(), ladder=3)
    assert all(r <= 0.6 for r in rep.ratios)
    # linear outer flow: second derivative of the map vanishes, so the
    # residual is pure predictor error and each halving divides it by 4
    assert all(abs(r - 0.25) < 0.05 for r in rep.ratios)
    assert rep.jump_concat_residual is not None
    assert rep.jump_concat_residual <= 1e-8


def test_ivk_ladder_generic_nonlinear():
    outer, inner = _generic_sets()
    grid = np.round(np.arange(0.0, 1.0 + 2.5e-3, 5e-3), 12)
    cont = np.stack([0.8 * grid, 0.4 * np.sin(np.pi * grid)], axis=1)
    path = deterministic_path(grid, cont)
    rep = verify_ivk(outer, inner, path, np.array([0.4, -0.3]),
                     MarcusConfig(), ladder=3)
    assert all(r <= 0.6 for r in rep.ratios)
    assert rep.jump_concat_residual is None


def test_ivk_single_jump_concatenation():
    outer, inner = _generic_sets()
    grid = np.linspace(0.0, 1.0, 101)
    jumps = [(grid[50], np.array([0.5, -0.3]))]
    path = deterministic_path(grid, np.zeros((101, 2)), jumps)
    rep = verify_ivk(outer, inner, path, np.array([0.4, -0.3]),
                     MarcusConfig(), ladder=2)
    assert rep.jump_concat_residual is not None
    assert rep.jump_concat_residual <= 1e-8


def test_ivk_zero_inner_telescopes():
    outer = VectorFieldSet.linear(np.array([[[0.3, -0.8], [0.8, 0.3]]]))
    inner = VectorFieldSet.linear(np.zeros((1, 2, 2)))
    path = _ramp(1e-2, slope=1.0, jumps=[(0.5, 0.4)])
    rep = verify_ivk(outer, inner, path, np.array([1.0, 0.0]),
                     MarcusConfig(), ladder=2)
    assert rep.rungs[-1].residual_sup < 1e-12


def test_ladder_rejects_bad_depth():
    outer, inner = _commuting_sets()
    path = _ramp(0.1)
    with pytest.raises(ValueError):
        verify_ivk(outer, inner, path, np.array([1.0, 0.0]), MarcusConfig(),
                   ladder=0)


def _levy_two_jumps(dimension):
    """The first seeded Levy path (step 0.05) that draws exactly two jumps."""
    for seed in itertools.count(1):
        path = sample_levy_jump_diffusion(PathParams(
            horizon=1.0, step=0.05, brownian_scale=0.4, drift=0.1,
            jump_intensity=2.0, seed=seed, dimension=dimension,
            jump_law=JumpLaw.uniform([-0.5] * dimension, [0.5] * dimension)))
        if path.jump_times.shape[0] == 2:
            return path


def _scenario_sets(scenario):
    problem = build_problem({"scenario": scenario})
    return problem["fields"], problem["inner_fields"]


@pytest.mark.parametrize("sets", [
    lambda: _scenario_sets("ivk-commuting"),
    lambda: _scenario_sets("ivk-generic"), _linear_sets],
    ids=["ivk-commuting", "ivk-generic", "linear-expm"])
def test_ladder_rungs_equal_their_own_runs(sets):
    # rung r of a ladder is bitwise the one-rung ladder on the 2^r-fold
    # refined driver, whichever rungs cross the jumps alongside it
    outer, inner = sets()
    path = _levy_two_jumps(outer.count)
    x0 = build_problem({"scenario": "ivk-generic"})["x0"][:outer.dimension]
    cfg = MarcusConfig()
    rep = verify_ivk(outer, inner, path, x0, cfg, ladder=3)
    for r, rung in enumerate(rep.rungs):
        alone = verify_ivk(outer, inner, refine(path, 2 ** r), x0, cfg,
                           ladder=1)
        assert rung.h == alone.rungs[0].h
        assert rung.residual_sup == alone.rungs[0].residual_sup
        for part in ("ito", "qv", "jump"):
            assert np.array_equal(getattr(rung, part),
                                  getattr(alone.rungs[0], part))
    assert rep.jump_concat_residual == alone.jump_concat_residual


def test_ladder_takes_one_flow_per_jump_in_each_phase(monkeypatch):
    # L rungs cross J jumps: J inner and J outer (Jacobian) jump flows, not
    # L * J of each
    calls = []
    real = odeflow._flow

    def counted(fields, weights, x0, u, cfg, jacobian):
        calls.append(jacobian)
        return real(fields, weights, x0, u, cfg, jacobian)

    monkeypatch.setattr(odeflow, "_flow", counted)
    monkeypatch.setattr(stratjump, "_concat_residual", lambda *args: None)
    outer, inner = _generic_sets()
    verify_ivk(outer, inner, _two_jump_path(), np.array([0.4, -0.3]),
               MarcusConfig(), ladder=3)
    assert calls.count(True) == 2
    assert calls.count(False) == 2


def _trap(rate, cap):
    """The 1-D field rate * x below ``cap``, infinite from it on."""
    def field(x):
        return np.where(x < cap, rate * x, np.inf)[..., None]

    def jac(x):
        return np.full(np.shape(x)[:-1] + (1, 1, 1), rate)

    return VectorFieldSet.from_callable(1, 1, field, jac)


@pytest.mark.parametrize("inner_cap, outer_cap, why, t", [
    # rung 0 in its outer jump flow; rungs 1 and 2 in their inner sweeps
    (3.655, 5.0, "flow integration blew up at flow time 0.421875", 0.5),
    # rung 0 passes; rungs 1 and 2 in their inner sweeps
    (3.655, 100.0, "state blew up at t=1", 1.0),
    # every rung in its outer jump flow, rung 0 later in flow time
    (100.0, 5.43, "flow integration blew up at flow time 0.96875", 0.5),
    # rungs 1 and 2 in their outer jump flows, rung 0 after the jump
    (100.0, 5.47, "state blew up at t=0.6", 0.6),
    # outer sweeps: rung 2 at t=0.525, rung 1 at 0.55, rung 0 at 0.6
    (100.0, 5.48, "state blew up at t=0.6", 0.6),
])
def test_failing_ladder_reports_lowest_rung(inner_cap, outer_cap, why, t):
    grid = np.round(np.arange(0.0, 1.05, 0.1), 12)
    path = deterministic_path(grid, grid[:, None], [(grid[5], np.array([0.3]))])
    outer, inner = _trap(0.5, outer_cap), _trap(1.0, inner_cap)
    x0, cfg = np.array([1.0]), MarcusConfig()
    with pytest.raises(IntegrationFailure) as ladder:
        verify_ivk(outer, inner, path, x0, cfg, ladder=3)
    assert (str(ladder.value), ladder.value.time) == (why, t)
    # the first failure of the rungs run one at a time, lowest first
    with pytest.raises(IntegrationFailure) as alone:
        for r in range(3):
            verify_ivk(outer, inner, refine(path, 2 ** r), x0, cfg, ladder=1)
    assert (str(alone.value), alone.value.time) == (why, t)


def test_marcus_integral_at_one_substep():
    # one RK4 substep per unit flow time: the jump average takes Simpson's
    # rule over 2 intervals (the count rounded up to even), and the report
    # still sums its terms exactly
    fields, _ = _scenario_sets("ivk-generic")
    grid = np.round(np.arange(0.0, 1.0 + 2.5e-2, 5e-2), 12)
    driver = deterministic_path(
        grid, np.stack([0.8 * grid, -0.3 * grid], axis=1),
        [(0.5, np.array([0.5, -0.3]))])
    rep = marcus_integral(fields.field_matrix, fields, driver,
                          np.array([0.4, -0.3]), MarcusConfig(substeps=1),
                          dH=fields.field_jacobian)
    assert np.isfinite(rep.value).all()
    assert np.array_equal(rep.value,
                          rep.ito_term + rep.qv_term + rep.jump_term)
