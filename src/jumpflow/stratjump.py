"""Generalized Stratonovich integrals against jump drivers.

Three accumulators live here, all sharing the same driver conventions:

* ``marcus_integral``: the integral of a state-dependent matrix map H along
  an inner flow orbit, as Ito left sums + a midpoint quadratic-variation
  trace correction + jump corrections that average H along the fictitious
  unit-time jump orbit.
* ``pushforward_integral``: the integral of inner fields pushed forward by
  an outer flow (evaluated along the composite orbit), with the
  finite-variation cross term and the three-part jump sum.
* ``verify_ivk`` / ``verify_leibniz``: residual checks of the chain-rule
  identity for the composition of two flows driven by the same path, over a
  dyadic refinement ladder.

Every report satisfies value == ito_term + qv_term + jump_term as an exact
accumulator identity (identical float additions, not a tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marcus import MarcusConfig, Trajectory, solve_map_batch, solve_point
from .odeflow import VectorFieldSet, curve_average, flow
from .semimartingale import JumpPath, prefix, quadratic_variation_c, refine


@dataclass(frozen=True)
class IntegralReport:
    """Value, per-time partial sums, and the three-way term breakdown."""

    times: np.ndarray
    partial: np.ndarray
    value: np.ndarray
    ito_term: np.ndarray
    qv_term: np.ndarray
    jump_term: np.ndarray
    diagnostics: dict


def field_matrix_map(fields: VectorFieldSet):
    """(H, dH) pair reading out a field set's matrix [X_1(x) .. X_m(x)].

    dH returns the (n, m, n) derivative tensor stacked from the field
    Jacobians, which keeps quadratic-variation corrections analytic.
    """

    def H(x):
        return fields.field_matrix(x)

    def dH(x):
        return np.stack([fields.jacobian_batch(i, x) for i in range(fields.count)],
                        axis=1)

    return H, dH


def _as_matrix_output(val, m):
    out = np.asarray(val, dtype=float)
    if out.ndim == 1:
        if m != 1:
            raise ValueError("H must return an (d, m) array for m > 1")
        out = out[:, None]
    if out.ndim != 2 or out.shape[1] != m:
        raise ValueError("H must return an (d, m) array")
    return out


def _directional(H, dH, g, v, m):
    """Directional derivative of H at g along v, (d, m)."""
    if dH is not None:
        return np.einsum("aij,j->ai", np.asarray(dH(g), dtype=float), v)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return np.zeros_like(_as_matrix_output(H(g), m))
    e = 1e-6 * (1.0 + np.linalg.norm(g)) / nv
    hp = _as_matrix_output(H(g + e * v), m)
    hm = _as_matrix_output(H(g - e * v), m)
    return (hp - hm) / (2.0 * e)


def _assemble(times, inc_ito, inc_qv, inc_jump, diagnostics):
    cum_ito = np.concatenate([np.zeros((1,) + inc_ito.shape[1:]),
                              np.cumsum(inc_ito, axis=0)])
    cum_qv = np.concatenate([np.zeros((1,) + inc_qv.shape[1:]),
                             np.cumsum(inc_qv, axis=0)])
    cum_jump = np.concatenate([np.zeros((1,) + inc_jump.shape[1:]),
                               np.cumsum(inc_jump, axis=0)])
    partial = cum_ito + cum_qv + cum_jump
    ito = cum_ito[-1]
    qv = cum_qv[-1]
    jump = cum_jump[-1]
    return IntegralReport(times=times, partial=partial, value=ito + qv + jump,
                          ito_term=ito, qv_term=qv, jump_term=jump,
                          diagnostics=diagnostics)


def marcus_integral(H, fields: VectorFieldSet, driver: JumpPath, g0,
                    cfg: MarcusConfig, dH=None) -> IntegralReport:
    """Integral of H along the solution of dg = sum_i X_i(g) o dZ_i.

    Ito part: left-point sums H(g_{s-}) dZ with exact atoms at jumps.
    QV part: 1/2 trace correction against the realized continuous QV,
    evaluated at interval-midpoint states (continuous segments only).
    Jump part: for each jump, the average of H along the fictitious
    unit-time jump orbit minus H at the left limit, applied to the jump size.
    """
    m = driver.dimension
    traj = solve_point(fields, driver, g0, cfg)
    K = traj.times.shape[0]
    d = _as_matrix_output(H(traj.post[0]), m).shape[0]
    dzc = np.diff(driver.continuous_values, axis=0)
    qv = quadratic_variation_c(driver)
    sizes = driver.jump_size_at_grid()
    mask = driver.jump_mask

    inc_ito = np.zeros((K - 1, d))
    inc_qv = np.zeros((K - 1, d))
    inc_jump = np.zeros((K - 1, d))
    for k in range(K - 1):
        h_left = _as_matrix_output(H(traj.post[k]), m)
        inc_ito[k] = h_left @ dzc[k]
        mid = 0.5 * (traj.post[k] + traj.pre[k + 1])
        acc = np.zeros(d)
        for j in range(m):
            dh = _directional(H, dH, mid, fields.eval(j, mid), m)
            acc += dh @ qv[k, :, j]
        inc_qv[k] += 0.5 * acc
        if mask[k + 1]:
            dz = sizes[k + 1]
            g_pre = traj.pre[k + 1]
            h_pre = _as_matrix_output(H(g_pre), m)
            inc_ito[k] += h_pre @ dz
            avg = _as_matrix_output(
                curve_average(H, fields, dz, g_pre, cfg.ode,
                              quad_nodes=cfg.ode.substeps), m)
            inc_jump[k] += (avg - h_pre) @ dz
    return _assemble(traj.times, inc_ito, inc_qv, inc_jump,
                     {"n_jumps": int(mask.sum()), "kind": "marcus_integral"})


@dataclass(frozen=True)
class _CompositeOrbit:
    """Everything the composition checks need, from one batched sweep."""

    driver: JumpPath
    inner_traj: Trajectory
    F_pre: np.ndarray
    F_post: np.ndarray
    Dpsi_pre: np.ndarray
    Dpsi_post: np.ndarray
    cross_pre: dict  # jump grid index -> psi_{s-}(q_s) with q_s post-jump inner state


def _composite_orbit(outer: VectorFieldSet, inner: VectorFieldSet,
                     driver: JumpPath, x0, cfg: MarcusConfig) -> _CompositeOrbit:
    xi = solve_point(inner, driver, x0, cfg)
    K = driver.grid.shape[0]
    jump_idx = np.nonzero(driver.jump_mask)[0]
    bases = np.concatenate([xi.post, xi.pre, xi.post[jump_idx]], axis=0)
    fidx = np.concatenate([np.arange(K), np.arange(K), jump_idx])
    fside = np.concatenate([np.ones(K, dtype=int), np.zeros(K, dtype=int),
                            np.zeros(jump_idx.shape[0], dtype=int)])
    states, jacs = solve_map_batch(outer, driver, bases, fidx, fside, cfg)
    cross = {int(k): states[2 * K + r] for r, k in enumerate(jump_idx)}
    return _CompositeOrbit(driver=driver, inner_traj=xi,
                           F_post=states[:K], F_pre=states[K:2 * K],
                           Dpsi_post=jacs[:K], Dpsi_pre=jacs[K:2 * K],
                           cross_pre=cross)


def _pushforward_report(outer: VectorFieldSet, inner: VectorFieldSet,
                        orbit: _CompositeOrbit, cfg: MarcusConfig) -> IntegralReport:
    driver = orbit.driver
    xi = orbit.inner_traj
    m = driver.dimension
    K = driver.grid.shape[0]
    n = inner.dimension
    dzc = np.diff(driver.continuous_values, axis=0)
    qv = quadratic_variation_c(driver)
    sizes = driver.jump_size_at_grid()
    mask = driver.jump_mask

    # left-point pushforward integrand at grid times (post side)
    Y_post = inner.field_matrix(xi.post)                      # (K, n, m)
    Kmat_post = np.einsum("kab,kbm->kam", orbit.Dpsi_post, Y_post)

    # midpoint quantities on continuous segments
    q_mid = 0.5 * (xi.post[:-1] + xi.pre[1:])
    F_mid = 0.5 * (orbit.F_post[:-1] + orbit.F_pre[1:])
    D_mid = 0.5 * (orbit.Dpsi_post[:-1] + orbit.Dpsi_pre[1:])
    Y_mid = inner.field_matrix(q_mid)                         # (K-1, n, m)
    K_mid = np.einsum("kab,kbm->kam", D_mid, Y_mid)

    inc_ito = np.einsum("kam,km->ka", Kmat_post[:-1], dzc)
    inc_qv = np.zeros((K - 1, n))
    for i in range(m):
        JX = outer.jacobian_batch(i, F_mid)                   # (K-1, n, n)
        JY = inner.jacobian_batch(i, q_mid)
        for j in range(m):
            term = (np.einsum("kab,kb->ka", JX, K_mid[:, :, j])
                    + np.einsum("kab,kb->ka", D_mid,
                                np.einsum("kab,kb->ka", JY, Y_mid[:, :, j])))
            inc_qv += 0.5 * qv[:, i, j, None] * term
    inc_jump = np.zeros((K - 1, n))
    for k in np.nonzero(mask)[0]:
        dz = sizes[k]
        y_pre = inner.field_matrix(xi.pre[k])
        atom = (orbit.Dpsi_pre[k] @ y_pre) @ dz
        inc_ito[k - 1] += atom
        hop_from_post = flow(outer, dz, orbit.cross_pre[int(k)], 1.0, cfg.ode)
        hop_from_pre = flow(outer, dz, orbit.F_pre[k], 1.0, cfg.ode)
        inc_jump[k - 1] += -atom + hop_from_post - hop_from_pre
    return _assemble(driver.grid.copy(), inc_ito, inc_qv, inc_jump,
                     {"n_jumps": int(mask.sum()), "kind": "pushforward_integral"})


def pushforward_integral(outer: VectorFieldSet, inner: VectorFieldSet,
                         driver: JumpPath, x0, cfg: MarcusConfig) -> IntegralReport:
    """Integral of the outer-flow pushforward of the inner fields.

    The integrand at time s is Dpsi_s(q_s) Y_i(q_s) where psi is the outer
    flow map, q the inner orbit; it is integrated with left-point Ito sums,
    the finite-variation correction
    0.5 * sum_ij [X_i'(F_mid) K_j + Dpsi_mid (Y_i'Y_j)(q_mid)] dQV_ij
    evaluated along the composite orbit F, and per-jump terms
    -Dpsi_{s-}Y(q_{s-}) dZ + psi-jump of the hopped point minus the
    psi-jump of the left limit (the first summand cancels the Ito atom).
    """
    orbit = _composite_orbit(outer, inner, driver, x0, cfg)
    return _pushforward_report(outer, inner, orbit, cfg)


def _line_integral_report(outer: VectorFieldSet, inner: VectorFieldSet,
                          orbit: _CompositeOrbit,
                          cfg: MarcusConfig) -> IntegralReport:
    """Heun-consistent line integral of the outer fields along F.

    Ito part: left-point sums; QV part: the Heun corrector correction
    0.5 (X(F_hat) - X(F)) dZ.  The predictor F_hat follows the composite
    motion (outer fields plus the pushforward of the inner ones), because
    the covariation of X(F) with the driver runs along the full orbit;
    jump part: exact unit-time jump displacement minus the linear atom.
    When the inner fields vanish the predictor reduces to the solver's own
    and the increments telescope to the outer Marcus solve itself.
    """
    driver = orbit.driver
    K = driver.grid.shape[0]
    n = orbit.F_post.shape[1]
    dzc = np.diff(driver.continuous_values, axis=0)
    sizes = driver.jump_size_at_grid()
    mask = driver.jump_mask

    F0 = orbit.F_post[:-1]
    FM0 = outer.field_matrix(F0)
    Y_post = inner.field_matrix(orbit.inner_traj.post[:-1])
    Kmat = np.einsum("kab,kbm->kam", orbit.Dpsi_post[:-1], Y_post)
    pred = F0 + np.einsum("kam,km->ka", FM0 + Kmat, dzc)
    FM1 = outer.field_matrix(pred)
    inc_ito = np.einsum("kam,km->ka", FM0, dzc)
    inc_qv = 0.5 * np.einsum("kam,km->ka", FM1 - FM0, dzc)
    inc_jump = np.zeros((K - 1, n))
    for k in np.nonzero(mask)[0]:
        dz = sizes[k]
        f_pre = orbit.F_pre[k]
        atom = outer.field_matrix(f_pre) @ dz
        inc_ito[k - 1] += atom
        inc_jump[k - 1] += flow(outer, dz, f_pre, 1.0, cfg.ode) - f_pre - atom
    return _assemble(driver.grid.copy(), inc_ito, inc_qv, inc_jump,
                     {"n_jumps": int(mask.sum()), "kind": "orbit_line_integral"})


@dataclass(frozen=True)
class LadderRung:
    """One refinement level of a residual study."""

    h: float
    residual_sup: float
    ito: np.ndarray
    qv: np.ndarray
    jump: np.ndarray
    times: np.ndarray
    residual_series: np.ndarray
    max_interval_residual: float


@dataclass(frozen=True)
class CompositionReport:
    """Ladder of residuals for the flow-composition identity."""

    rungs: list
    ratios: list
    jump_concat_residual: float | None

    def jsonl_rows(self):
        rows = []
        for r in self.rungs:
            rows.append({
                "h": float(r.h),
                "residual_sup": float(r.residual_sup),
                "ito": [float(v) for v in r.ito],
                "qv": [float(v) for v in r.qv],
                "jump": [float(v) for v in r.jump],
            })
        return rows


def _one_rung(outer, inner, driver, x0, cfg):
    orbit = _composite_orbit(outer, inner, driver, x0, cfg)
    i1 = _line_integral_report(outer, inner, orbit, cfg)
    i2 = _pushforward_report(outer, inner, orbit, cfg)
    rhs = np.asarray(x0, dtype=float)[None, :] + i1.partial + i2.partial
    resid = np.max(np.abs(orbit.F_post - rhs), axis=1)
    dresid = np.abs(np.diff(orbit.F_post - rhs, axis=0)).max(axis=1)
    rung = LadderRung(
        h=float(np.max(np.diff(driver.grid))),
        residual_sup=float(resid.max()),
        ito=i1.ito_term + i2.ito_term,
        qv=i1.qv_term + i2.qv_term,
        jump=i1.jump_term + i2.jump_term,
        times=driver.grid.copy(),
        residual_series=resid,
        max_interval_residual=float(dresid.max()) if dresid.size else 0.0,
    )
    return rung, orbit


def _concat_residual(outer, inner, orbit: _CompositeOrbit, cfg) -> float | None:
    """Post-jump state vs the concatenation of the three jump flows.

    Recomputed from scratch (fresh prefix solves), so it cross-checks the
    batched machinery against an independent code path.
    """
    driver = orbit.driver
    jump_idx = np.nonzero(driver.jump_mask)[0]
    if jump_idx.shape[0] == 0:
        return None
    worst = 0.0
    sizes = driver.jump_size_at_grid()
    for k in jump_idx:
        t = float(driver.grid[k])
        dz = sizes[k]
        hopped = flow(inner, dz, orbit.inner_traj.pre[k], 1.0, cfg.ode)
        left_path = prefix(driver, t, include_jump_at_end=False)
        psi_left = solve_point(outer, left_path, hopped, cfg).post[-1]
        expected = flow(outer, dz, psi_left, 1.0, cfg.ode)
        worst = max(worst, float(np.max(np.abs(orbit.F_post[k] - expected))))
    return worst


def _ratios(rungs):
    """Successive residual quotients down the ladder (0 after an exact rung)."""
    return [float(b.residual_sup / a.residual_sup) if a.residual_sup > 0
            else 0.0 for a, b in zip(rungs[:-1], rungs[1:])]


def verify_ivk(outer: VectorFieldSet, inner: VectorFieldSet, driver: JumpPath,
               x0, cfg: MarcusConfig, ladder: int = 3) -> CompositionReport:
    """Residuals of the two-flow composition identity on a refinement ladder.

    The left side evolves the outer flow map applied to the inner orbit; the
    right side is x0 plus the orbit line integral of the outer fields plus
    the pushforward integral of the inner fields.  Rung r integrates the
    same piecewise-linear driver refined 2^r-fold; ``ratios`` holds
    successive residual quotients and ``jump_concat_residual`` the worst
    deviation of the post-jump state from the concatenated jump flows on the
    finest rung.
    """
    if ladder < 1:
        raise ValueError("ladder must be >= 1")
    rungs = []
    last_orbit = None
    for r in range(ladder):
        rung, orbit = _one_rung(outer, inner, refine(driver, 2 ** r), x0, cfg)
        rungs.append(rung)
        last_orbit = orbit
    concat = _concat_residual(outer, inner, last_orbit, cfg)
    return CompositionReport(rungs=rungs, ratios=_ratios(rungs),
                             jump_concat_residual=concat)


def verify_leibniz(outer: VectorFieldSet, inner: VectorFieldSet,
                   driver: JumpPath, x0, cfg: MarcusConfig,
                   ladder: int = 3) -> CompositionReport:
    """Per-interval increment residuals of the composition chain rule.

    Same machinery as ``verify_ivk`` but the reported supremum is the worst
    single-interval mismatch between the left-side increment and the sum of
    the two integral increments, which is the differential (both-sides-
    increment) form of the identity.  Interval residuals scale like the cube
    of the local step on continuous stretches, so rung tolerances should be
    scaled by h when asserting.
    """
    base = verify_ivk(outer, inner, driver, x0, cfg, ladder=ladder)
    rungs = [LadderRung(h=r.h, residual_sup=r.max_interval_residual,
                        ito=r.ito, qv=r.qv, jump=r.jump, times=r.times,
                        residual_series=r.residual_series,
                        max_interval_residual=r.max_interval_residual)
             for r in base.rungs]
    return CompositionReport(rungs=rungs, ratios=_ratios(rungs),
                             jump_concat_residual=base.jump_concat_residual)
