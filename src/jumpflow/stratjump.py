"""Generalized Stratonovich integrals against jump drivers.

Three accumulators live here, all sharing the same driver conventions:

* ``marcus_integral``: the integral of a state-dependent matrix map H along
  an inner flow orbit, as Ito left sums + a midpoint quadratic-variation
  trace correction + jump corrections that average H along the fictitious
  unit-time jump orbit.
* ``pushforward_integral``: the integral of inner fields pushed forward by
  an outer flow along the composite orbit (one sweep of K + 2J rows for K
  grid times and J jumps, jump hops included), with the finite-variation
  cross term and the three-part jump sum.
* ``verify_ivk``: the residual check of the chain-rule identity for the
  composition of two flows driven by the same path, over a dyadic
  refinement ladder.  The rungs advance in lockstep: each steps its own
  grid between jumps, and the rows of every rung cross a jump in one flow.
  On each rung one pass over the composite orbit (``_orbit_reports``)
  yields both sides' integrals: I1, the line integral of the outer fields
  along the composite orbit, and I2, the pushforward integral.

Every report satisfies value == ito_term + qv_term + jump_term as an exact
accumulator identity (identical float additions, not a tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marcus import MarcusConfig, Trajectory, _serve, _sweep, solve_point
from .odeflow import VectorFieldSet, _fd_jacobian, curve_average, flow
from .semimartingale import JumpPath, prefix, quadratic_variation_c, refine


@dataclass(frozen=True, eq=False)
class IntegralReport:
    """Value, per-grid-time partial sums, and the three-way term breakdown."""

    partial: np.ndarray
    value: np.ndarray
    ito_term: np.ndarray
    qv_term: np.ndarray
    jump_term: np.ndarray


def _assemble(inc_ito, inc_qv, inc_jump):
    cum_ito, cum_qv, cum_jump = (
        np.concatenate([np.zeros((1,) + inc.shape[1:]), np.cumsum(inc, axis=0)])
        for inc in (inc_ito, inc_qv, inc_jump))
    return IntegralReport(partial=cum_ito + cum_qv + cum_jump,
                          value=cum_ito[-1] + cum_qv[-1] + cum_jump[-1],
                          ito_term=cum_ito[-1], qv_term=cum_qv[-1],
                          jump_term=cum_jump[-1])


def marcus_integral(H, fields: VectorFieldSet, driver: JumpPath, g0,
                    cfg: MarcusConfig, dH=None) -> IntegralReport:
    """Integral of H along the solution of dg = sum_i X_i(g) o dZ_i.

    H maps points (..., n) to (..., d, m), any other shape a ValueError, and
    dH to the (..., d, m, n) derivative, else taken by central differences.

    Ito part: left-point sums H(g_{s-}) dZ with exact atoms at jumps.
    QV part: 1/2 trace correction against the realized continuous QV,
    evaluated at interval-midpoint states (continuous segments only).
    Jump part: for each jump, the average of H along the fictitious
    unit-time jump orbit (``curve_average``, on the ``cfg.substeps`` grid)
    minus H at the left limit, applied to the jump size.
    """
    traj = solve_point(fields, driver, g0, cfg)
    left = traj.post[:-1]
    h_left = np.asarray(H(left), dtype=float)
    if h_left.shape[:1] + h_left.shape[2:] != (len(left), driver.dimension):
        raise ValueError("H: shape %s, not (%d, d, %d)"
                         % (h_left.shape, len(left), driver.dimension))
    mid = 0.5 * (left + traj.pre[1:])
    dh = _fd_jacobian(H, mid) if dH is None else dH(mid)
    inc_ito = np.einsum("kdm,km->kd", h_left, driver.increments)
    inc_qv = 0.5 * np.einsum("kdin,knj,kij->kd", dh, fields.field_matrix(mid),
                             quadratic_variation_c(driver))
    inc_jump = np.zeros_like(inc_ito)
    for k in driver.jump_index:
        dz, g_pre = driver.jump_size_at_grid()[k], traj.pre[k]
        h_pre = H(g_pre)
        inc_ito[k - 1] += h_pre @ dz
        avg = curve_average(H, fields, dz, g_pre, cfg)
        inc_jump[k - 1] += (avg - h_pre) @ dz
    return _assemble(inc_ito, inc_qv, inc_jump)


@dataclass(frozen=True, eq=False)
class _CompositeOrbit:
    """What the composition checks need, from one sweep of K + 2J rows: K post
    rows, then a pre and a hop row per jump (psi_k(q_k) is ``F_post[k]``)."""

    driver: JumpPath
    inner_traj: Trajectory
    F_pre: np.ndarray
    F_post: np.ndarray
    Dpsi_pre: np.ndarray
    Dpsi_post: np.ndarray
    hop: dict  # jump grid index -> psi_k(q_{k-}), the outer jump of F_pre[k]


def _composite_orbits(outer: VectorFieldSet, inner: VectorFieldSet, drivers,
                      x0, cfg: MarcusConfig) -> list:
    """The composite orbit along each driver (the rungs of a ladder, which
    share their jumps): all inner sweeps, then all outer K + 2J-row sweeps,
    in lockstep.  It raises what the drivers taken one at a time would raise
    first: the lowest that fails, its inner sweep before its outer one."""
    xis, failure = _serve([_sweep(inner, d, x0, cfg, False) for d in drivers])
    jumps = [d.jump_index for d in drivers]
    done, outer_failure = _serve([_sweep(
        outer, d, np.concatenate([xi.post, xi.pre[j], xi.pre[j]]), cfg, True,
        np.concatenate([np.arange(len(d.grid)), j, j]),
        np.repeat([1, 0, 1], [len(d.grid), len(j), len(j)]))
        for d, xi, j in zip(drivers, xis, jumps)])
    if outer_failure or failure:
        raise outer_failure or failure
    orbits = []
    for driver, xi, jump_idx, (states, jacs) in zip(drivers, xis, jumps, done):
        K, J = len(driver.grid), len(jump_idx)
        # away from a jump, post row k's state is also the left limit, bitwise
        F_pre, Dpsi_pre = states[:K].copy(), jacs[:K].copy()
        F_pre[jump_idx], Dpsi_pre[jump_idx] = states[K:K + J], jacs[K:K + J]
        orbits.append(_CompositeOrbit(
            driver=driver, inner_traj=xi, F_post=states[:K], F_pre=F_pre,
            Dpsi_post=jacs[:K], Dpsi_pre=Dpsi_pre,
            hop=dict(zip(jump_idx.tolist(), states[K + J:]))))
    return orbits


def _orbit_reports(outer: VectorFieldSet, inner: VectorFieldSet,
                   orbit: _CompositeOrbit) -> tuple:
    """(I1, I2) along one composite orbit F = psi(q) of the inner orbit q.

    I1, the Heun-consistent line integral of the outer fields along F:
    left-point sums, the Heun corrector correction 0.5 (X(F_hat) - X(F)) dZ,
    and per jump the exact unit-time jump displacement minus the linear
    atom.  The predictor F_hat follows the composite motion (outer fields
    plus the pushforward K = Dpsi Y(q) of the inner ones), because the
    covariation of X(F) with the driver runs along the full orbit; when the
    inner fields vanish the increments telescope to the outer Marcus solve.

    I2, the integral of K: see ``pushforward_integral``.  Both read the
    driver increments, the jumps and K at the grid times once, and one loop
    over the jumps adds both atoms.
    """
    driver = orbit.driver
    xi = orbit.inner_traj
    m = driver.dimension
    dzc = driver.increments
    qv = quadratic_variation_c(driver)
    sizes = driver.jump_size_at_grid()
    jump_idx = driver.jump_index

    # left-point pushforward integrand at grid times (post side)
    Y_post = inner.field_matrix(xi.post)                      # (K, n, m)
    Kmat_post = np.einsum("kab,kbm->kam", orbit.Dpsi_post, Y_post)

    # I1: left sums and the Heun corrector along the composite predictor
    F0 = orbit.F_post[:-1]
    FM0 = outer.field_matrix(F0)
    pred = F0 + np.einsum("kam,km->ka", FM0 + Kmat_post[:-1], dzc)
    FM1 = outer.field_matrix(pred)
    line_ito = np.einsum("kam,km->ka", FM0, dzc)
    line_qv = 0.5 * np.einsum("kam,km->ka", FM1 - FM0, dzc)

    # I2: left sums and the finite-variation correction at segment midpoints
    q_mid = 0.5 * (xi.post[:-1] + xi.pre[1:])
    F_mid = 0.5 * (orbit.F_post[:-1] + orbit.F_pre[1:])
    D_mid = 0.5 * (orbit.Dpsi_post[:-1] + orbit.Dpsi_pre[1:])
    Y_mid = inner.field_matrix(q_mid)                         # (K-1, n, m)
    K_mid = np.einsum("kab,kbm->kam", D_mid, Y_mid)

    push_ito = np.einsum("kam,km->ka", Kmat_post[:-1], dzc)
    push_qv = np.zeros_like(push_ito)
    DX = outer.field_jacobian(F_mid)                          # (K-1, n, m, n)
    DY = inner.field_jacobian(q_mid)
    for i in range(m):
        for j in range(m):
            term = (np.einsum("kab,kb->ka", DX[:, :, i], K_mid[:, :, j])
                    + np.einsum("kab,kb->ka", D_mid, np.einsum(
                        "kab,kb->ka", DY[:, :, i], Y_mid[:, :, j])))
            push_qv += 0.5 * qv[:, i, j, None] * term
    line_jump = np.zeros_like(line_ito)
    push_jump = np.zeros_like(push_ito)
    for k in jump_idx:
        dz = sizes[k]
        hop = orbit.hop[int(k)]
        f_pre = orbit.F_pre[k]
        atom = outer.field_matrix(f_pre) @ dz
        line_ito[k - 1] += atom
        line_jump[k - 1] += hop - f_pre - atom
        atom = (orbit.Dpsi_pre[k] @ inner.field_matrix(xi.pre[k])) @ dz
        push_ito[k - 1] += atom
        push_jump[k - 1] += -atom + orbit.F_post[k] - hop
    return (_assemble(line_ito, line_qv, line_jump),
            _assemble(push_ito, push_qv, push_jump))


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
    orbit, = _composite_orbits(outer, inner, [driver], x0, cfg)
    return _orbit_reports(outer, inner, orbit)[1]


@dataclass(frozen=True, eq=False)
class LadderRung:
    """One refinement level of a residual study."""

    h: float
    residual_sup: float
    ito: np.ndarray
    qv: np.ndarray
    jump: np.ndarray


@dataclass(frozen=True)
class CompositionReport:
    """Ladder of residuals for the flow-composition identity."""

    rungs: list
    ratios: list
    jump_concat_residual: float | None

    def jsonl_rows(self):
        return [{"h": float(r.h), "residual_sup": float(r.residual_sup),
                 "ito": r.ito.tolist(), "qv": r.qv.tolist(),
                 "jump": r.jump.tolist()} for r in self.rungs]


def _one_rung(outer, inner, orbit, x0):
    i1, i2 = _orbit_reports(outer, inner, orbit)
    rhs = np.asarray(x0, dtype=float)[None, :] + i1.partial + i2.partial
    resid = np.max(np.abs(orbit.F_post - rhs), axis=1)
    return LadderRung(
        h=float(np.max(np.diff(orbit.driver.grid))),
        residual_sup=float(resid.max()),
        ito=i1.ito_term + i2.ito_term,
        qv=i1.qv_term + i2.qv_term,
        jump=i1.jump_term + i2.jump_term,
    )


def _concat_residual(outer, inner, orbit: _CompositeOrbit, cfg) -> float | None:
    """Post-jump state vs the concatenation of the three jump flows.

    Recomputed from scratch (fresh prefix solves and single-point flows), it
    is the one independent check of the sweep's jump rows (the jump hops).
    """
    driver = orbit.driver
    if driver.jump_index.shape[0] == 0:
        return None
    worst = 0.0
    sizes = driver.jump_size_at_grid()
    for k in driver.jump_index:
        t = float(driver.grid[k])
        dz = sizes[k]
        hopped = flow(inner, dz, orbit.inner_traj.pre[k], 1.0, cfg)
        left_path = prefix(driver, t, include_jump_at_end=False)
        psi_left = solve_point(outer, left_path, hopped, cfg).post[-1]
        expected = flow(outer, dz, psi_left, 1.0, cfg)
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

    The rungs cross each jump together, in one inner and one outer flow;
    each rung is bitwise the one-rung ladder on its refined driver, and a
    failure is the lowest failing rung's, inner orbit before outer sweep.
    """
    if ladder < 1:
        raise ValueError("ladder must be >= 1")
    orbits = _composite_orbits(outer, inner, [refine(driver, 2 ** r)
                                              for r in range(ladder)], x0, cfg)
    rungs = [_one_rung(outer, inner, orbit, x0) for orbit in orbits]
    concat = _concat_residual(outer, inner, orbits[-1], cfg)
    return CompositionReport(rungs=rungs, ratios=_ratios(rungs),
                             jump_concat_residual=concat)
