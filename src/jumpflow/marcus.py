"""Canonical (Marcus) SDE solvers driven by cadlag jump paths.

Continuous stretches are integrated with a Heun predictor-corrector in the
driver increments (Stratonovich-consistent); a jump of size dz is applied as
the exact-order unit-time flow of sum_i X_i dz_i.  Both the pre-jump and the
post-jump state are recorded at every jump time, so downstream integrals can
evaluate left limits exactly.

Every solver is one sweep, ``_sweep``, over one grid loop: it advances a
state or a batch of states and carries the flow Jacobian only when asked.
``solve_point`` and ``solve_with_jacobian`` record every grid time;
``solve_map_batch`` stops each row at its own time; ``solve_ensemble``
steps blocks of drivers, one per row, each row as ``solve_point`` would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IntegrationFailure
from .odeflow import OdeConfig, VectorFieldSet, flow, flow_with_jacobian
from .semimartingale import (JumpPath, PathParams, _grid_for, _substream,
                             sample_levy_jump_diffusion)


@dataclass(frozen=True)
class MarcusConfig:
    """Solver settings: jump-flow integration and Jacobian recording."""

    ode: OdeConfig = field(default_factory=OdeConfig)
    record_jacobian: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Solution samples aligned with the driving path's grid.

    ``pre`` holds left limits x_{t-} (equal to ``post`` away from jumps);
    ``post`` holds the cadlag state x_t.  Jacobian arrays follow the same
    convention when recorded.
    """

    times: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    is_jump: np.ndarray
    path: JumpPath
    jacobians_pre: np.ndarray | None = None
    jacobians_post: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.post.shape[1]

    def final_state(self) -> np.ndarray:
        return self.post[-1].copy()


# Row-steps in one ensemble block: its memory is bounded at any path count
_BLOCK_ROW_STEPS = 2 ** 14


def _heun(fields, x, J, dz):
    """One Heun step of x; with a Jacobian J, also of J (else J stays None)."""
    F0 = fields.field_matrix(x)
    xhat = x + (F0 @ dz[..., None])[..., 0]
    F1 = fields.field_matrix(xhat)
    x_new = x + (0.5 * (F0 + F1) @ dz[..., None])[..., 0]
    if J is None:
        return x_new, None
    D0 = fields.combo_jacobian(x, dz)
    D1 = fields.combo_jacobian(xhat, dz)
    return x_new, J + 0.5 * (D0 + D1 + D1 @ D0) @ J


def _sweep(fields, driver, x, cfg, jacobian, freeze_index=None,
           freeze_side=None):
    """Advance a state (n,) or a batch (B, n) along the driver grid.

    ``driver`` is a JumpPath that every row follows, or a block from
    ``_pack``.  With ``jacobian`` the derivative with respect to ``x`` rides
    along.  Without freeze indices every grid time is recorded, pre and post
    jump, and a Trajectory is returned.  With them, row r stops at grid
    index ``freeze_index[r]`` on side ``freeze_side[r]`` (0: the left limit,
    1: after the jump) and (states, jacobians) at the stops are returned.
    A non-finite state raises IntegrationFailure at its grid time, but a
    block row leaves the live set; a block returns (post, failed rows).
    """
    if isinstance(driver, JumpPath):
        sizes = driver.jump_size_at_grid()
        times, dzc = driver.grid, np.diff(driver.continuous_values, axis=0)
        jumps = [(k, Ellipsis, sizes[k]) for k in np.flatnonzero(driver.jump_mask)]
        failed = None
    else:
        (times, dzc, jumps), failed = driver, np.zeros(len(x), dtype=bool)
    if fields.count != dzc.shape[-1]:
        raise ValueError("field count must match driver dimension")
    X = np.array(x, dtype=float, order="C")  # strided rows round differently
    K = dzc.shape[0] + 1
    n = X.shape[-1]
    J = (np.broadcast_to(np.eye(n), X.shape[:-1] + (n, n)).copy()
         if jacobian else None)
    record = freeze_index is None
    if record:
        # slot 0: left limits, slot -1: cadlag values; a block keeps only -1
        states = np.empty((1 + (failed is None), K) + X.shape)
        jacs = np.empty((2, K) + J.shape) if jacobian else None
    else:
        fidx = np.asarray(freeze_index, dtype=int)
        fside = np.asarray(freeze_side, dtype=int)
        if np.any(fidx < 0) or np.any(fidx > K - 1):
            raise ValueError("freeze_index out of range")
        states = X.copy()
        jacs = J.copy() if jacobian else None

    def store(k, side):
        if record:
            dst, src = (-side, k), Ellipsis
        else:
            dst = src = (fidx == k) & (fside == side)
        states[dst] = X[src]
        if jacobian:
            jacs[dst] = J[src]

    def check(k, rows, why=None):
        if failed is not None:
            failed[rows] |= ~np.isfinite(X[rows]).all(axis=-1)
        elif why or not np.all(np.isfinite(X[rows])):
            t = float(times[k])
            raise IntegrationFailure(why or "state blew up at t=%g" % t, time=t)

    # no jump can sit at t=0, so both sides start at x
    store(0, 0)
    store(0, 1)
    live, j = Ellipsis, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K):
            if not record:
                live = fidx >= k
                if not np.any(live):
                    break
            elif failed is not None and failed.any():
                live = ~failed
            dz = dzc[k - 1] if dzc.ndim == 2 else dzc[k - 1][live]
            xs, js = _heun(fields, X[live], J[live] if jacobian else None, dz)
            X[live] = xs
            if jacobian:
                J[live] = js
            check(k, live)
            store(k, 0)
            while j < len(jumps) and jumps[j][0] == k:
                _, hop, size = jumps[j]
                j += 1
                if not record:
                    hop = live & ~((fidx == k) & (fside == 0))
                    if not np.any(hop):
                        continue
                elif failed is not None and failed[hop]:
                    continue
                why = None
                try:
                    if jacobian:
                        xs, js = flow_with_jacobian(fields, size, X[hop], 1.0,
                                                    cfg.ode)
                        J[hop] = js @ J[hop]
                    else:
                        xs = flow(fields, size, X[hop], 1.0, cfg.ode)
                except IntegrationFailure as exc:
                    # a blow-up inside the flow fails at the jump's grid time
                    xs, why = np.nan, str(exc)
                X[hop] = xs
                check(k, hop, why)
            store(k, 1)
    if not record:
        return states, jacs
    if failed is not None:
        return states[0], failed
    return Trajectory(times=driver.grid.copy(), pre=states[0], post=states[1],
                      is_jump=driver.jump_mask, path=driver,
                      jacobians_pre=jacs[0] if jacobian else None,
                      jacobians_post=jacs[1] if jacobian else None)


def solve_point(fields: VectorFieldSet, driver: JumpPath, x0,
                cfg: MarcusConfig) -> Trajectory:
    """Solve dx = sum_i X_i(x) o dZ_i from x0 along one driver path.

    Exact order of operations per grid time: continuous Heun step up to the
    left limit, then the unit-time jump flow if a jump is recorded there.
    """
    return _sweep(fields, driver, x0, cfg, jacobian=False)


def solve_with_jacobian(fields: VectorFieldSet, driver: JumpPath, x0,
                        cfg: MarcusConfig) -> Trajectory:
    """solve_point plus the flow Jacobian D_x0 x_t, pre and post jumps.

    The continuous part propagates the exact derivative of the discrete Heun
    map; jumps compose with the variational jump flow.
    """
    return _sweep(fields, driver, x0, cfg, jacobian=True)


def solve_map_batch(fields: VectorFieldSet, driver: JumpPath, bases,
                    freeze_index, freeze_side, cfg: MarcusConfig):
    """Evolve many base points under the same flow, each frozen at its own time.

    Row r starts at ``bases[r]`` at time 0 and evolves (state and Jacobian)
    until grid index ``freeze_index[r]``; ``freeze_side[r]`` 0 freezes at the
    left limit (before a jump recorded at that time), 1 after it.  Returns
    (states, jacobians) of shape (B, n) and (B, n, n).

    This is the vectorized equivalent of running ``solve_with_jacobian`` on
    each truncated driver prefix separately (an equivalence the tests pin);
    it is how pushforward Jacobians along a moving base point are obtained at
    every grid time in one sweep.
    """
    return _sweep(fields, driver, bases, cfg, True, freeze_index, freeze_side)


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-time first and second moments across an ensemble of paths."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    n_paths: int
    n_failures: int
    observable_mean: dict
    observable_variance: dict


def _pack(paths, base):
    """Step-aligned block (None, dz, [(step, row, size)]) of drivers, each row
    padded at the end with zero increments, and their ``base`` time indices."""
    dzs, jumps, at = [], [], []
    for r, p in enumerate(paths):
        dzs.append(np.diff(p.continuous_values, axis=0))
        jumps += [(k, r, size) for k, size in
                  zip(np.searchsorted(p.grid, p.jump_times), p.jump_sizes)]
        at.append(np.searchsorted(p.grid, base))
    dz = np.zeros((max(d.shape[0] for d in dzs), len(dzs), dzs[0].shape[1]))
    for r, d in enumerate(dzs):
        dz[:d.shape[0], r] = d
    jumps.sort(key=lambda jump: jump[0])
    return (None, dz, jumps), np.array(at)


def solve_ensemble(fields: VectorFieldSet, params: PathParams, x0,
                   cfg: MarcusConfig, n_paths: int, observables=None) -> EnsembleSummary:
    """Monte-Carlo sweep: independent driver draws, common statistics grid.

    Per-path seeds derive from params.seed through the documented substream
    scheme (purpose key 3), so the ensemble is reproducible and insensitive
    to n_paths changes path-by-path.  Blocks of paths are stepped together,
    each row exactly as ``solve_point`` steps it, and moments are summed per
    path in path order.  A path whose states, observable series or their
    squares are not finite is counted as a failure and skipped, never
    fatal.  ``observables`` maps name -> f(times, states) returning a
    per-time scalar series.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    observables = observables or {}
    base = _grid_for(params.horizon, params.step)
    # sums and sums of squares of the states, then of each observable
    acc = acc2 = [0.0] * (1 + len(observables))
    done = 0
    block = max(1, _BLOCK_ROW_STEPS // (base.shape[0] - 1))
    for start in range(0, n_paths, block):
        driver, at = _pack((sample_levy_jump_diffusion(replace(
            params, seed=int(_substream(params.seed, 3, r).integers(0, 2 ** 63))))
            for r in range(start, min(start + block, n_paths))), base)
        post, failed = _sweep(fields, driver, np.broadcast_to(
            x0, (at.shape[0],) + np.shape(x0)), cfg, False)
        for r in np.flatnonzero(~failed):
            with np.errstate(over="ignore", invalid="ignore"):
                vals = [post[at[r], r]]
                vals += [np.asarray(fn(base, vals[0]), dtype=float)
                         for fn in observables.values()]
                squares = [v ** 2 for v in vals]
            if all(np.all(np.isfinite(sq)) for sq in squares):
                acc = [a + v for a, v in zip(acc, vals)]
                acc2 = [a + sq for a, sq in zip(acc2, squares)]
                done += 1
    if done == 0:
        raise IntegrationFailure("every path in the ensemble failed")
    mean = [a / done for a in acc]
    var = [np.maximum(a2 / done - m ** 2, 0.0) for a2, m in zip(acc2, mean)]
    return EnsembleSummary(times=base, mean=mean[0], variance=var[0],
                           n_paths=n_paths, n_failures=n_paths - done,
                           observable_mean=dict(zip(observables, mean[1:])),
                           observable_variance=dict(zip(observables, var[1:])))


def trajectory_to_csv(traj: Trajectory, fh, include_jacobian: bool = False) -> None:
    """Write `time, pre_*, post_*, is_jump[, jac_* row-major]` rows."""
    n = traj.dimension
    head = (["time"] + ["pre_%d" % (i + 1) for i in range(n)]
            + ["post_%d" % (i + 1) for i in range(n)] + ["is_jump"])
    with_jac = include_jacobian and traj.jacobians_post is not None
    if with_jac:
        head += ["jac_%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    writer = csv.writer(fh)
    writer.writerow(head)
    for k in range(traj.times.shape[0]):
        row = [repr(float(traj.times[k]))]
        row += [repr(float(v)) for v in traj.pre[k]]
        row += [repr(float(v)) for v in traj.post[k]]
        row.append(str(int(traj.is_jump[k])))
        if with_jac:
            row += [repr(float(v)) for v in traj.jacobians_post[k].ravel()]
        writer.writerow(row)
