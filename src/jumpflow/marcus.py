"""Canonical (Marcus) SDE solvers driven by cadlag jump paths.

Continuous stretches are integrated with a Heun predictor-corrector in the
driver increments (Stratonovich-consistent); a jump of size dz is applied as
the unit-time flow of sum_i X_i dz_i, ``odeflow.flow``: exact for a linear
field set, RK4 at ``MarcusConfig.substeps`` steps otherwise.  Both the
pre-jump and the post-jump state are recorded at every jump time, so
downstream integrals can evaluate left limits exactly.

Every solver is one sweep, ``_sweep``, over one grid loop: it advances a
state or a batch of states and carries the flow Jacobian only when asked.
``solve_point`` and ``solve_with_jacobian`` record every grid time; with
freeze indices each row stops at its own time, which serves
``stratjump._composite_orbits``; ``solve_ensemble`` steps a block of
drivers, one per row, with one weighted flow for all the jumps at a grid
step, then observes and screens the block's states once.

The sweep is a generator that hands over the rows hopping a jump and resumes
with their flowed states.  ``_serve`` runs sweeps whose drivers share their
jumps (the rungs of a refinement ladder) in lockstep, one flow per jump for
all of them; a single solve is the one-sweep case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure
from .odeflow import MarcusConfig, VectorFieldSet, flow, flow_with_jacobian
from .semimartingale import (JumpPath, PathParams, _grid_for, _sample_block,
                             _substream, _write_csv)


@dataclass(frozen=True, eq=False)
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

    ``driver`` is a JumpPath that every row follows, or a block of
    ``_driver_block``.  With ``jacobian`` the derivative in ``x`` rides
    along.  Without freeze indices every grid time is recorded, pre and post
    jump, and a Trajectory is returned.  With them, row r stops at grid
    index ``freeze_index[r]`` on side ``freeze_side[r]`` (0: the left limit,
    1: after the jump) and (states, jacobians) at the stops are returned in
    the caller's row order.  The rows are stepped sorted by (index, side),
    descending, so the live rows at step k are a prefix ``X[:L]``, the rows
    that hop a jump at k a shorter prefix, and the rows that stop at
    (k, side) a contiguous range, stored straight into the caller's rows.
    A non-finite state raises IntegrationFailure at its grid time, except
    in a block, which returns its post states and never raises: a row that
    leaves the finite range stays non-finite (a Heun step and RK4 add to
    every component, and 0 * inf in E x is NaN), for the caller to find.
    At a jump this generator yields ((fields, size, cfg, jacobian),
    hop rows) and is sent their (states, flow Jacobians or None), or thrown
    the flow's exception.
    """
    if isinstance(driver, JumpPath):
        sizes = driver.jump_size_at_grid()
        times, dzc = driver.grid, driver.increments
        jumps = {k: (Ellipsis, sizes[k]) for k in driver.jump_index}
    else:
        times, dzc, jumps = driver
    block = times is None
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
        states = np.empty((2 - block, K) + X.shape)
        jacs = np.empty((2, K) + J.shape) if jacobian else None
    else:
        fidx = np.asarray(freeze_index, dtype=int)
        fside = np.asarray(freeze_side, dtype=int)
        if np.any((fidx < 0) | (fidx > K - 1) | (fside < 0) | (fside > 1)):
            raise ValueError("freeze_index or freeze_side out of range")
        stop = 2 * fidx + fside
        order = np.argsort(-stop, kind="stable")
        X = X[order]
        # rows [0, ends[v]) stop at 2 * index + side >= v
        ends = np.searchsorted(-stop[order], -np.arange(2 * K + 1),
                               side="right").tolist()
        states = np.empty_like(X)  # every row is stored at its stop
        jacs = np.empty_like(J) if jacobian else None

    def store(k, side):
        if record:
            dst, src = (-side, k), Ellipsis
        else:
            src = slice(ends[2 * k + side + 1], ends[2 * k + side])
            dst = order[src]  # the caller's rows
        states[dst] = X[src]
        if jacobian:
            jacs[dst] = J[src]

    def check(k, rows, why=None):
        if not block and (why or not np.all(np.isfinite(X[rows]))):
            t = float(times[k])
            raise IntegrationFailure(why or "state blew up at t=%g" % t, time=t)

    # no jump can sit at t=0, so both sides start at x
    store(0, 0)
    store(0, 1)
    live = Ellipsis
    for k in range(1, K):
        if not record:
            live = slice(ends[2 * k])
            if not ends[2 * k]:
                break
        xs, js = _heun(fields, X[live], J[live] if jacobian else None,
                       dzc[k - 1])
        X[live] = xs
        if jacobian:
            J[live] = js
        check(k, live)
        store(k, 0)
        if k in jumps:
            hop, size = jumps[k]
            if not record:
                hop = slice(ends[2 * k + 1])
        if k in jumps and X[hop].size:
            why = None
            try:
                xs, js = yield (fields, size, cfg, jacobian), X[hop]
                if jacobian:
                    J[hop] = js @ J[hop]
            except IntegrationFailure as exc:
                # a blow-up inside the flow fails at the jump's grid time
                xs, why = np.nan, str(exc)
            X[hop] = xs
            check(k, hop, why)
        store(k, 1)
    if not record:
        return states, jacs
    if block:
        return states[0]
    return Trajectory(times=driver.grid.copy(), pre=states[0], post=states[1],
                      is_jump=driver.jump_mask,
                      jacobians_pre=jacs[0] if jacobian else None,
                      jacobians_post=jacs[1] if jacobian else None)


def _jump(hops):
    """Each yielded hop's (states, flow Jacobians or None), or its flow's
    exception: one flow for all, and one each only if that fails, so that
    each gets its own failure.  Among others, a state (n,) returns (1, n)."""
    (fields, size, cfg, jacobian), _ = hops[0]
    blocks = [rows for _, rows in hops]
    try:
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(
            [b.reshape(-1, b.shape[-1]) for b in blocks])
        xs, js = (flow_with_jacobian(fields, size, rows, 1.0, cfg) if jacobian
                  else (flow(fields, size, rows, 1.0, cfg), None))
    except Exception as exc:  # handed to its sweep, which may raise it
        return [exc] if len(hops) == 1 else [_jump([h])[0] for h in hops]
    cuts = np.cumsum([b.size // b.shape[-1] for b in blocks])[:-1]
    return list(zip(np.split(xs, cuts), np.split(js, cuts) if jacobian
                    else [None] * len(blocks)))


def _serve(sweeps):
    """Run ``_sweep`` generators that share their jumps, fields and settings
    in lockstep, one flow per jump for all their hop rows.  Returns, as if
    they ran one after another up to the first that raised, the results
    before it and its exception (or all results and None).  A sweep after a
    failed one, or with no rows left to hop, drops out of later jumps."""
    done, first, failure = {}, len(sweeps), None
    answers = dict.fromkeys(range(len(sweeps)))
    with np.errstate(over="ignore", invalid="ignore"):
        while answers:
            hops = {}
            for i, answer in answers.items():
                try:
                    if i < first:  # else a lower sweep failed this round
                        hops[i] = (sweeps[i].throw(answer)
                                   if isinstance(answer, Exception)
                                   else sweeps[i].send(answer))
                except StopIteration as end:
                    done[i] = end.value
                except Exception as exc:  # sweeps after i are moot
                    first, failure = i, exc
            hops = {i: hop for i, hop in hops.items() if i < first}
            answers = dict(zip(hops, _jump(list(hops.values())))) if hops else {}
    return [done[i] for i in range(first)], failure


def _run(sweep):
    """The result of one ``_sweep``; raises what the sweep raised."""
    done, failure = _serve([sweep])
    if failure is not None:
        raise failure
    return done[0]


def solve_point(fields: VectorFieldSet, driver: JumpPath, x0,
                cfg: MarcusConfig) -> Trajectory:
    """Solve dx = sum_i X_i(x) o dZ_i from x0 along one driver path.

    Exact order of operations per grid time: continuous Heun step up to the
    left limit, then the unit-time jump flow if a jump is recorded there.
    """
    return _run(_sweep(fields, driver, x0, cfg, jacobian=False))


def solve_with_jacobian(fields: VectorFieldSet, driver: JumpPath, x0,
                        cfg: MarcusConfig) -> Trajectory:
    """solve_point plus the flow Jacobian D_x0 x_t, pre and post jumps.

    The continuous part propagates the exact derivative of the discrete Heun
    map; jumps compose with the variational jump flow.
    """
    return _run(_sweep(fields, driver, x0, cfg, jacobian=True))


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Per-time first and second moments across an ensemble of paths."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    n_failures: int
    observable_mean: dict
    observable_variance: dict


def _driver_block(params, seeds, base):
    """Step-aligned block (None, dz, {step: (rows, sizes)}) of the drivers
    of ``_sample_block``, its rows padded with zero increments, and ``at``."""
    _, cont, at, (rows, steps, _, sizes) = _sample_block(params, seeds, base)
    jumps = {k: (rows[steps == k], sizes[steps == k])
             for k in set(steps.tolist())}
    return (None, np.diff(cont, axis=0), jumps), at


def solve_ensemble(fields: VectorFieldSet, params: PathParams, x0,
                   cfg: MarcusConfig, n_paths: int, observables=None) -> EnsembleSummary:
    """Monte-Carlo sweep: independent driver draws, common statistics grid.

    Per-path seeds derive from params.seed through the documented substream
    scheme (purpose key 3), so the ensemble is reproducible and insensitive
    to n_paths changes path-by-path.  A block of paths (``_sample_block``)
    is stepped as ``solve_point`` steps each row, then observed and screened
    once: a path whose states, observable series or their squares are not
    finite is a failure; the others' moments are summed in path order.
    ``observables`` maps name -> f(times (K,), states (..., K, n)) -> (..., K);
    any other shape raises ValueError.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    observables = observables or {}
    base = _grid_for(params.horizon, params.step)
    # sums and sums of squares of the states, then of each observable
    acc = acc2 = [0.0] * (1 + len(observables))
    done = 0
    block = max(1, _BLOCK_ROW_STEPS // (base.shape[0] - 1))
    # an overflowed sample, state or sum is a failure, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, block):
            driver, at = _driver_block(params, [
                int(_substream(params.seed, 3, r).integers(0, 2 ** 63))
                for r in range(start, min(start + block, n_paths))], base)
            rows = np.arange(len(at))[:, None]
            states = _run(_sweep(fields, driver, np.broadcast_to(
                x0, (len(at),) + np.shape(x0)), cfg, False))[at, rows]
            vals = [states] + [np.asarray(fn(base, states), dtype=float)
                               for fn in observables.values()]
            for v in vals[1:]:
                if v.shape != states.shape[:-1]:
                    raise ValueError("observable: shape %s, not %s (..., K)"
                                     % (v.shape, states.shape[:-1]))
            ok = np.all([np.isfinite(v ** 2).reshape(len(v), -1).all(axis=1)
                         for v in vals], axis=0)
            for r in np.flatnonzero(ok).tolist():
                acc = [a + v[r] for a, v in zip(acc, vals)]
                acc2 = [a + v[r] ** 2 for a, v in zip(acc2, vals)]
            done += int(ok.sum())
    if done == 0:
        raise IntegrationFailure("every path in the ensemble failed")
    mean = [a / done for a in acc]
    var = [np.maximum(a2 / done - m ** 2, 0.0) for a2, m in zip(acc2, mean)]
    # finite paths can still overflow their sums: fail at the first such time
    bad = ~np.all([np.isfinite(v).reshape(len(base), -1).all(axis=1)
                   for v in mean + var], axis=0)
    if bad.any():
        t = float(base[np.argmax(bad)])
        raise IntegrationFailure("ensemble moments overflowed", time=t)
    return EnsembleSummary(times=base, mean=mean[0], variance=var[0],
                           n_failures=n_paths - done,
                           observable_mean=dict(zip(observables, mean[1:])),
                           observable_variance=dict(zip(observables, var[1:])))


def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write `time, pre_*, post_*, is_jump[, jac_* row-major]` rows, the
    ``jac_*`` columns exactly when the trajectory carries Jacobians."""
    n = traj.dimension
    head = (["time"] + ["pre_%d" % (i + 1) for i in range(n)]
            + ["post_%d" % (i + 1) for i in range(n)] + ["is_jump"])
    columns = [traj.times, *traj.pre.T, *traj.post.T, traj.is_jump]
    if traj.jacobians_post is not None:
        head += ["jac_%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
        columns += list(traj.jacobians_post.reshape(traj.times.shape[0], -1).T)
    _write_csv(fh, head, columns)
