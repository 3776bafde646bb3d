"""Factor a jump-diffusion flow into horizontal and vertical components.

Given driving vector fields and a complementary pair of distributions, the
solution flow phi_t factors (up to a first degeneracy time tau) as
phi_t = xi_t o psi_t where xi_t moves only along the horizontal
distribution and psi_t only along the (flow-adjusted) vertical one.  Two
discretizations are provided:

* ``decompose_linear_sde`` for linear fields with the coordinate splitting
  R^n = R^p x R^(n-p): xi and psi stay in the complementary affine
  subgroups (their structural rows have zero increments), and the product
  is checked against an independently integrated fundamental matrix.  A
  loop steps the stored factors in place; one batched pass after it
  computes diagnostics and the first stop, which the loop may have
  integrated past.
* ``decompose_pointwise`` for nonlinear 2-D problems: xi is tracked as a
  deformed mesh, psi at probe points by its own projected equation, and
  the factorization is verified by composing interpolants.

Each mode takes Heun steps of one right-hand side over continuous
stretches (the mesh mode by odeflow's ``_heun``) and its fictitious-time
RK4 ``_rk4`` across a jump.  Both stop at the first time the
transversality data degenerates, by ``GeometryConfig``'s one rule: a frame
[B_H | B_V] whose scaled determinant |det| / prod_j |S e_j| is at most
``eps_det`` or whose 2-norm condition number is at least ``cond_cap``
(``split_frame``), or a Jacobian block whose |det| is at most
``eps_det``.  Each reports how the stop was detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, IntegrationFailure, MeshInversionError
from .geometry import (DEFAULT_GEOMETRY, ComplementaryPair,
                       GeometryConfig, split_frame)
from .mesh import MeshChart, interp_mesh, invert_mesh_map, mesh_jacobian
from .odeflow import MarcusConfig, VectorFieldSet, _heun, _rk4, expm
from .semimartingale import JumpPath

TAU_REASONS = ("horizon", "split_degenerate", "det_block_zero",
               "jump_target_degenerate", "jump_path_degenerate",
               "blowup", "mesh_inversion_failure")


@dataclass(eq=False)
class DecompositionRecord:
    """Output of either decomposition driver.

    ``times`` only reaches the first stopping time; ``tau_reason`` is one
    of ``TAU_REASONS``.  Linear mode fills the matrix snapshots, mesh mode
    the probe/mesh snapshots.  Diagnostic series share the ``times`` grid.
    """

    mode: str
    times: np.ndarray
    is_jump: np.ndarray
    tau: float
    tau_reason: str
    det_block: np.ndarray
    condition: np.ndarray
    residual_sup: np.ndarray
    renorm_deviation: np.ndarray
    xi: np.ndarray = None
    psi: np.ndarray = None
    phi: np.ndarray = None
    snapshot_times: np.ndarray = None
    xi_mesh: np.ndarray = None
    psi_probes: np.ndarray = None
    psi_probes_inverse: np.ndarray = None

    @property
    def stopped_early(self) -> bool:
        return self.tau_reason != "horizon"

    @property
    def degenerate_jump_target(self) -> bool:
        return self.tau_reason == "jump_target_degenerate"

    def jsonl_rows(self):
        """Diagnostic rows of plain-python values for streaming output; a
        non-finite number stays a float (the CLI writer makes it null)."""
        keys = ("t", "det_block", "condition", "residual_sup", "is_jump")
        return [dict(zip(keys, row)) for row in zip(*(a.tolist() for a in (
            self.times, self.det_block, self.condition, self.residual_sup,
            self.is_jump)))]


def _structured_rhs(state, M, p, out):
    """Increments of the factor equations under the matrix M: ``state``
    stacks (Xi, Psi) or (Xi, Psi, Phi), and ``out``, one slot longer,
    takes M Xi in out[0] and the increments in out[1:], which it returns.

    Both factors split the combined linear field through the moving frame
    S = [E_H | Xi[:, p:]]: the horizontal coefficient feeds xi (top rows
    only) and the vertical one feeds psi (bottom rows only).  The other
    rows of the increments are never written and must be zeros, so the
    structural blocks Xi[p:] = [0 I] and Psi[:p] = [I 0] never move and
    S = [[I, W], [0, I]], W = Xi[:p, p:], with S^-1 = [[I, -W], [0, I]].
    """
    np.matmul(M, state[::2], out[::3])  # M Xi to out[0], M Phi to out[3]
    MX_top, MX_bottom, dX = out[0, :p], out[0, p:], out[1, :p]
    np.matmul(state[0, :p, p:], MX_bottom, dX)
    np.subtract(MX_top, dX, dX)
    np.matmul(MX_bottom, state[1], out[2, p:])
    return out[1:]


def _frame_cond(W, geo):
    """cond S of the frame S = [[I, W], [0, I]] for one W or a stack of them.

    det S = 1, so split_frame's rule reads prod_j (1 + |W e_j|^2)^(-1/2) >
    ``eps_det`` and cond S = (s/2 + hypot(1, s/2))^2 < ``cond_cap``, with
    s = |W|_2.  NaN wherever W is not finite or the frame fails the rule.
    """
    finite = np.isfinite(W).all(axis=(-2, -1))
    W = np.where(finite[..., None, None], W, 0.0)
    scaled = np.prod(1.0 + np.sum(W * W, axis=-2), axis=-1) ** -0.5
    # |W|_2 is the largest singular value
    half = 0.5 * np.linalg.svd(W, compute_uv=False).max(axis=-1)
    # float_power squares by pow, not by x * x, as a scalar ** 2 does
    cond = np.float_power(half + np.hypot(1.0, half), 2)
    ok = finite & (scaled > geo.eps_det) & (cond < geo.cond_cap)
    return np.where(ok, cond, np.nan)


def _det_block_hits(det, prev, geo):
    """Where a Jacobian block determinant fails: |det| at most
    ``eps_det``, or a sign change from ``prev``."""
    return (np.abs(det) <= geo.eps_det) | (det * prev < 0)


def decompose_linear_sde(fields: VectorFieldSet, horizontal_dim: int,
                         driver: JumpPath, cfg: MarcusConfig = None,
                         geo: GeometryConfig = DEFAULT_GEOMETRY
                         ) -> DecompositionRecord:
    """Integrate the coupled factor equations for a linear jump diffusion:
    the fields x -> A_i x of the linear set ``fields`` (its ``matrices``),
    split as R^n = R^p x R^(n-p) at p = ``horizontal_dim``, 0 < p < n.

    One right-hand side over (Xi, Psi, Phi) takes Heun steps over
    continuous stretches, in place in the stored rows, and over (Xi, Psi)
    RK4 in fictitious time across jumps, where the independent reference
    fundamental matrix Phi takes the exact exponential.  The loop only
    steps and stores Xi, Psi, Phi and each step's predictor frame
    W = Xi[:p, p:] (the first stage's is the stored row), settles each
    jump's outcome and checks finiteness once per stretch, at its jump or
    the horizon, where the first non-finite step stops the run.  One
    batched pass after it computes the diagnostics (stage conditions, det
    of Phi's lower-right block, |Xi Psi - Phi|) and the first stop; within
    a step a failed stage frame (split_degenerate at its start) comes
    first, then a blow-up, a jump outcome, det_block_zero at its end.  The
    loop checks neither frame nor determinant, so such a run may be
    integrated past its stop before the pass truncates it.  The structural
    blocks are never renormalized (see ``_structured_rhs``); the pass
    measures their deviation, renorm_deviation.
    """
    cfg = cfg or MarcusConfig()
    if not fields.is_linear:
        raise ValueError("decompose_linear_sde takes a linear field set")
    A, n, p = fields.matrices, fields.dimension, horizontal_dim
    if not 0 < p < n:
        raise ValueError("horizontal_dim must split the state space")
    if A.shape[0] != driver.dimension:
        raise ValueError("driver dimension must match the number of fields")
    grid = driver.grid
    K = grid.shape[0]
    A_dz_all = np.einsum("ki,ijl->kjl", driver.increments, A)
    jump_mask = driver.jump_mask
    jump_sizes = driver.jump_size_at_grid()

    # Xi, Psi, Phi at each grid time, the predictor frame of each step,
    # the last-stage condition of each jump's RK4 and the Heun stage buffers
    F = np.empty((K, 3, n, n))
    F[0] = np.eye(n)
    frames = np.empty((K - 1, p, n - p))
    jump_cond = np.zeros(K)
    k0, k1 = np.zeros((2, 4, n, n))

    def jump_rhs(s):
        # each stage's frame to ``seen``; RK4 keeps its stage increments,
        # so each stage takes a fresh buffer
        seen.append(s[0][0, :p, p:])
        return (_structured_rhs(s[0], M, p, np.zeros((3, n, n))),)

    # candidate stops as (step, order within the step, tau, reason, rows)
    stops = [(K, 0, driver.horizon, "horizon", K)]
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # each continuous stretch ends on a jump or at the horizon; a Heun
        # step puts its predictor S + d0 and then S + (d0 + d1) / 2 in S1
        for j in (*np.flatnonzero(jump_mask[1:-1]) + 1, K - 1):
            for S, S1, A_dz, W in zip(F[start:j], F[start + 1:],
                                      A_dz_all[start:j], frames[start:j]):
                d0 = _structured_rhs(S, A_dz, p, k0)
                np.add(S, d0, out=S1)
                W[...] = S1[0, :p, p:]
                d0 += _structured_rhs(S1, A_dz, p, k1)
                d0 *= 0.5
                np.add(S, d0, out=S1)
            bad = ~np.isfinite(F[start + 1:j + 1]).all(axis=(1, 2, 3))
            if bad.any():
                k = start + int(bad.argmax())
                stops.append((k, 1, float(grid[k]), "blowup", k + 1))
                break
            if not jump_mask[j]:
                break
            # across the jump Phi moves exactly and the factors by RK4 in
            # fictitious time; a stop here keeps the pre-jump factors
            k, t_jump, start = j - 1, float(grid[j]), j
            M = np.einsum("i,ijk->jk", jump_sizes[j], A)
            Phi_target = expm(M) @ F[j, 2]
            if not np.isfinite(Phi_target).all():
                stops.append((k, 1, t_jump, "blowup", j + 1))  # left limit
                break
            F[j, 2] = Phi_target
            if abs(np.linalg.det(Phi_target[p:, p:])) <= geo.eps_det:
                stops.append((k, 1, t_jump, "jump_target_degenerate", j + 1))
                break
            # the frame of every RK4 stage, checked in one batch after it
            seen = []
            try:
                factors, = _rk4(jump_rhs, (F[j, :2],), 1.0, cfg.substeps)
                cond = _frame_cond(np.array(seen), geo)
            except IntegrationFailure:
                cond = np.nan  # a flow that blows up stops as a bad frame
            if np.isnan(cond).any():
                stops.append((k, 1, t_jump, "jump_path_degenerate", j + 1))
                break
            F[j, :2] = factors
            jump_cond[j] = cond[-1]

        # the first stop over the steps the loop took
        loop_steps, rows = min(stops[-1][0] + 1, K - 1), stops[-1][4]
        stage = _frame_cond(np.stack([F[:loop_steps, 0, :p, p:],
                                      frames[:loop_steps]], axis=1), geo)
        det = np.linalg.det(F[:rows, 2, p:, p:])
        frame_bad = np.flatnonzero(np.isnan(stage).any(axis=1))
        det_zero = np.flatnonzero(_det_block_hits(det[1:], det[:-1], geo))
        if frame_bad.size:
            k = frame_bad[0]
            stops.append((k, 0, float(grid[k]), "split_degenerate", k + 1))
        if det_zero.size:
            k = det_zero[0]
            stops.append((k, 2, float(grid[k + 1]), "det_block_zero", k + 2))
        _, _, tau, reason, rows = min(stops)

    xi, psi, phi = (F[:rows, i].copy() for i in range(3))
    cond = np.ones(rows)
    cond[1:] = np.maximum(stage[:rows - 1].max(axis=1), jump_cond[1:rows])
    I = np.eye(n)
    return DecompositionRecord(
        mode="linear",
        times=grid[:rows].copy(),
        is_jump=jump_mask[:rows],
        tau=tau,
        tau_reason=reason,
        det_block=det[:rows],
        condition=cond,
        residual_sup=np.max(np.abs(xi @ psi - phi), axis=(1, 2)),
        renorm_deviation=np.maximum(
            np.max(np.abs(xi[:, p:] - I[p:]), axis=(1, 2)),
            np.max(np.abs(psi[:, :p] - I[:p]), axis=(1, 2))),
        xi=xi,
        psi=psi,
        phi=phi,
    )


@dataclass(frozen=True, eq=False)
class ValidityReport:
    """Degeneracy scan of a solved flow's Jacobian block determinant."""

    det_post: np.ndarray
    tau: float
    tau_reason: str
    triggered_by_jump: bool


def validity_monitor(trajectory, horizontal_dim: int,
                     geo: GeometryConfig = DEFAULT_GEOMETRY) -> ValidityReport:
    """Scan a Jacobian-carrying trajectory for block-determinant failure.

    The monitored quantity is det of the lower-right (n-p) block of the
    flow Jacobian.  Stops at the first zero crossing or sub-threshold
    value, checking both the pre- and post-jump Jacobians at jump times.
    """
    if trajectory.jacobians_post is None:
        raise ValueError("trajectory must carry Jacobians")
    p = horizontal_dim
    det_pre = np.linalg.det(trajectory.jacobians_pre[:, p:, p:])
    det_post = np.linalg.det(trajectory.jacobians_post[:, p:, p:])
    times = trajectory.times
    prev = np.concatenate([det_post[:1], det_post[:-1]])
    hit_pre = _det_block_hits(det_pre, prev, geo)
    hit_post = _det_block_hits(det_post, prev, geo)
    hits = np.flatnonzero(hit_pre | hit_post)
    tau, reason, by_jump = float(times[-1]), "horizon", False
    if hits.size:
        k = hits[0]
        tau, reason = float(times[k]), "det_block_zero"
        by_jump = bool(trajectory.is_jump[k] & hit_post[k] & ~hit_pre[k])
    return ValidityReport(det_post=det_post, tau=tau, tau_reason=reason,
                          triggered_by_jump=by_jump)


def verify_composition(record: DecompositionRecord, probes) -> np.ndarray:
    """Composition residual sup_probes |xi(psi(x)) - phi(x)| per time of a
    linear-mode record.  A mesh record carries its own, ``residual_sup``,
    and raises ValueError here."""
    if record.mode != "linear":
        raise ValueError("verify_composition takes a linear-mode record")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    inner = np.einsum("kij,qj->kqi", record.psi, probes)
    outer = np.einsum("kij,kqj->kqi", record.xi, inner)
    direct = np.einsum("kij,qj->kqi", record.phi, probes)
    return np.max(np.abs(outer - direct), axis=(1, 2))


def _pointwise_rhs(fields, pair, chart, geo, seen):
    """The mesh factorization's right-hand side ``rhs(state, dz)``: the
    increments of the state (xi_mesh, phi, psi) under the increment dz.

    One interpolation (xi and D xi at psi), one field evaluation and one
    split of [B_H | D xi B_V] serve the nodes and probes together.  Each
    split appends its (det, cond) to ``seen`` or raises DegeneracyError.
    """
    # vertical frame at the frozen base points of the mesh
    BV_base = pair.vertical.basis(chart.base_points())
    kH = pair.horizontal.rank

    def rhs(state, dz):
        xi_mesh, phi, psi = state
        R, C, _ = xi_mesh.shape
        N, Q = R * C, psi.shape[0]
        Dxi = mesh_jacobian(chart, xi_mesh)
        at = interp_mesh(chart, np.concatenate(
            [xi_mesh, Dxi.reshape(R, C, 4)], axis=-1), chart.to_chart(psi))
        points = np.concatenate([xi_mesh.reshape(N, 2), at[:, :2], phi])
        F = fields.field_matrix(points) @ dz
        BH = pair.horizontal.basis(points[:N + Q])
        BVq = pair.vertical.basis(psi)
        BV = np.concatenate([(Dxi @ BV_base).reshape(N, 2, -1),
                             at[:, 2:].reshape(Q, 2, 2) @ BVq])
        coeff, det, cond = split_frame(np.concatenate([BH, BV], axis=-1),
                                       F[:N + Q], geo)
        seen.append((det, cond))
        f_xi = np.einsum("...ik,...k->...i", BH[:N], coeff[:N, :kH])
        f_psi = np.einsum("...ik,...k->...i", BVq, coeff[N:, kH:])
        return f_xi.reshape(R, C, 2), F[N + Q:], f_psi

    return rhs


def decompose_pointwise(fields: VectorFieldSet, pair: ComplementaryPair,
                        driver: JumpPath, chart: MeshChart, probes,
                        cfg: MarcusConfig = None,
                        geo: GeometryConfig = DEFAULT_GEOMETRY,
                        snapshot_stride: int = 10) -> DecompositionRecord:
    """Mesh-based decomposition of a nonlinear 2-D jump-diffusion flow.

    The horizontal factor is advanced as a deformed mesh (its motion is
    the horizontal part of the driving fields read off at the current
    image), the full flow and the vertical factor at probe points, all by
    one right-hand side (``_pointwise_rhs``).  Each step records the worst
    det and cond of its splits and the composition residual
    sup |xi(psi) - phi| at the probes, the factorization check.  Snapshots
    every ``snapshot_stride`` steps, at each jump and at the end store the
    mesh, psi at the probes and psi again as the Newton inverse
    xi^{-1} o phi (phi at the probes is computed for that, not stored).
    """
    cfg = cfg or MarcusConfig()
    if pair.horizontal.dimension != 2:
        raise ValueError("pointwise mode is implemented for 2-D states")
    if not (float(snapshot_stride).is_integer() and snapshot_stride >= 1):
        raise ValueError("snapshot_stride must be a whole number >= 1")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    seen = []
    rhs = _pointwise_rhs(fields, pair, chart, geo, seen)
    grid = driver.grid
    K = grid.shape[0]
    dzc = driver.increments
    jump_mask = driver.jump_mask
    jump_sizes = driver.jump_size_at_grid()

    def snapshot(t, state):
        xi_mesh, phi, psi = state
        inv = chart.to_cartesian(invert_mesh_map(chart, xi_mesh, phi))
        return t, xi_mesh, psi, inv

    state = (chart.base_points(), probes, probes)
    # rows of (t, is_jump, det, cond, residual) and snapshots
    rows = [(float(grid[0]), False, np.nan, 1.0, 0.0)]
    snaps = []
    tau, reason = driver.horizon, "horizon"
    try:
        snaps.append(snapshot(float(grid[0]), state))
    except MeshInversionError:  # the chart is too coarse for a probe
        tau, reason = float(grid[0]), "mesh_inversion_failure"
    for k in range(K - 1 if snaps else 0):
        seen.clear()
        try:
            state = _heun(lambda s: rhs(s, dzc[k]), state)
        except DegeneracyError:
            tau, reason = float(grid[k]), "split_degenerate"
            break
        if not all(np.isfinite(a).all() for a in state):
            tau, reason = float(grid[k]), "blowup"
            break
        t, jumped = float(grid[k + 1]), bool(jump_mask[k + 1])
        if jumped:
            try:
                state = _rk4(lambda s: rhs(s, jump_sizes[k + 1]), state,
                             1.0, cfg.substeps)
            except (DegeneracyError, IntegrationFailure):
                # as in linear mode: stop at the jump time, and the row
                # there keeps the pre-jump state and the Heun stages
                tau, reason = t, "jump_path_degenerate"
                del seen[2:]
        xi_mesh, phi, psi = state
        resid = np.max(np.abs(interp_mesh(chart, xi_mesh,
                                          chart.to_chart(psi)) - phi))
        det, cond = zip(*seen)
        rows.append((t, jumped, min(det), max(cond), float(resid)))
        if reason != "horizon":
            break
        if (k + 1) % snapshot_stride == 0 or jumped or k == K - 2:
            try:
                snaps.append(snapshot(t, state))
            except MeshInversionError:
                tau, reason = t, "mesh_inversion_failure"
                break

    times, is_jump, det, cond, resid = map(np.array, zip(*rows))
    if det.shape[0] > 1 and np.isnan(det[0]):
        det[0] = det[1]
    if snaps:
        snap_times, xi_mesh, psi, inv = map(np.array, zip(*snaps))
    else:  # no snapshot: empty stacks of each snapshot's shape
        snap_times, xi_mesh, psi, inv = (np.empty((0,) + np.shape(a)) for a
                                         in (0.0, state[0], probes, probes))
    return DecompositionRecord(
        mode="mesh",
        times=times,
        is_jump=is_jump,
        tau=tau,
        tau_reason=reason,
        det_block=det,
        condition=cond,
        residual_sup=resid,
        renorm_deviation=np.zeros(len(times)),
        snapshot_times=snap_times,
        xi_mesh=xi_mesh,
        psi_probes=psi,
        psi_probes_inverse=inv,
    )
