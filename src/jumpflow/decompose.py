"""Factor a jump-diffusion flow into horizontal and vertical components.

Given driving vector fields and a complementary pair of distributions, the
solution flow phi_t factors (up to a first degeneracy time tau) as
phi_t = xi_t o psi_t where xi_t moves only along the horizontal
distribution and psi_t only along the (flow-adjusted) vertical one.  Two
discretizations are provided:

* ``decompose_linear_sde`` for linear fields with the coordinate splitting
  R^n = R^p x R^(n-p): xi and psi stay in the complementary affine
  subgroups (block rows frozen structurally), and the product is checked
  against an independently integrated fundamental matrix.
* ``decompose_pointwise`` for nonlinear 2-D problems: xi is tracked as a
  deformed mesh, psi at probe points by its own projected equation, and
  the factorization is verified by composing interpolants.

Both stop at the first time the transversality data degenerates and
report how the stop was detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, IntegrationFailure, MeshInversionError
from .geometry import ComplementaryPair, GeometryConfig, DEFAULT_GEOMETRY
from .marcus import MarcusConfig
from .mesh import MeshChart, interp_mesh, invert_mesh_map, mesh_jacobian
from .odeflow import VectorFieldSet, expm
from .semimartingale import JumpPath

TAU_REASONS = ("horizon", "split_degenerate", "det_block_zero",
               "jump_target_degenerate", "jump_path_degenerate",
               "blowup", "mesh_inversion_failure")


@dataclass(frozen=True)
class LinearFactorization:
    """Algebraic factorization of a single invertible matrix."""

    xi: np.ndarray
    psi: np.ndarray
    det_block: float
    degenerate: bool


def decompose_linear_algebraic(matrix, horizontal_dim: int,
                               geo: GeometryConfig = DEFAULT_GEOMETRY
                               ) -> LinearFactorization:
    """Split M = xi @ psi with psi fixing the first p coordinates' span.

    psi keeps the identity in its top block rows (it moves points only in
    the last n - p coordinates) and xi keeps (0, I) in its bottom rows.
    The factorization exists iff the lower-right block of M is invertible;
    a degenerate input returns ``degenerate=True`` with xi = psi = None
    rather than raising.
    """
    M = np.asarray(matrix, dtype=float)
    n = M.shape[0]
    p = int(horizontal_dim)
    if M.shape != (n, n) or not 0 < p < n:
        raise ValueError("matrix must be square with 0 < horizontal_dim < n")
    M11, M12 = M[:p, :p], M[:p, p:]
    M21, M22 = M[p:, :p], M[p:, p:]
    det_block = float(np.linalg.det(M22))
    if abs(det_block) <= geo.eps_det:
        return LinearFactorization(xi=None, psi=None, det_block=det_block,
                                   degenerate=True)
    W = np.linalg.solve(M22.T, M12.T).T          # M12 @ inv(M22)
    xi = np.eye(n)
    xi[:p, :p] = M11 - W @ M21
    xi[:p, p:] = W
    psi = np.eye(n)
    psi[p:, :p] = M21
    psi[p:, p:] = M22
    return LinearFactorization(xi=xi, psi=psi, det_block=det_block,
                               degenerate=False)


@dataclass(frozen=True)
class LinearSystem:
    """Linear driving fields x -> A_i x plus the coordinate splitting."""

    matrices: np.ndarray
    horizontal_dim: int

    def __post_init__(self):
        A = np.asarray(self.matrices, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError("matrices must be (m, n, n)")
        if not 0 < self.horizontal_dim < A.shape[1]:
            raise ValueError("horizontal_dim must split the state space")
        object.__setattr__(self, "matrices", A)

    @property
    def dimension(self):
        return self.matrices.shape[1]


@dataclass
class DecompositionRecord:
    """Output of either decomposition driver.

    ``times`` only reaches the first stopping time; ``tau_reason`` is one
    of ``TAU_REASONS``.  Linear mode fills the matrix snapshots, mesh mode
    the probe/mesh snapshots.  Diagnostic series share the ``times`` grid.
    """

    mode: str
    horizontal_dim: int
    times: np.ndarray
    is_jump: np.ndarray
    tau: float
    tau_reason: str
    degenerate_jump_target: bool
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
    phi_probes: np.ndarray = None
    probes: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def stopped_early(self) -> bool:
        return self.tau_reason != "horizon"

    def jsonl_rows(self):
        """Diagnostic rows (plain-python values) for streaming output."""
        def num(x):
            x = float(x)
            return x if np.isfinite(x) else None

        rows = []
        for k in range(self.times.shape[0]):
            rows.append({
                "t": float(self.times[k]),
                "det_block": num(self.det_block[k]),
                "condition": num(self.condition[k]),
                "residual_sup": num(self.residual_sup[k]),
                "is_jump": bool(self.is_jump[k]),
            })
        return rows


def _structured_rhs(Xi, Psi, A_dz, p, geo):
    """Increments (dXi, dPsi) for the factor equations, plus a condition.

    Both factors split the combined linear field through the moving frame
    S = [E_H | Xi[:, p:]]: the horizontal coefficient feeds xi (top rows
    only) and the vertical one feeds psi (bottom rows only), so the
    structural blocks never move and S = [[I, W], [0, I]], W = Xi[:p, p:]:
    det S = 1, S^-1 = [[I, -W], [0, I]], cond S = (s/2 + hypot(1, s/2))^2
    with s = |W|_2.
    """
    W = Xi[:p, p:]
    det = 1.0 if np.all(np.isfinite(W)) else np.nan
    if not np.isfinite(det) or abs(det) <= geo.eps_det:
        raise DegeneracyError("frame matrix singular", det=det)
    half = 0.5 * float(np.linalg.norm(W, 2))
    cond = float((half + np.hypot(1.0, half)) ** 2)
    if cond >= geo.cond_cap:
        raise DegeneracyError("frame matrix ill conditioned",
                              det=det, condition=cond)
    AX = A_dz @ Xi
    dXi = np.zeros_like(Xi)
    dXi[:p] = AX[:p] - W @ AX[p:]
    dPsi = np.zeros_like(Psi)
    dPsi[p:] = AX[p:] @ Psi
    return dXi, dPsi, cond


def _renormalize(Xi, Psi, p):
    """Force the structural blocks and report the worst deviation."""
    n = Xi.shape[0]
    dev = max(float(np.max(np.abs(Xi[p:, :p]))) if p < n else 0.0,
              float(np.max(np.abs(Xi[p:, p:] - np.eye(n - p)))),
              float(np.max(np.abs(Psi[:p, :p] - np.eye(p)))),
              float(np.max(np.abs(Psi[:p, p:]))) if p < n else 0.0)
    Xi[p:, :p] = 0.0
    Xi[p:, p:] = np.eye(n - p)
    Psi[:p, :p] = np.eye(p)
    Psi[:p, p:] = 0.0
    return dev


def _jump_joint(Xi, Psi, A_dz, p, substeps, geo):
    """RK4 on the fictitious-time factor equations across one jump."""
    du = 1.0 / substeps
    for _ in range(substeps):
        k1x, k1p, _ = _structured_rhs(Xi, Psi, A_dz, p, geo)
        k2x, k2p, _ = _structured_rhs(Xi + 0.5 * du * k1x,
                                      Psi + 0.5 * du * k1p, A_dz, p, geo)
        k3x, k3p, _ = _structured_rhs(Xi + 0.5 * du * k2x,
                                      Psi + 0.5 * du * k2p, A_dz, p, geo)
        k4x, k4p, cond = _structured_rhs(Xi + du * k3x, Psi + du * k3p,
                                         A_dz, p, geo)
        Xi = Xi + (du / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        Psi = Psi + (du / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        if not (np.all(np.isfinite(Xi)) and np.all(np.isfinite(Psi))):
            raise IntegrationFailure("factor blow-up inside jump")
    return Xi, Psi, cond


def decompose_linear_sde(system: LinearSystem, driver: JumpPath,
                         cfg: MarcusConfig = None,
                         geo: GeometryConfig = DEFAULT_GEOMETRY
                         ) -> DecompositionRecord:
    """Integrate the coupled factor equations for a linear jump diffusion.

    Heun steps over continuous stretches, RK4 in fictitious time across
    jumps.  A reference fundamental matrix Phi is integrated independently
    (matrix Heun plus exact exponential jumps) to supply the residual
    series |Xi Psi - Phi| and the stopping monitor det of the lower-right
    block of Phi.  Integration stops at the horizon or at the first
    degeneracy; the record says which and why.
    """
    cfg = cfg or MarcusConfig()
    A = system.matrices
    if A.shape[0] != driver.dimension:
        raise ValueError("driver dimension must match the number of fields")
    n, p = system.dimension, system.horizontal_dim
    grid = driver.grid
    K = grid.shape[0]
    dzc = np.diff(driver.continuous_values, axis=0)
    jump_mask = driver.jump_mask
    jump_sizes = driver.jump_size_at_grid()

    Xi = np.eye(n)
    Psi = np.eye(n)
    Phi = np.eye(n)
    times = [float(grid[0])]
    is_jump = [False]
    det_series = [1.0]
    cond_series = [1.0]
    resid_series = [0.0]
    renorm_series = [0.0]
    xi_snap = [Xi.copy()]
    psi_snap = [Psi.copy()]
    phi_snap = [Phi.copy()]
    det_pre_jump = {}
    tau = driver.horizon
    reason = "horizon"
    degenerate_target = False

    def record(t, jumped, cond):
        times.append(float(t))
        is_jump.append(bool(jumped))
        det_series.append(float(np.linalg.det(Phi[p:, p:])))
        cond_series.append(cond)
        resid_series.append(float(np.max(np.abs(Xi @ Psi - Phi))))
        renorm_series.append(_renormalize(Xi, Psi, p))
        xi_snap.append(Xi.copy())
        psi_snap.append(Psi.copy())
        phi_snap.append(Phi.copy())

    for k in range(K - 1):
        A_dz = np.einsum("i,ijk->jk", dzc[k], A)
        try:
            k0x, k0p, cond0 = _structured_rhs(Xi, Psi, A_dz, p, geo)
            k1x, k1p, cond1 = _structured_rhs(Xi + k0x, Psi + k0p,
                                              A_dz, p, geo)
        except DegeneracyError:
            tau, reason = float(grid[k]), "split_degenerate"
            break
        Xi = Xi + 0.5 * (k0x + k1x)
        Psi = Psi + 0.5 * (k0p + k1p)
        P_hat = Phi + A_dz @ Phi
        Phi = Phi + 0.5 * (A_dz @ Phi + A_dz @ P_hat)
        if not (np.all(np.isfinite(Xi)) and np.all(np.isfinite(Psi))
                and np.all(np.isfinite(Phi))):
            tau, reason = float(grid[k]), "blowup"
            break
        cond = max(cond0, cond1)
        jumped = bool(jump_mask[k + 1])
        if jumped:
            dzj = jump_sizes[k + 1]
            A_j = np.einsum("i,ijk->jk", dzj, A)
            with np.errstate(over="ignore", invalid="ignore"):
                Phi_target = expm(A_j) @ Phi
            if not np.all(np.isfinite(Phi_target)):
                record(grid[k + 1], True, cond)    # at the left limit
                tau, reason = float(grid[k + 1]), "blowup"
                break
            det_target = float(np.linalg.det(Phi_target[p:, p:]))
            det_pre_jump[k + 1] = float(np.linalg.det(Phi[p:, p:]))
            if abs(det_target) <= geo.eps_det:
                # the jump itself lands on the degenerate set: stop at the
                # jump time with the pre-jump factors
                Phi = Phi_target
                record(grid[k + 1], True, cond)
                det_series[-1] = det_target
                tau, reason = float(grid[k + 1]), "jump_target_degenerate"
                degenerate_target = True
                break
            try:
                Xi, Psi, cond_j = _jump_joint(Xi, Psi, A_j,
                                              p, cfg.ode.substeps, geo)
            except (DegeneracyError, IntegrationFailure):
                Phi = Phi_target
                record(grid[k + 1], True, cond)
                det_series[-1] = det_target
                tau, reason = float(grid[k + 1]), "jump_path_degenerate"
                break
            Phi = Phi_target
            cond = max(cond, cond_j)
        record(grid[k + 1], jumped, cond)
        det_now = det_series[-1]
        det_prev = det_series[-2]
        if abs(det_now) <= geo.eps_det or det_now * det_prev < 0:
            tau, reason = float(grid[k + 1]), "det_block_zero"
            break

    return DecompositionRecord(
        mode="linear",
        horizontal_dim=p,
        times=np.array(times),
        is_jump=np.array(is_jump, dtype=bool),
        tau=tau,
        tau_reason=reason,
        degenerate_jump_target=degenerate_target,
        det_block=np.array(det_series),
        condition=np.array(cond_series),
        residual_sup=np.array(resid_series),
        renorm_deviation=np.array(renorm_series),
        xi=np.array(xi_snap),
        psi=np.array(psi_snap),
        phi=np.array(phi_snap),
        diagnostics={"det_pre_jump": det_pre_jump},
    )


@dataclass(frozen=True)
class ValidityReport:
    """Degeneracy scan of a solved flow's Jacobian block determinant."""

    times: np.ndarray
    det_pre: np.ndarray
    det_post: np.ndarray
    tau: float
    tau_index: int
    tau_reason: str
    triggered_by_jump: bool


def validity_monitor(trajectory, horizontal_dim: int,
                     geo: GeometryConfig = DEFAULT_GEOMETRY,
                     chart_jacobian=None) -> ValidityReport:
    """Scan a Jacobian-carrying trajectory for block-determinant failure.

    The monitored quantity is det of the lower-right (n-p) block of the
    flow Jacobian, optionally conjugated into adapted coordinates by
    ``chart_jacobian`` (a callable x -> (n, n) matrix).  Stops at the first
    zero crossing or sub-threshold value, checking both the pre- and
    post-jump Jacobians at jump times.
    """
    if trajectory.jacobians_post is None:
        raise ValueError("trajectory must carry Jacobians")
    p = horizontal_dim
    J_pre = trajectory.jacobians_pre
    J_post = trajectory.jacobians_post
    if chart_jacobian is not None:
        D0 = np.linalg.inv(chart_jacobian(trajectory.pre[0]))
        J_pre = np.array([chart_jacobian(x) @ J @ D0
                          for x, J in zip(trajectory.pre, J_pre)])
        J_post = np.array([chart_jacobian(x) @ J @ D0
                           for x, J in zip(trajectory.post, J_post)])
    det_pre = np.linalg.det(J_pre[:, p:, p:])
    det_post = np.linalg.det(J_post[:, p:, p:])
    times = trajectory.times
    tau = float(times[-1])
    tau_index = times.shape[0] - 1
    reason = "horizon"
    by_jump = False
    for k in range(times.shape[0]):
        prev = det_post[k - 1] if k > 0 else det_post[0]
        hit_pre = abs(det_pre[k]) <= geo.eps_det or det_pre[k] * prev < 0
        hit_post = abs(det_post[k]) <= geo.eps_det or det_post[k] * prev < 0
        if hit_pre or hit_post:
            tau = float(times[k])
            tau_index = k
            reason = "det_block_zero"
            by_jump = bool(trajectory.is_jump[k]) and hit_post and not hit_pre
            break
    return ValidityReport(times=times, det_pre=det_pre, det_post=det_post,
                          tau=tau, tau_index=tau_index, tau_reason=reason,
                          triggered_by_jump=by_jump)


def verify_composition(record: DecompositionRecord, probes) -> np.ndarray:
    """Composition residual sup_probes |xi(psi(x)) - phi(x)| per time."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if record.mode == "linear":
        inner = np.einsum("kij,qj->kqi", record.psi, probes)
        outer = np.einsum("kij,kqj->kqi", record.xi, inner)
        direct = np.einsum("kij,qj->kqi", record.phi, probes)
        return np.max(np.abs(outer - direct), axis=(1, 2))
    return record.residual_sup.copy()


def _split_frame_2x2(S, rhs, geo):
    """Batched 2x2 solve with explicit determinant/condition guards."""
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    colnorm = (np.linalg.norm(S[..., :, 0], axis=-1)
               * np.linalg.norm(S[..., :, 1], axis=-1))
    scaled = np.abs(det) / np.maximum(colnorm, 1e-300)
    fro2 = np.sum(S * S, axis=(-2, -1))
    disc = np.sqrt(np.maximum(fro2 * fro2 - 4 * det * det, 0.0))
    sig_hi = np.sqrt((fro2 + disc) / 2)
    sig_lo = np.sqrt(np.maximum((fro2 - disc) / 2, 1e-300))
    cond = sig_hi / sig_lo
    if (not np.all(np.isfinite(det)) or np.min(scaled) <= geo.eps_det
            or np.max(cond) >= geo.cond_cap):
        raise DegeneracyError("pointwise frame degenerate",
                              det=float(np.min(scaled)),
                              condition=float(np.max(cond)))
    inv_det = 1.0 / det
    c0 = (S[..., 1, 1] * rhs[..., 0] - S[..., 0, 1] * rhs[..., 1]) * inv_det
    c1 = (S[..., 0, 0] * rhs[..., 1] - S[..., 1, 0] * rhs[..., 0]) * inv_det
    coeff = np.stack([c0, c1], axis=-1)
    return coeff, float(np.min(scaled)), float(np.max(cond))


class _PointwiseState:
    """Mutable integration state for the mesh-based decomposition."""

    def __init__(self, fields, pair, chart, probes, geo):
        self.fields = fields
        self.pair = pair
        self.chart = chart
        self.geo = geo
        self.base = chart.base_points()
        self.xi_mesh = self.base.copy()
        self.probes = np.atleast_2d(np.asarray(probes, dtype=float))
        self.phi = self.probes.copy()
        self.psi = self.probes.copy()
        # vertical frame at the frozen base points of the mesh
        self.BV_base = pair.vertical.basis_batch(self.base)

    def rhs(self, xi_mesh, phi, psi, dz):
        fields, pair, chart = self.fields, self.pair, self.chart
        f_phi = fields.field_matrix(phi) @ dz

        Dxi = mesh_jacobian(chart, xi_mesh)
        BH = pair.horizontal.basis_batch(xi_mesh)
        S = np.concatenate([BH, Dxi @ self.BV_base], axis=-1)
        Xval = fields.field_matrix(xi_mesh) @ dz
        kH = pair.horizontal.rank
        coeff, det_m, cond_m = _split_frame_2x2(S, Xval, self.geo)
        f_xi = np.einsum("...ik,...k->...i", BH, coeff[..., :kH])

        qc = chart.to_chart(psi)
        xi_at, _ = interp_mesh(chart, xi_mesh, qc, derivative=True)
        Dxi_at = interp_mesh(chart, Dxi, qc)
        BHq = pair.horizontal.basis_batch(xi_at)
        BVq = pair.vertical.basis_batch(psi)
        Sq = np.concatenate([BHq, Dxi_at @ BVq], axis=-1)
        Xq = fields.field_matrix(xi_at) @ dz
        coeff_q, det_q, cond_q = _split_frame_2x2(Sq, Xq, self.geo)
        f_psi = np.einsum("...ik,...k->...i", BVq, coeff_q[..., kH:])
        return f_xi, f_phi, f_psi, min(det_m, det_q), max(cond_m, cond_q)

    def heun_step(self, dz):
        f_xi, f_phi, f_psi, det0, cond0 = self.rhs(self.xi_mesh, self.phi,
                                                   self.psi, dz)
        g_xi, g_phi, g_psi, det1, cond1 = self.rhs(self.xi_mesh + f_xi,
                                                   self.phi + f_phi,
                                                   self.psi + f_psi, dz)
        self.xi_mesh = self.xi_mesh + 0.5 * (f_xi + g_xi)
        self.phi = self.phi + 0.5 * (f_phi + g_phi)
        self.psi = self.psi + 0.5 * (f_psi + g_psi)
        self._check_finite()
        return min(det0, det1), max(cond0, cond1)

    def jump_step(self, dzj, substeps):
        du = 1.0 / substeps
        det_w, cond_w = np.inf, 1.0
        for _ in range(substeps):
            k1 = self.rhs(self.xi_mesh, self.phi, self.psi, dzj)
            k2 = self.rhs(self.xi_mesh + 0.5 * du * k1[0],
                          self.phi + 0.5 * du * k1[1],
                          self.psi + 0.5 * du * k1[2], dzj)
            k3 = self.rhs(self.xi_mesh + 0.5 * du * k2[0],
                          self.phi + 0.5 * du * k2[1],
                          self.psi + 0.5 * du * k2[2], dzj)
            k4 = self.rhs(self.xi_mesh + du * k3[0], self.phi + du * k3[1],
                          self.psi + du * k3[2], dzj)
            for attr, j in (("xi_mesh", 0), ("phi", 1), ("psi", 2)):
                new = getattr(self, attr) + (du / 6.0) * (
                    k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j])
                setattr(self, attr, new)
            det_w = min(det_w, k1[3], k2[3], k3[3], k4[3])
            cond_w = max(cond_w, k1[4], k2[4], k3[4], k4[4])
            self._check_finite()
        return det_w, cond_w

    def _check_finite(self):
        for arr in (self.xi_mesh, self.phi, self.psi):
            if not np.all(np.isfinite(arr)):
                raise IntegrationFailure("pointwise factor blow-up")

    def composition_residual(self):
        qc = self.chart.to_chart(self.psi)
        xi_at = interp_mesh(self.chart, self.xi_mesh, qc)
        return float(np.max(np.abs(xi_at - self.phi)))

    def invert_at_phi(self, geo):
        coords = invert_mesh_map(self.chart, self.xi_mesh, self.phi,
                                 tol=geo.newton_tol, maxiter=geo.newton_maxiter)
        return self.chart.to_cartesian(coords)


def decompose_pointwise(fields: VectorFieldSet, pair: ComplementaryPair,
                        driver: JumpPath, chart: MeshChart, probes,
                        cfg: MarcusConfig = None,
                        geo: GeometryConfig = DEFAULT_GEOMETRY,
                        snapshot_stride: int = 10) -> DecompositionRecord:
    """Mesh-based decomposition of a nonlinear 2-D jump-diffusion flow.

    The horizontal factor is advanced as a deformed mesh (its motion is
    the horizontal part of the driving fields read off at the current
    image), the full flow and the vertical factor at probe points.
    Snapshots every ``snapshot_stride`` accepted steps store the mesh, the
    probes and the Newton inverse psi = xi^{-1} o phi; the composition
    residual doubles as the factorization check.
    """
    cfg = cfg or MarcusConfig()
    if pair.horizontal.dimension != 2:
        raise ValueError("pointwise mode is implemented for 2-D states")
    state = _PointwiseState(fields, pair, chart, probes, geo)
    grid = driver.grid
    K = grid.shape[0]
    dzc = np.diff(driver.continuous_values, axis=0)
    jump_mask = driver.jump_mask
    jump_sizes = driver.jump_size_at_grid()

    times = [float(grid[0])]
    is_jump = [False]
    det_series = [np.nan]
    cond_series = [1.0]
    resid_series = [0.0]
    snap_times = [float(grid[0])]
    snap_mesh = [state.xi_mesh.copy()]
    snap_psi = [state.psi.copy()]
    snap_phi = [state.phi.copy()]
    snap_inv = [state.invert_at_phi(geo)]
    tau = driver.horizon
    reason = "horizon"

    det0, cond0 = None, None
    for k in range(K - 1):
        try:
            if np.any(dzc[k] != 0.0):
                det0, cond0 = state.heun_step(dzc[k])
            else:
                det0, cond0 = det_series[-1], cond_series[-1]
            jumped = bool(jump_mask[k + 1])
            if jumped:
                dj, cj = state.jump_step(jump_sizes[k + 1],
                                         cfg.ode.substeps)
                det0 = min(det0 if np.isfinite(det0) else dj, dj)
                cond0 = max(cond0, cj)
        except DegeneracyError:
            tau, reason = float(grid[k]), "split_degenerate"
            break
        except IntegrationFailure:
            tau, reason = float(grid[k]), "blowup"
            break
        times.append(float(grid[k + 1]))
        is_jump.append(jumped)
        det_series.append(det0)
        cond_series.append(cond0)
        resid_series.append(state.composition_residual())
        take_snap = ((k + 1) % snapshot_stride == 0 or jumped or k == K - 2)
        if take_snap:
            try:
                inv = state.invert_at_phi(geo)
            except MeshInversionError:
                tau, reason = float(grid[k + 1]), "mesh_inversion_failure"
                break
            snap_times.append(float(grid[k + 1]))
            snap_mesh.append(state.xi_mesh.copy())
            snap_psi.append(state.psi.copy())
            snap_phi.append(state.phi.copy())
            snap_inv.append(inv)

    det_arr = np.array(det_series)
    if det_arr.shape[0] > 1 and np.isnan(det_arr[0]):
        det_arr[0] = det_arr[1]
    return DecompositionRecord(
        mode="mesh",
        horizontal_dim=pair.horizontal.rank,
        times=np.array(times),
        is_jump=np.array(is_jump, dtype=bool),
        tau=tau,
        tau_reason=reason,
        degenerate_jump_target=False,
        det_block=det_arr,
        condition=np.array(cond_series),
        residual_sup=np.array(resid_series),
        renorm_deviation=np.zeros(len(times)),
        snapshot_times=np.array(snap_times),
        xi_mesh=np.array(snap_mesh),
        psi_probes=np.array(snap_psi),
        psi_probes_inverse=np.array(snap_inv),
        phi_probes=np.array(snap_phi),
        probes=state.probes.copy(),
        diagnostics={},
    )
