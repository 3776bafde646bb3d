"""2-D mesh charts: finite-difference Jacobians, interpolation, inversion.

The pointwise decomposition mode discretizes a diffeomorphism as the image
of a structured mesh on one chart, a polar annulus: the radius (axis 0) is
bounded and the angle (axis 1) periodic.  Derivatives use 4th-order central
stencils along the angle and 2nd-order (one-sided at the edges) along the
radius; off-node evaluation uses separable Catmull-Rom interpolation with
linearly extrapolated radial ghost layers, whose analytic derivative also
drives Newton inversion of the mesh map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshInversionError


@dataclass(frozen=True, eq=False)
class MeshChart:
    """Polar annulus chart: node radii ``coords0`` and angles ``coords1``."""

    coords0: np.ndarray
    coords1: np.ndarray

    @classmethod
    def annulus(cls, radii, shape):
        r0, r1 = radii
        nr, nt = shape
        if r0 <= 0:
            raise ValueError("annulus must avoid the origin")
        return cls(coords0=np.linspace(r0, r1, nr),
                   coords1=np.arange(nt) * (2 * np.pi / nt))

    @property
    def shape(self):
        return (self.coords0.shape[0], self.coords1.shape[0])

    @property
    def spacing(self):
        return (float(self.coords0[1] - self.coords0[0]),
                2 * np.pi / self.coords1.shape[0])

    def chart_grid(self) -> np.ndarray:
        """(R, C, 2) chart coordinates of every node."""
        A, B = np.meshgrid(self.coords0, self.coords1, indexing="ij")
        return np.stack([A, B], axis=-1)

    def to_cartesian(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        r, th = coords[..., 0], coords[..., 1]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def to_chart(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        r = np.hypot(x, y)
        th = np.mod(np.arctan2(y, x), 2 * np.pi)
        return np.stack([r, th], axis=-1)

    def embedding_jacobian(self, coords) -> np.ndarray:
        """d(cartesian)/d(chart) at chart coords, (..., 2, 2)."""
        coords = np.asarray(coords, dtype=float)
        r, th = coords[..., 0], coords[..., 1]
        c, s = np.cos(th), np.sin(th)
        J = np.empty(coords.shape[:-1] + (2, 2))
        J[..., 0, 0] = c
        J[..., 0, 1] = -r * s
        J[..., 1, 0] = s
        J[..., 1, 1] = r * c
        return J

    def base_points(self) -> np.ndarray:
        return self.to_cartesian(self.chart_grid())

    @cached_property
    def node_inverse_jacobian(self) -> np.ndarray:
        """Read-only inv of the embedding Jacobians at the nodes, (R, C, 2, 2)."""
        inv = np.linalg.inv(self.embedding_jacobian(self.chart_grid()))
        inv.setflags(write=False)
        return inv


def _axis_derivative(values, axis, spacing, periodic):
    """First derivative of node values along one chart axis."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    h = spacing
    if periodic:
        out[:] = (-np.roll(v, -2, 0) + 8 * np.roll(v, -1, 0)
                  - 8 * np.roll(v, 1, 0) + np.roll(v, 2, 0)) / (12 * h)
    else:
        n = v.shape[0]
        if n < 3:
            raise ValueError("need at least 3 nodes per bounded axis")
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
        if n >= 5:
            out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def mesh_jacobian(chart: MeshChart, values) -> np.ndarray:
    """d(values)/d(cartesian base point) at every node, (R, C, 2, 2).

    Chain rule through the chart: stencil derivatives give d(values)/d(chart)
    and the analytic embedding Jacobian converts to Cartesian base coords.
    """
    d0, d1 = chart.spacing
    g0 = _axis_derivative(values, 0, d0, periodic=False)
    g1 = _axis_derivative(values, 1, d1, periodic=True)
    dv_dchart = np.stack([g0, g1], axis=-1)                     # (R,C,2,2)
    return dv_dchart @ chart.node_inverse_jacobian


def _pad_axis(values, axis, periodic):
    v = np.moveaxis(values, axis, 0)
    if periodic:
        out = np.concatenate([v[-2:], v, v[:2]], axis=0)
    else:
        lo1 = 2 * v[0] - v[1]
        lo2 = 2 * v[0] - v[2]
        hi1 = 2 * v[-1] - v[-2]
        hi2 = 2 * v[-1] - v[-3]
        out = np.concatenate([lo2[None], lo1[None], v, hi1[None], hi2[None]],
                             axis=0)
    return np.moveaxis(out, 0, axis)


def _cr_weights(f):
    """Catmull-Rom tap weights and their derivatives at fractions f.  Past
    [0, 1] (beyond a radial end cell) both continue along the end tangent
    at c = f clipped to [0, 1]: w(c) + (f - c) w'(c) and w'(c)."""
    f = np.asarray(f, dtype=float)
    c = np.minimum(np.maximum(f, 0.0), 1.0)
    c2 = c * c
    c3 = c2 * c
    w = np.stack([-0.5 * c + c2 - 0.5 * c3,
                  1.0 - 2.5 * c2 + 1.5 * c3,
                  0.5 * c + 2.0 * c2 - 1.5 * c3,
                  -0.5 * c2 + 0.5 * c3], axis=-1)
    dw = np.stack([-0.5 + 2.0 * c - 1.5 * c2,
                   -5.0 * c + 4.5 * c2,
                   0.5 + 4.0 * c - 4.5 * c2,
                   -c + 1.5 * c2], axis=-1)
    return w + (f - c)[..., None] * dw, dw


def _taps(u, n, periodic):
    """Indices of the four Catmull-Rom taps of positions ``u`` (in node
    spacings from the first node) into an axis of ``n`` nodes padded by two
    on each side, and their fractions.  The angle wraps; the radius keeps
    its end cells, extrapolating past them.  A non-finite ``u`` gets
    valid indices and fraction NaN."""
    finite = np.isfinite(u)
    u = np.where(finite, u, 0.0)
    if periodic:
        u = np.mod(u, n)
    i = np.floor(u)
    if not periodic:
        i = np.clip(i, -1, n - 1)
    idx = i.astype(int)[:, None] + np.arange(1, 5)
    if periodic:
        idx = np.mod(idx - 2, n) + 2
    return idx, np.where(finite, u - i, np.nan)


def interp_mesh(chart: MeshChart, values, queries, derivative: bool = False):
    """Catmull-Rom interpolation of node values at chart-coordinate queries.

    ``values`` is (R, C, ...) node data, ``queries`` (Q, 2) chart coords.
    Returns (Q, ...) samples, plus d(sample)/d(chart) of shape (Q, ..., 2)
    when ``derivative`` is set.  The radius extrapolates linearly through
    ghost layers; the angle wraps.  A non-finite query gives NaN.
    """
    values = np.asarray(values, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d0, d1 = chart.spacing
    padded = _pad_axis(_pad_axis(values, 0, periodic=False), 1, periodic=True)
    idx0, f0 = _taps((queries[:, 0] - chart.coords0[0]) / d0, chart.shape[0],
                     periodic=False)
    idx1, f1 = _taps((queries[:, 1] - chart.coords1[0]) / d1, chart.shape[1],
                     periodic=True)
    w0, dw0 = _cr_weights(f0)
    w1, dw1 = _cr_weights(f1)
    block = padded[idx0[:, :, None], idx1[:, None, :]]  # (Q,4,4,...)

    part = np.einsum("qab...,qa->qb...", block, w0)
    out = np.einsum("qb...,qb->q...", part, w1)
    if not derivative:
        return out
    part_d0 = np.einsum("qab...,qa->qb...", block, dw0)
    dout0 = np.einsum("qb...,qb->q...", part_d0, w1) / d0
    dout1 = np.einsum("qb...,qb->q...", part, dw1) / d1
    grad = np.stack([dout0, dout1], axis=-1)
    return out, grad


def invert_mesh_map(chart: MeshChart, values, targets):
    """Solve mesh_map(p) = target for the base chart coordinates p.

    ``values`` holds the mapped node positions ((R, C, 2) Cartesian).  Each
    query seeds at the nearest node's chart coordinates and runs Newton on
    the interpolant, at most 50 steps to a residual of 1e-10.  Returns
    (Q, 2) chart coordinates; raises ``MeshInversionError`` when any query
    fails to converge.
    """
    values = np.asarray(values, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    flat = values.reshape(-1, 2)
    grid = chart.chart_grid().reshape(-1, 2)
    with np.errstate(over="ignore"):  # a far node is as good as inf
        d2 = ((flat[None, :, :] - targets[:, None, :]) ** 2).sum(axis=2)
    seeds = grid[np.argmin(d2, axis=1)]

    coords = seeds.copy()
    lo0 = chart.coords0[0] - 0.75 * chart.spacing[0]
    hi0 = chart.coords0[-1] + 0.75 * chart.spacing[0]
    active = np.ones(targets.shape[0], dtype=bool)
    for _ in range(50):
        pos, grad = interp_mesh(chart, values, coords, derivative=True)
        resid = targets - pos
        err = np.max(np.abs(resid), axis=1)
        active = err > 1e-10
        if not np.any(active):
            return coords
        step = np.linalg.solve(grad[active], resid[active][..., None])[..., 0]
        coords[active] += step
        coords[:, 0] = np.clip(coords[:, 0], lo0, hi0)
        coords[:, 1] = np.mod(coords[:, 1], 2 * np.pi)
        if not np.all(np.isfinite(coords)):
            break
    raise MeshInversionError("mesh inversion did not converge (worst "
                             "residual %g)" % float(err.max()))
