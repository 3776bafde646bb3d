"""Vector-field sets and fixed-step flow maps.

A field set is m matrices for linear fields, else one callable H that maps
points (..., n) to the field matrix [X_1 .. X_m] (..., n, m), with its
derivative dH (..., n, m, n): the rule of a ``marcus_integral`` integrand.
The unit-time flow of a weighted field combination is the jump primitive of
the whole library: a jump of size dz is realized as the time-1 flow of
sum_i X_i * dz_i.  The field set alone picks how ``flow`` and
``flow_with_jacobian`` (one ``_flow``; the Jacobian is computed only when
asked for) take it: a linear set by the exact Pade-13 ``expm`` (validated
against the generic stepper in the tests), any other set by one
fixed-step classical RK4 over a tuple of arrays, ``_rk4``, at
``MarcusConfig.substeps`` steps per unit of flow time; ``curve_average``
takes one Simpson interval per substep (an even count, rounded up).
``decompose`` steps its factor equations by ``_heun``, one Heun step, and
carries them across a jump by ``_rk4``, over one right-hand side per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm

import numpy as np

from .errors import IntegrationFailure

# Pade-13 coefficients 13! (26-k)! / (26! k! (13-k)!) and the 1-norm up to
# which r_13 has double accuracy (Higham, SIAM J. Matrix Anal. Appl. 2005)
_PADE13 = [comb(13, k) / perm(26, k) for k in range(14)]
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """exp(A) of a square matrix or a stack (..., n, n) of them by Pade-13
    scaling and squaring, each matrix with its own exponent s: a mask picks
    the ones still squaring, so each gets the bits it would get alone."""
    A = np.asarray(A, dtype=float)
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    # s = ceil(log2(|A|_1 / theta)), or 0 for inf/NaN: non-finite input or
    # overflow while squaring gives a non-finite result, never an exception
    s = np.maximum(0, np.frexp(np.linalg.norm(A, 1, axis=(-2, -1))
                               / _THETA13)[1])
    A = A * 2.0 ** -s[:, None, None]
    c = _PADE13
    I = np.eye(shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
                 + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * I)
        V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
             + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * I)
        E = np.linalg.solve(V - U, V + U)
        for i in range(s.max(initial=0)):
            sq = s > i
            E[sq] = E[sq] @ E[sq]
    return E.reshape(shape)


def _fd_jacobian(fn, X):
    """Central-difference Jacobian of ``fn`` at each point of X (..., n):
    the value shape of ``fn`` there plus a trailing n."""
    X = np.asarray(X, dtype=float)
    cols = []
    for j in range(X.shape[-1]):
        e = 1e-6 * (1.0 + np.abs(X[..., j]))
        step = np.zeros_like(X)
        step[..., j] = e
        diff = np.subtract(fn(X + step), fn(X - step))
        cols.append(diff / (2 * e.reshape(e.shape + (1,) * (diff.ndim - e.ndim))))
    return np.stack(cols, axis=-1)


class VectorFieldSet:
    """m vector fields on R^n as one field-matrix map with its derivative.

    Linear sets carry their matrices explicitly (``matrices`` is (m, n, n))
    which unlocks exact exponential jumps.  A nonlinear set is one callable
    ``H`` that broadcasts over leading axes, points (..., n) to the field
    matrix [X_1 .. X_m] (..., n, m), and ``dH``, points to its derivative
    (..., n, m, n), else taken by central differences: the rule of a
    ``marcus_integral`` integrand.  A value of any other shape raises
    ValueError.
    """

    def __init__(self, dimension, count=None, H=None, dH=None, matrices=None):
        self.dimension = int(dimension)
        self.matrices = None
        if matrices is not None:
            mats = np.asarray(matrices, dtype=float)
            if mats.ndim != 3 or mats.shape[1:] != (self.dimension, self.dimension):
                raise ValueError("matrices must be (m, n, n)")
            self.matrices = mats
            count = mats.shape[0]
        elif H is None:
            raise ValueError("need either matrices or a field-matrix callable")
        self.count = int(count)
        self.H, self.dH = H, dH

    @classmethod
    def linear(cls, matrices):
        return cls(dimension=np.asarray(matrices[0]).shape[0], matrices=matrices)

    @classmethod
    def from_callable(cls, dimension, count, H, dH=None):
        return cls(dimension=dimension, count=count, H=H, dH=dH)

    @property
    def is_linear(self) -> bool:
        return self.matrices is not None

    # --- batched access; X has shape (..., n) ---

    def field_matrix(self, X) -> np.ndarray:
        """Columns X_i at each point: (..., n, m)."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            return np.einsum("mij,...j->...im", self.matrices, X)
        val = np.asarray(self.H(X), dtype=float)
        if val.shape != X.shape + (self.count,):
            raise ValueError("field matrix: shape %s, not %s (..., n, m)"
                             % (val.shape, X.shape + (self.count,)))
        return val

    def field_jacobian(self, X) -> np.ndarray:
        """Derivative of the field matrix at each point: (..., n, m, n), the
        Jacobian of X_i at [..., i, :]."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            D = self.matrices.transpose(1, 0, 2)
            return np.broadcast_to(D, X.shape[:-1] + D.shape)
        if self.dH is not None:
            return np.asarray(self.dH(X), dtype=float)
        return _fd_jacobian(self.H, X)

    def combo_jacobian(self, X, weights) -> np.ndarray:
        """sum_i weights_i * DX_i at each point: (..., n, n); a field of
        weight 0 adds nothing, not even a non-finite Jacobian."""
        X = np.asarray(X, dtype=float)
        w = np.asarray(weights, dtype=float)
        if self.is_linear:
            A = np.einsum("m,mij->ij", w, self.matrices)
            return np.broadcast_to(A, X.shape[:-1] + A.shape)
        out = D = None
        for i in range(self.count):
            if w[i] == 0.0:
                continue
            if D is None:
                D = self.field_jacobian(X)
            term = w[i] * D[..., i, :]
            out = term if out is None else out + term
        return np.zeros(X.shape + (self.dimension,)) if out is None else out


@dataclass(frozen=True)
class MarcusConfig:
    """Solver settings: ``substeps`` is the RK4 step count per unit of flow
    time, for every flow that a linear set does not take exactly."""

    substeps: int = 64

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def _combined(fields: VectorFieldSet, weights):
    w = np.asarray(weights, dtype=float)

    def W(X):
        return np.einsum("...im,...m->...i", fields.field_matrix(X), w)

    return W


def _heun(rhs, state):
    """One Heun (explicit trapezoid) step over a sequence of arrays.

    ``rhs`` maps such a sequence to the sequence of their increments over
    the step, so the step size is in it: k0 = rhs(s), k1 = rhs(s + k0),
    and the result is the list s + (k0 + k1) / 2.
    """
    k0 = rhs(state)
    k1 = rhs([s + d for s, d in zip(state, k0)])
    return [s + 0.5 * (a + b) for s, a, b in zip(state, k0, k1)]


def _rk4(rhs, state, u, nsteps, strict=True):
    """Classical RK4 over flow time [0, u] in ``nsteps`` equal steps.

    ``state`` is a sequence of arrays and ``rhs`` maps such a sequence to
    the sequence of their derivatives; the result is a tuple.  Raises
    IntegrationFailure with the flow time as soon as any component stops
    being finite; without ``strict`` it never raises, and a component that
    stops being finite stays so for the caller to find.
    """
    dt = u / nsteps
    for k in range(nsteps):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * dt * d for s, d in zip(state, k1)])
        k3 = rhs([s + 0.5 * dt * d for s, d in zip(state, k2)])
        k4 = rhs([s + dt * d for s, d in zip(state, k3)])
        state = [s + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        for s in state:
            if strict and not np.isfinite(s).all():
                u_fail = (k + 1) * dt
                raise IntegrationFailure(
                    "flow integration blew up at flow time %g" % u_fail,
                    time=float(u_fail))
    return tuple(state)


def _flow(fields, weights, x0, u, cfg, jacobian):
    """(x, J) of the time-u flow; J is None without ``jacobian``.

    ``weights`` is (m,) for every point of x0, or (B, m), one per row of a
    (B, n) x0 and not with ``jacobian``: one stacked ``expm``, or one RK4
    whose rows that blow up come back non-finite, failing alone.  RK4
    carries J through the variational equation dJ = DW(X) J, whose stages
    reuse the state stages, so J is the exact derivative of the discrete
    map."""
    x0 = np.asarray(x0, dtype=float)
    w = np.asarray(weights, dtype=float)
    if fields.is_linear:
        E = expm(u * np.einsum("...m,mij->...ij", w, fields.matrices))
        x = np.einsum("...ij,...j->...i", E, x0)
        if not jacobian:
            return x, None
        return x, np.broadcast_to(E, x0.shape[:-1] + E.shape).copy()
    W = _combined(fields, w)
    nsteps = max(1, int(np.ceil(abs(u) * cfg.substeps)))
    if not jacobian:
        return _rk4(lambda s: (W(s[0]),), (x0,), u, nsteps,
                    strict=w.ndim == 1)[0], None
    n = fields.dimension
    J0 = np.broadcast_to(np.eye(n), x0.shape[:-1] + (n, n))
    return _rk4(lambda s: (W(s[0]), fields.combo_jacobian(s[0], w) @ s[1]),
                (x0, J0), u, nsteps)


def flow(fields: VectorFieldSet, weights, x0, u: float,
         cfg: MarcusConfig) -> np.ndarray:
    """Time-u flow of sum_i weights_i X_i from x0.

    Raises IntegrationFailure (with the failure time) if the state leaves the
    finite range.  A linear set takes the exact exponential.
    """
    return _flow(fields, weights, x0, u, cfg, jacobian=False)[0]


def flow_with_jacobian(fields: VectorFieldSet, weights, x0, u: float,
                       cfg: MarcusConfig):
    """Flow plus the Jacobian of the flow map with respect to x0.

    The Jacobian is the exact derivative of the discrete RK4 map (the
    variational stages reuse the state stages), so it matches finite
    differences of ``flow`` to the FD error, not just to O(step^4).
    """
    return _flow(fields, weights, x0, u, cfg, jacobian=True)


def curve_average(H, fields: VectorFieldSet, weights, x0,
                  cfg: MarcusConfig) -> np.ndarray:
    """Average of H along the unit-time flow orbit from x0.

    Composite Simpson on [0, 1] over ``cfg.substeps`` intervals, rounded up
    to an even count; the orbit is advanced between nodes by ``flow``, for
    a nonlinear set by one RK4 step per interval, so quadrature nodes and
    integration substeps share one grid.  H may return any array shape;
    the average is taken componentwise.
    """
    nint = cfg.substeps + cfg.substeps % 2
    x = np.asarray(x0, dtype=float)
    du = 1.0 / nint

    samples = [np.asarray(H(x), dtype=float)]
    for _ in range(nint):
        x = flow(fields, weights, x, du, cfg)
        samples.append(np.asarray(H(x), dtype=float))

    w = np.ones(nint + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= du / 3.0
    out = np.zeros_like(samples[0])
    for wk, s in zip(w, samples):
        out = out + wk * s
    return out
