"""Vector-field sets and fixed-step flow maps.

The unit-time flow of a weighted field combination is the jump primitive of
the whole library: a jump of size dz is realized as the time-1 flow of
sum_i X_i * dz_i.  A classical fixed-step 4th-order Runge-Kutta stepper is
used throughout; linear field sets may take the exact Pade-13 ``expm``
instead (validated against the generic stepper in the tests).  One
stepper, ``_rk4``, and one flow, ``_flow``, serve both ``flow`` and
``flow_with_jacobian``; the Jacobian is computed only when asked for.
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
    """exp(A) of one square matrix by Pade-13 scaling and squaring."""
    # s = ceil(log2(|A|_1 / theta)), or 0 for inf/NaN: non-finite input or
    # overflow while squaring gives a non-finite result, never an exception
    s = max(0, int(np.frexp(np.linalg.norm(A, 1) / _THETA13)[1]))
    A = np.asarray(A, dtype=float) * 2.0 ** -s
    c = _PADE13
    I = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
             + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * I)
    V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
         + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * I)
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            E = E @ E
    return E


def _fd_jacobian(fn, x, eps_base: float = 1e-6):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    fx = np.asarray(fn(x), dtype=float)
    J = np.empty((fx.shape[0], n))
    for j in range(n):
        e = eps_base * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += e
        xm = x.copy(); xm[j] -= e
        J[:, j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * e)
    return J


class VectorFieldSet:
    """m vector fields on R^n with value and Jacobian access.

    Linear sets carry their matrices explicitly (``matrices`` is (m, n, n))
    which unlocks exact exponential jumps.  Nonlinear sets supply callables;
    with ``vectorized=True`` the callables must broadcast over leading axes
    ((..., n) -> (..., n) values, (..., n) -> (..., n, n) Jacobians), which
    the batched solvers exploit.  Missing Jacobians fall back to central
    finite differences.
    """

    def __init__(self, dimension, evals=None, jacobians=None, matrices=None,
                 vectorized=False):
        self.dimension = int(dimension)
        if matrices is not None:
            mats = np.asarray(matrices, dtype=float)
            if mats.ndim != 3 or mats.shape[1:] != (self.dimension, self.dimension):
                raise ValueError("matrices must be (m, n, n)")
            self.matrices = mats
            self.count = mats.shape[0]
            self._evals = None
            self._jacs = None
            self.vectorized = True
            return
        if not evals:
            raise ValueError("need either matrices or eval callables")
        self.matrices = None
        self._evals = list(evals)
        self.count = len(self._evals)
        if jacobians is None:
            self._jacs = [None] * self.count
        else:
            self._jacs = list(jacobians)
            if len(self._jacs) != self.count:
                raise ValueError("one jacobian per field (or None)")
        self.vectorized = bool(vectorized)

    @classmethod
    def linear(cls, matrices):
        return cls(dimension=np.asarray(matrices[0]).shape[0], matrices=matrices)

    @classmethod
    def from_callables(cls, dimension, evals, jacobians=None, vectorized=False):
        return cls(dimension=dimension, evals=evals, jacobians=jacobians,
                   vectorized=vectorized)

    @property
    def is_linear(self) -> bool:
        return self.matrices is not None

    def eval(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.is_linear:
            return self.matrices[i] @ x
        return np.asarray(self._evals[i](x), dtype=float)

    def jacobian(self, i: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.is_linear:
            return self.matrices[i]
        if self._jacs[i] is not None:
            return np.asarray(self._jacs[i](x), dtype=float)
        return _fd_jacobian(self._evals[i], x)

    # --- batched access; X has shape (..., n) ---

    def field_matrix(self, X) -> np.ndarray:
        """Columns X_i at each point: (..., n, m)."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            return np.einsum("mij,...j->...im", self.matrices, X)
        if self.vectorized:
            return np.stack([np.asarray(f(X), dtype=float) for f in self._evals],
                            axis=-1)
        flat = X.reshape(-1, self.dimension)
        out = np.stack([np.stack([self.eval(i, p) for i in range(self.count)],
                                 axis=-1) for p in flat])
        return out.reshape(X.shape[:-1] + (self.dimension, self.count))

    def jacobian_batch(self, i: int, X) -> np.ndarray:
        """Jacobian of field i at each point: (..., n, n)."""
        X = np.asarray(X, dtype=float)
        if self.is_linear:
            return np.broadcast_to(self.matrices[i], X.shape[:-1] + self.matrices[i].shape)
        if self.vectorized and self._jacs[i] is not None:
            return np.asarray(self._jacs[i](X), dtype=float)
        flat = X.reshape(-1, self.dimension)
        out = np.stack([self.jacobian(i, p) for p in flat])
        return out.reshape(X.shape[:-1] + (self.dimension, self.dimension))

    def combo_jacobian(self, X, weights) -> np.ndarray:
        """sum_i weights_i * DX_i at each point: (..., n, n)."""
        X = np.asarray(X, dtype=float)
        w = np.asarray(weights, dtype=float)
        if self.is_linear:
            A = np.einsum("m,mij->ij", w, self.matrices)
            return np.broadcast_to(A, X.shape[:-1] + A.shape)
        out = None
        for i in range(self.count):
            if w[i] == 0.0:
                continue
            term = w[i] * self.jacobian_batch(i, X)
            out = term if out is None else out + term
        if out is None:
            n = self.dimension
            return np.broadcast_to(np.zeros((n, n)), X.shape[:-1] + (n, n))
        return out


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step flow integration settings.

    ``substeps`` is the RK4 step count per unit of flow time; ``use_expm``
    enables the exact exponential fast path for linear field sets.
    """

    substeps: int = 64
    use_expm: bool = True

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def _combined(fields: VectorFieldSet, weights):
    w = np.asarray(weights, dtype=float)

    def W(X):
        return np.einsum("...im,m->...i", fields.field_matrix(X), w)

    return W


def _check_finite(X, u):
    if not np.all(np.isfinite(X)):
        raise IntegrationFailure(
            "flow integration blew up at flow time %g" % u, time=float(u))


def _rk4(fields, weights, X0, u, cfg, jacobian):
    """Fixed-step RK4 on states; with ``jacobian``, also the exact derivative
    of the discrete stepper (the variational stages reuse the state stages).
    Returns (X, J), J None without ``jacobian``."""
    W = _combined(fields, weights)
    w = np.asarray(weights, dtype=float)
    nsteps = max(1, int(np.ceil(abs(u) * cfg.substeps)))
    dt = u / nsteps
    X = np.asarray(X0, dtype=float).copy()
    n = fields.dimension
    J = (np.broadcast_to(np.eye(n), X.shape[:-1] + (n, n)).copy()
         if jacobian else None)
    for k in range(nsteps):
        k1 = W(X)
        x2 = X + 0.5 * dt * k1
        k2 = W(x2)
        x3 = X + 0.5 * dt * k2
        k3 = W(x3)
        x4 = X + dt * k3
        k4 = W(x4)
        if jacobian:
            K1 = fields.combo_jacobian(X, w) @ J
            K2 = fields.combo_jacobian(x2, w) @ (J + 0.5 * dt * K1)
            K3 = fields.combo_jacobian(x3, w) @ (J + 0.5 * dt * K2)
            K4 = fields.combo_jacobian(x4, w) @ (J + dt * K3)
            J = J + (dt / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
        X = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_finite(X, (k + 1) * dt)
    return X, J


def _flow(fields, weights, x0, u, cfg, jacobian):
    """(x, J) of the time-u flow; J is None without ``jacobian``."""
    x0 = np.asarray(x0, dtype=float)
    if fields.is_linear and cfg.use_expm:
        A = np.einsum("m,mij->ij", np.asarray(weights, dtype=float), fields.matrices)
        E = expm(u * A)
        x = np.einsum("ij,...j->...i", E, x0)
        if not jacobian:
            return x, None
        return x, np.broadcast_to(E, x0.shape[:-1] + E.shape).copy()
    return _rk4(fields, weights, x0, u, cfg, jacobian)


def flow(fields: VectorFieldSet, weights, x0, u: float, cfg: OdeConfig) -> np.ndarray:
    """Time-u flow of sum_i weights_i X_i from x0.

    Raises IntegrationFailure (with the failure time) if the state leaves the
    finite range.  Linear sets with use_expm take the exact exponential.
    """
    return _flow(fields, weights, x0, u, cfg, jacobian=False)[0]


def flow_with_jacobian(fields: VectorFieldSet, weights, x0, u: float,
                       cfg: OdeConfig):
    """Flow plus the Jacobian of the flow map with respect to x0.

    The Jacobian is the exact derivative of the discrete RK4 map (the
    variational stages reuse the state stages), so it matches finite
    differences of ``flow`` to the FD error, not just to O(step^4).
    """
    return _flow(fields, weights, x0, u, cfg, jacobian=True)


def curve_average(H, fields: VectorFieldSet, weights, x0, cfg: OdeConfig,
                  quad_nodes: int = 16) -> np.ndarray:
    """Average of H along the unit-time flow orbit from x0.

    Composite Simpson on [0, 1] with an even node count derived from
    ``quad_nodes``; the orbit is advanced by the same RK4 stepper between
    nodes (or by a cached exponential factor for linear sets), so quadrature
    nodes and integration substeps share the same grid.  H may return any array
    shape; the average is taken componentwise.
    """
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
    nint = quad_nodes + (quad_nodes % 2)
    x = np.asarray(x0, dtype=float)
    du = 1.0 / nint

    samples = [np.asarray(H(x), dtype=float)]
    if fields.is_linear and cfg.use_expm:
        A = np.einsum("m,mij->ij", np.asarray(weights, dtype=float), fields.matrices)
        P = expm(du * A)
        for _ in range(nint):
            x = P @ x
            samples.append(np.asarray(H(x), dtype=float))
    else:
        sub = OdeConfig(substeps=max(1, int(np.ceil(cfg.substeps * du))),
                        use_expm=cfg.use_expm)
        for _ in range(nint):
            x, _ = _rk4(fields, weights, x, du, sub, jacobian=False)
            samples.append(np.asarray(H(x), dtype=float))

    w = np.ones(nint + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= du / 3.0
    out = np.zeros_like(samples[0])
    for wk, s in zip(w, samples):
        out = out + wk * s
    return out
