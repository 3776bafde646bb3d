"""Closed-form oracles used to cross-check the numerical machinery.

Everything in this module is deliberately self-contained: no imports from the
solver modules, so an oracle can never inherit a bug from the code it is
meant to check.  Each oracle returns plain arrays (or callables).
"""

from __future__ import annotations

import itertools

import numpy as np


def matrix_exp(A, t: float = 1.0) -> np.ndarray:
    """exp(t*A), an (n, n) array, by Taylor series with scaling and squaring.

    The argument is scaled by a power of two until its 1-norm is below 1/4,
    the series is summed until terms fall under 1e-18 relative, and the
    result is repeatedly squared.  Accurate to ~1e-12 relative for matrices
    of desk scale (norm up to a few hundred).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix_exp expects a square matrix")
    M = A * float(t)
    n = M.shape[0]
    norm = np.linalg.norm(M, 1)
    nsq = 0
    if norm > 0.25:
        nsq = int(np.ceil(np.log2(norm / 0.25)))
        M = M / (2.0 ** nsq)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ M / k
        E = E + term
        if np.linalg.norm(term, 1) < 1e-18 * max(1.0, np.linalg.norm(E, 1)):
            break
    for _ in range(nsq):
        E = E @ E
    return E


def rotation_decomposition(z: float, eps_det: float = 1e-12):
    """Factor the plane rotation by angle z into shear-like and vertical parts.

    Returns (xi, psi) with xi = [[sec z, -tan z], [0, 1]] acting along the
    first coordinate and psi = [[1, 0], [sin z, cos z]] acting along the
    second, so that xi @ psi is the rotation matrix.  Returns None when
    cos z is within ``eps_det`` of zero, where no such factorization exists.
    """
    c = float(np.cos(z))
    s = float(np.sin(z))
    if abs(c) <= eps_det:
        return None
    xi = np.array([[1.0 / c, -s / c], [0.0, 1.0]])
    psi = np.array([[1.0, 0.0], [s, c]])
    return xi, psi


def radial_decomposition(mat, probes, tol: float = 1e-12):
    """Split x -> M x into a radial stretch followed by a sphere map.

    psi(x) = |Mx| * x/|x| moves along the ray through x; xi(y) rescales the
    direction image, xi(y) = |y| * M(y/|y|)/|M(y/|y|)|.  Before returning,
    the composition xi(psi(x)) = Mx is asserted on every probe to ``tol``
    (relative to |Mx|); a failure raises rather than handing back a broken
    oracle.  M must be invertible and probes must avoid the origin.
    """
    M = np.asarray(mat, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("radial_decomposition expects a square matrix")
    if abs(np.linalg.det(M)) == 0.0:
        raise ValueError("matrix must be invertible")

    def psi(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        if r == 0.0:
            raise ValueError("radial map undefined at the origin")
        return (np.linalg.norm(M @ x) / r) * x

    def xi(y):
        y = np.asarray(y, dtype=float)
        r = np.linalg.norm(y)
        if r == 0.0:
            raise ValueError("sphere map undefined at the origin")
        img = M @ (y / r)
        return r * img / np.linalg.norm(img)

    for p in np.atleast_2d(np.asarray(probes, dtype=float)):
        want = M @ p
        got = xi(psi(p))
        if np.max(np.abs(got - want)) > tol * max(1.0, np.linalg.norm(want)):
            raise ValueError(
                "radial decomposition self-check failed at probe %s" % p)
    return psi, xi


def linear_marcus_mean(matrices, x0, times, drift=0.0, brownian_scale=0.0,
                       jump_intensity=0.0,
                       jump_law=("constant", 0.0)) -> np.ndarray:
    """Mean E[X_t] of the linear Marcus SDE dX = sum_i A_i X o dZ_i.

    Z_i = b_i t + s_i W_i + a compound Poisson sum (intensity lam, jump law
    nu), with independent standard Brownian motions W_i.  The mean solves
    dm/dt = G m with G = sum_i b_i A_i + 1/2 sum_i s_i^2 A_i^2
    + lam (E_nu[exp(sum_i A_i J_i)] - I), the last term being the Marcus jump
    rule, so m_t = exp(t G) x0 at each of ``times`` (rows of the result).

    ``jump_law`` is ("constant", value), ("uniform", low, high) or
    ("gaussian", mean, std), each per channel with independent channels.
    E_nu is a tensor Gauss-Legendre (uniform) or Gauss-Hermite (gaussian)
    rule of 16 nodes per channel; a channel of zero width is a point mass,
    one node of weight 1, exactly as the constant law.
    """
    A = np.asarray(matrices, dtype=float)
    m, n = A.shape[0], A.shape[1]
    kind, *params = jump_law
    params = [np.broadcast_to(np.asarray(p, dtype=float), (m,))
              for p in params]
    if kind == "constant":
        center, scale = params[0], np.zeros(m)
    elif kind == "uniform":
        center = 0.5 * (params[0] + params[1])
        scale = 0.5 * (params[1] - params[0])
        x, w = np.polynomial.legendre.leggauss(16)
        w = 0.5 * w
    elif kind == "gaussian":
        center, scale = params
        x, w = np.polynomial.hermite_e.hermegauss(16)
        w = w / np.sqrt(2.0 * np.pi)
    else:
        raise ValueError("unknown jump law kind %r" % kind)
    # (node, weight) pairs per channel; E_nu sums over their tensor product
    rules = [[(c, 1.0)] if h == 0.0 else list(zip(c + h * x, w))
             for c, h in zip(center, scale)]
    E_jump = np.zeros((n, n))
    for combo in itertools.product(*rules):
        J, weight = zip(*combo)
        E_jump = E_jump + np.prod(weight) * matrix_exp(
            np.einsum("i,ijk->jk", np.array(J), A))
    b = np.broadcast_to(np.asarray(drift, dtype=float), (m,))
    s2 = np.broadcast_to(np.asarray(brownian_scale, dtype=float), (m,)) ** 2
    G = (np.einsum("i,ijk->jk", b, A) + 0.5 * np.einsum("i,ijk->jk", s2, A @ A)
         + float(jump_intensity) * (E_jump - np.eye(n)))
    x0 = np.asarray(x0, dtype=float)
    return np.array([matrix_exp(G, float(t)) @ x0 for t in times])


def _commuting_exp(D, z):
    """exp(z_1 D + z_2 D^2) at each row of z (K, 2)."""
    D = np.asarray(D, dtype=float)
    return np.array([matrix_exp(z1 * D + z2 * (D @ D)) for z1, z2 in z])


def composite_orbit_linear(B, D, z, x0):
    """(F, Dpsi) along the composite orbit F = psi(q) at each row of
    z = Z_t - Z_0 (K, 2), for outer fields (B x, B^2 x) and inner fields
    (D x, D^2 x).  Each set commutes, so on any path, jumps included,
    psi_t = Dpsi_t = exp(z_1 B + z_2 B^2) and q_t = exp(z_1 D + z_2 D^2) x0,
    though [B, D] != 0."""
    Dpsi = _commuting_exp(B, z)
    return np.einsum("kab,kbc,c->ka", Dpsi, _commuting_exp(D, z), x0), Dpsi


def composite_orbit_shear(c, D, z, x0):
    """The same for the outer shear X_1(x) = (1 + x_2^2, 0), X_2(x) = (c, 0)
    on R^2, whose fields commute: psi_t(x) = (x_1 + z_1 (1 + x_2^2) + c z_2,
    x_2) and Dpsi_t(x) = [[1, 2 z_1 x_2], [0, 1]], so D^2 psi != 0."""
    z = np.asarray(z, dtype=float)
    q = _commuting_exp(D, z) @ x0
    F = np.stack([q[:, 0] + z[:, 0] * (1.0 + q[:, 1] ** 2) + c * z[:, 1],
                  q[:, 1]], axis=1)
    Dpsi = np.tile(np.eye(2), (len(z), 1, 1))
    Dpsi[:, 0, 1] = 2.0 * z[:, 0] * q[:, 1]
    return F, Dpsi
