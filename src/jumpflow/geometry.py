"""Pointwise distributions, the transversal-frame split, and field splitting.

A distribution is a smoothly varying subspace given by a basis map; a
complementary pair carries a horizontal and a vertical one whose direct sum
is the whole tangent space.  ``split_frame`` is the one transversal split:
it rejects a frame S = [B_H | B_V] whose scaled determinant
|det S| / prod_j |S e_j| is at most ``eps_det``, or whose 2-norm condition
number is at least ``cond_cap``, with ``DegeneracyError``, so flow-level
callers can turn it into a validity horizon instead of silently producing
garbage.
Diffeomorphisms enter as ``DiffeoProbe`` handles: a Jacobian and an inverse
map (identity, linear or custom); the module integrates no flows itself.

Subspace comparisons always go through orthogonal projectors, never raw
basis arrays, because a basis is only determined up to column mixing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError


@dataclass(frozen=True)
class GeometryConfig:
    """Degeneracy thresholds shared by every split-based operation.

    A frame S degenerates when |det S| / prod_j |S e_j| <= ``eps_det`` or its
    2-norm condition number >= ``cond_cap``; a monitored Jacobian block
    (``det_block``, ``validity_monitor``) when its raw |det| <= ``eps_det``.
    """

    eps_det: float = 1e-12
    cond_cap: float = 1e8


DEFAULT_GEOMETRY = GeometryConfig()


class Distribution:
    """Rank-k subbundle of R^n given by a full-column-rank basis map, which
    broadcasts over leading axes ((..., n) -> (..., n, k))."""

    def __init__(self, dimension, rank, basis_fn):
        self.dimension = int(dimension)
        self.rank = int(rank)
        if not (1 <= self.rank <= self.dimension):
            raise ValueError("rank must be between 1 and the dimension")
        self._basis_fn = basis_fn

    @classmethod
    def constant(cls, basis):
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2:
            raise ValueError("constant basis must be an (n, k) array")
        return cls(B.shape[0], B.shape[1],
                   lambda x, _B=B: np.broadcast_to(_B, np.shape(x)[:-1] + _B.shape))

    def basis(self, x) -> np.ndarray:
        """(..., n, k) basis at each point of x (..., n); the columns span
        the fiber."""
        B = np.asarray(self._basis_fn(np.asarray(x, dtype=float)), dtype=float)
        if B.shape[-2:] != (self.dimension, self.rank):
            raise ValueError("basis map returned the wrong shape")
        return B


@dataclass(frozen=True)
class ComplementaryPair:
    """Horizontal and vertical distributions meant to sum to the whole space."""

    horizontal: Distribution
    vertical: Distribution

    def __post_init__(self):
        if self.horizontal.dimension != self.vertical.dimension:
            raise ValueError("pair lives on different spaces")
        if self.horizontal.rank + self.vertical.rank != self.horizontal.dimension:
            raise ValueError("ranks must sum to the dimension")


class DiffeoProbe:
    """A diffeomorphism handle: its Jacobian and inverse maps, which
    broadcast over leading axes ((..., n) -> (..., n, n) and (..., n)).
    The `identity` and `linear` maps return fresh, writable arrays."""

    def __init__(self, jacobian, inverse):
        self.jacobian = jacobian
        self.inverse = inverse

    @classmethod
    def identity(cls, dimension):
        eye = np.eye(dimension)
        return cls(jacobian=lambda x: np.array(np.broadcast_to(
                       eye, np.shape(x)[:-1] + eye.shape)),
                   inverse=lambda y: np.array(y, dtype=float))

    @classmethod
    def linear(cls, matrix):
        M = np.asarray(matrix, dtype=float)
        return cls(jacobian=lambda x: np.array(np.broadcast_to(
                       M, np.shape(x)[:-1] + M.shape)),
                   inverse=lambda y: np.linalg.solve(
                       M, np.asarray(y, dtype=float)[..., None])[..., 0])


def subspace_projector(basis) -> np.ndarray:
    """Orthogonal projector onto the column span of ``basis``."""
    B = np.asarray(basis, dtype=float)
    return B @ np.linalg.solve(B.T @ B, B.T)


def adjoint_distribution(probe: DiffeoProbe, delta: Distribution) -> Distribution:
    """Pushforward of a distribution by a diffeomorphism.

    The fiber at x is D_probe(probe^{-1}(x)) applied to the original fiber at
    probe^{-1}(x); rank is preserved because the Jacobian is invertible.
    """

    def basis_fn(x):
        p = probe.inverse(x)
        return np.asarray(probe.jacobian(p), dtype=float) @ delta.basis(p)

    return Distribution(delta.dimension, delta.rank, basis_fn)


def split_frame(S, rhs, geo: GeometryConfig = DEFAULT_GEOMETRY):
    """Coefficients of ``rhs`` (..., n) in the frames S (..., n, n).

    Returns (coeff, det, cond) with the smallest scaled determinant and the
    largest condition number over the stack.  Raises ``DegeneracyError`` for
    a non-finite frame or by ``GeometryConfig``'s rule, ValueError when S is
    not square.  2x2 frames use closed forms, larger ones an LU solve with
    one refinement pass.  Each frame of a stack splits as it would alone.
    """
    S, rhs = np.asarray(S, dtype=float), np.asarray(rhs, dtype=float)
    if rhs.ndim == 0 or S.shape[-2:] != (rhs.shape[-1],) * 2:
        raise ValueError("frames must be square and match rhs")
    closed = S.shape[-1] == 2
    with np.errstate(all="ignore"):
        if closed:
            det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
            colnorm = (np.linalg.norm(S[..., :, 0], axis=-1)
                       * np.linalg.norm(S[..., :, 1], axis=-1))
            fro2 = np.sum(S * S, axis=(-2, -1))
            disc = np.sqrt(np.maximum(fro2 * fro2 - 4 * det * det, 0.0))
            # sig_hi / sig_lo = sig_hi^2 / |det|: sig_lo^2 = (fro2 - disc) / 2
            # would cancel
            cond = (fro2 + disc) / (2 * np.abs(det))
        elif np.isfinite(S).all():
            det = np.linalg.det(S)
            colnorm = np.prod(np.linalg.norm(S, axis=-2), axis=-1)
            cond = np.linalg.cond(S)
        else:
            det = colnorm = cond = np.full(S.shape[:-2], np.nan)
        scaled = np.abs(det) / np.maximum(colnorm, 1e-300)
        worst_det, worst_cond = float(np.min(scaled)), float(np.max(cond))
        if not (np.isfinite(det).all() and worst_det > geo.eps_det
                and worst_cond < geo.cond_cap):
            raise DegeneracyError("transversal frame degenerated")
        if closed:
            inv_det = 1.0 / det
            c0 = (S[..., 1, 1] * rhs[..., 0] - S[..., 0, 1] * rhs[..., 1]) * inv_det
            c1 = (S[..., 0, 0] * rhs[..., 1] - S[..., 1, 0] * rhs[..., 0]) * inv_det
            coeff = np.stack([c0, c1], axis=-1)
        else:
            b = rhs[..., None]
            c = np.linalg.solve(S, b)
            coeff = (c + np.linalg.solve(S, b - S @ c))[..., 0]
    return coeff, worst_det, worst_cond


def split_field(value, horizontal: Distribution, adjoint_vertical: Distribution,
                x, geo: GeometryConfig = DEFAULT_GEOMETRY):
    """Split a tangent vector at x against the pair of fibers there.

    Returns (h_part, v_part) with h_part in the horizontal fiber, v_part in
    the (adjoint-transported) vertical fiber, and h_part + v_part
    reconstructing the input to solver precision.
    """
    BH, BV = horizontal.basis(x), adjoint_vertical.basis(x)
    c, _, _ = split_frame(np.concatenate([BH, BV], axis=1), value, geo)
    return BH @ c[:horizontal.rank], BV @ c[horizontal.rank:]
