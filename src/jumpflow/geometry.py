"""Pointwise distributions, transversality checks, and field splitting.

A distribution is a smoothly varying subspace given by a basis map; a
complementary pair carries a horizontal and a vertical one whose direct sum
is the whole tangent space.  Splitting a vector against such a pair is a
stacked linear solve with one refinement pass; near-degenerate frames raise
``DegeneracyError`` so flow-level callers can turn them into a validity
horizon instead of silently producing garbage.

Subspace comparisons always go through orthogonal projectors, never raw
basis arrays, because a basis is only determined up to column mixing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError
from .marcus import MarcusConfig, solve_point, solve_with_jacobian
from .semimartingale import JumpPath


@dataclass(frozen=True)
class GeometryConfig:
    """Degeneracy thresholds shared by every split-based operation."""

    eps_det: float = 1e-12
    cond_cap: float = 1e8
    newton_tol: float = 1e-10
    newton_maxiter: int = 50


DEFAULT_GEOMETRY = GeometryConfig()


class Distribution:
    """Rank-k subbundle of R^n given by a full-column-rank basis map."""

    def __init__(self, dimension, rank, basis_fn, vectorized=False):
        self.dimension = int(dimension)
        self.rank = int(rank)
        if not (1 <= self.rank <= self.dimension):
            raise ValueError("rank must be between 1 and the dimension")
        self._basis_fn = basis_fn
        self.vectorized = bool(vectorized)

    @classmethod
    def constant(cls, basis):
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2:
            raise ValueError("constant basis must be an (n, k) array")
        return cls(B.shape[0], B.shape[1],
                   lambda x, _B=B: np.broadcast_to(_B, np.shape(x)[:-1] + _B.shape),
                   vectorized=True)

    def basis(self, x) -> np.ndarray:
        """(n, k) basis at a single point (columns span the fiber)."""
        B = np.asarray(self._basis_fn(np.asarray(x, dtype=float)), dtype=float)
        if B.shape[-2:] != (self.dimension, self.rank):
            raise ValueError("basis map returned the wrong shape")
        return B

    def basis_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.vectorized:
            return self.basis(X)
        flat = X.reshape(-1, self.dimension)
        out = np.stack([self.basis(p) for p in flat])
        return out.reshape(X.shape[:-1] + (self.dimension, self.rank))


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
    """A diffeomorphism handle: forward map, Jacobian, Newton inverse."""

    def __init__(self, forward, jacobian, inverse, provenance="custom"):
        self.forward = forward
        self.jacobian = jacobian
        self.inverse = inverse
        self.provenance = provenance

    @classmethod
    def identity(cls, dimension):
        eye = np.eye(dimension)
        return cls(forward=lambda x: np.asarray(x, dtype=float).copy(),
                   jacobian=lambda x: eye.copy(),
                   inverse=lambda y: np.asarray(y, dtype=float).copy(),
                   provenance="identity")

    @classmethod
    def linear(cls, matrix):
        M = np.asarray(matrix, dtype=float)
        return cls(forward=lambda x: M @ np.asarray(x, dtype=float),
                   jacobian=lambda x: M.copy(),
                   inverse=lambda y: np.linalg.solve(M, np.asarray(y, dtype=float)),
                   provenance="linear")

    @classmethod
    def from_flow(cls, fields, driver: JumpPath, cfg: MarcusConfig,
                  geo: GeometryConfig = DEFAULT_GEOMETRY):
        """Wrap the time-horizon flow map of a driven equation.

        The inverse integrates the time-reversed driver for a seed, then
        polishes with Newton on the forward map (tolerance and iteration cap
        from ``geo``).
        """
        reversed_driver = _reverse_driver(driver)

        def forward(x):
            return solve_point(fields, driver, x, cfg).post[-1]

        def jacobian(x):
            return solve_with_jacobian(fields, driver, x, cfg).jacobians_post[-1]

        def inverse(y):
            y = np.asarray(y, dtype=float)
            x = solve_point(fields, reversed_driver, y, cfg).post[-1]
            for _ in range(geo.newton_maxiter):
                r = y - forward(x)
                if np.max(np.abs(r)) <= geo.newton_tol:
                    return x
                x = x + np.linalg.solve(jacobian(x), r)
            raise DegeneracyError("flow inverse Newton did not converge")

        return cls(forward, jacobian, inverse, provenance="flow")


def _reverse_driver(driver: JumpPath) -> JumpPath:
    """Driver running the same increments backwards (jumps negated)."""
    T = driver.horizon
    grid = (T - driver.grid)[::-1].copy()
    grid[0] = 0.0
    cont = driver.continuous_values[::-1].copy()
    jt = (T - driver.jump_times)[::-1].copy()
    js = -driver.jump_sizes[::-1].copy()
    keep = jt > 0.0
    if not np.all(keep):
        # a jump at the original time 0+ would land on the reversed endpoint 0
        jt, js = jt[keep], js[keep]
    jt_snapped = np.array([grid[np.argmin(np.abs(grid - t))] for t in jt])
    return JumpPath(grid=grid, continuous_values=cont,
                    jump_times=jt_snapped, jump_sizes=js)


def subspace_projector(basis) -> np.ndarray:
    """Orthogonal projector onto the column span of ``basis``."""
    B = np.asarray(basis, dtype=float)
    return B @ np.linalg.solve(B.T @ B, B.T)


def subspaces_equal(basis_a, basis_b, tol: float = 1e-10) -> bool:
    """Column spans compared through projectors (basis-mixing invariant)."""
    Pa = subspace_projector(basis_a)
    Pb = subspace_projector(basis_b)
    return bool(np.max(np.abs(Pa - Pb)) <= tol)


def adjoint_distribution(probe: DiffeoProbe, delta: Distribution) -> Distribution:
    """Pushforward of a distribution by a diffeomorphism.

    The fiber at x is D_probe(probe^{-1}(x)) applied to the original fiber at
    probe^{-1}(x); rank is preserved because the Jacobian is invertible.
    """

    def basis_fn(x):
        p = probe.inverse(x)
        return np.asarray(probe.jacobian(p), dtype=float) @ delta.basis(p)

    return Distribution(delta.dimension, delta.rank, basis_fn)


@dataclass(frozen=True)
class TransversalityCheck:
    complementary: bool
    condition: float
    det: float


def check_transversality(horizontal: Distribution, other: Distribution, x,
                         geo: GeometryConfig = DEFAULT_GEOMETRY) -> TransversalityCheck:
    """Do the two fibers at x span the whole space transversally?

    Builds the stacked frame [B_H | B_other] and reports |det| against
    ``geo.eps_det`` together with the frame condition number.  Rank mismatch
    (ranks not summing to n) is an error, not a degeneracy.
    """
    if horizontal.rank + other.rank != horizontal.dimension:
        raise ValueError("ranks do not sum to the ambient dimension")
    S = np.concatenate([horizontal.basis(x), other.basis(x)], axis=1)
    det = float(np.linalg.det(S))
    cond = float(np.linalg.cond(S))
    ok = abs(det) > geo.eps_det and cond < geo.cond_cap
    return TransversalityCheck(complementary=ok, condition=cond, det=det)


def split_stacked(S: np.ndarray, values: np.ndarray, rank: int,
                  geo: GeometryConfig = DEFAULT_GEOMETRY):
    """Coefficients of ``values`` columns in the frame S = [B_H | B_V].

    One iterative-refinement pass keeps the direct-sum reconstruction at the
    1e-10 scale even for moderately conditioned frames.  Raises
    ``DegeneracyError`` past the thresholds.
    """
    det = float(np.linalg.det(S))
    cond = float(np.linalg.cond(S))
    if abs(det) <= geo.eps_det or cond >= geo.cond_cap or not np.isfinite(cond):
        raise DegeneracyError("transversal frame degenerated", det=det,
                              condition=cond)
    c = np.linalg.solve(S, values)
    c = c + np.linalg.solve(S, values - S @ c)
    return c, cond


def split_field(value, horizontal: Distribution, adjoint_vertical: Distribution,
                x, geo: GeometryConfig = DEFAULT_GEOMETRY):
    """Split a tangent vector at x against the pair of fibers there.

    Returns (h_part, v_part) with h_part in the horizontal fiber, v_part in
    the (adjoint-transported) vertical fiber, and h_part + v_part
    reconstructing the input to solver precision.
    """
    v = np.asarray(value, dtype=float)
    BH = horizontal.basis(x)
    BV = adjoint_vertical.basis(x)
    S = np.concatenate([BH, BV], axis=1)
    c, _ = split_stacked(S, v, horizontal.rank, geo)
    k = horizontal.rank
    return BH @ c[:k], BV @ c[k:]
