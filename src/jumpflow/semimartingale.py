"""Cadlag driving paths: jump-diffusion sampling and path algebra.

A path is stored as a continuous piecewise-linear part sampled on a grid plus
a finite ledger of jumps whose times are themselves grid points.  All solvers
downstream consume this representation, so the conventions here (left limits,
realized quadratic variation, jump atoms) are the single source of truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure


def _substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, purpose, channel...).

    Each purpose/channel pair owns its own SeedSequence spawn key, so adding
    channels or drawing more jumps never perturbs the draws of an existing
    channel.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True)
class JumpLaw:
    """Distribution of a single jump's m-vector size.

    kind is one of "constant", "uniform" (box), "gaussian" (independent
    per-channel normal).  Use the classmethod constructors.
    """

    kind: str
    value: np.ndarray | None = None
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=np.atleast_1d(np.asarray(value, dtype=float)))

    @classmethod
    def uniform(cls, low, high):
        low = np.atleast_1d(np.asarray(low, dtype=float))
        high = np.atleast_1d(np.asarray(high, dtype=float))
        if low.shape != high.shape or np.any(high < low):
            raise ValueError("uniform jump law needs low <= high of equal shape")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(high - low)):
                raise ValueError("uniform jump law needs a finite high - low")
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def gaussian(cls, mean, std):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        std = np.atleast_1d(np.asarray(std, dtype=float))
        if mean.shape != std.shape or np.any(std < 0):
            raise ValueError("gaussian jump law needs std >= 0 of mean's shape")
        return cls(kind="gaussian", mean=mean, std=std)

    @property
    def dimension(self) -> int:
        for arr in (self.value, self.low, self.mean):
            if arr is not None:
                return arr.shape[0]
        raise ValueError("jump law has no parameters")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        m = self.dimension
        if self.kind == "constant":
            return np.tile(self.value, (count, 1))
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=(count, m))
        if self.kind == "gaussian":
            return self.mean + self.std * rng.standard_normal((count, m))
        raise ValueError("unknown jump law kind %r" % self.kind)


@dataclass(frozen=True)
class PathParams:
    """Sampling parameters for a jump-diffusion driver.

    Z_t = drift*t + brownian_scale*B_t + sum of jumps up to t, with a
    Poisson(jump_intensity * horizon) number of jumps placed uniformly on
    (0, horizon].  ``seed`` feeds the documented substream scheme.
    """

    horizon: float
    step: float
    brownian_scale: tuple | float = 1.0
    drift: tuple | float = 0.0
    jump_intensity: float = 0.0
    jump_law: JumpLaw | None = None
    seed: int = 0
    dimension: int = 1

    def __post_init__(self):
        for name in ("horizon", "step", "jump_intensity"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError("%s must be finite" % name)
        if self.horizon <= 0 or self.step <= 0:
            raise ValueError("horizon and step must be positive")
        if self.jump_intensity < 0:
            raise ValueError("jump_intensity must be >= 0")
        if self.jump_intensity > 0 and self.jump_law is None:
            raise ValueError("jump_intensity > 0 requires a jump_law")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        scale = self.scale_vector()
        drift = self.drift_vector()
        if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(drift))):
            raise ValueError("brownian_scale and drift must be finite")
        if self.jump_law is not None and self.jump_law.dimension != self.dimension:
            raise ValueError("jump law dimension does not match path dimension")

    def scale_vector(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.brownian_scale, dtype=float),
                               (self.dimension,)).copy()

    def drift_vector(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.drift, dtype=float),
                               (self.dimension,)).copy()


@dataclass(frozen=True)
class JumpPath:
    """Piecewise-linear continuous part on a grid plus a finite jump ledger.

    grid[0] == 0, grid is strictly increasing, and every jump time is a grid
    point, so Z_{t-} and Z_t are both exactly representable.  Arrays are
    locked read-only after construction.
    """

    grid: np.ndarray
    continuous_values: np.ndarray
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sizes: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        cont = np.asarray(self.continuous_values, dtype=float)
        if cont.ndim == 1:
            cont = cont[:, None]
        jt = np.asarray(self.jump_times, dtype=float)
        js = self.jump_sizes
        js = np.zeros((0, cont.shape[1])) if js is None else np.asarray(js, dtype=float)
        if js.ndim == 1:
            js = js[:, None]
        if grid.ndim != 1 or grid.shape[0] < 2:
            raise ValueError("grid needs at least two points")
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if cont.shape[0] != grid.shape[0]:
            raise ValueError("continuous_values must have one row per grid point")
        if jt.shape[0] != js.shape[0] or js.shape[1] != cont.shape[1]:
            raise ValueError("jump ledger shapes are inconsistent")
        idx = np.searchsorted(grid, jt)
        if jt.shape[0]:
            if np.any(np.diff(jt) <= 0):
                raise ValueError("jump times must be strictly increasing")
            if jt[0] <= 0.0 or jt[-1] > grid[-1]:
                raise ValueError("jump times must lie in (0, horizon]")
            # np.isin would import numpy.ma; a NaN time sorts past the end
            if not np.all(grid[idx.clip(max=grid.shape[0] - 1)] == jt):
                raise ValueError("every jump time must be a grid point")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(cont))
                and np.all(np.isfinite(js))):
            raise ValueError("path data must be finite")

        at_grid = np.zeros_like(cont)
        np.add.at(at_grid, idx, js)
        cum = np.cumsum(at_grid, axis=0)
        strict = cum - at_grid

        for arr in (grid, cont, jt, js, cum, strict):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "continuous_values", cont)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_sizes", js)
        object.__setattr__(self, "_jump_grid_index", idx)
        object.__setattr__(self, "_cum_jumps", cum)
        object.__setattr__(self, "_cum_jumps_strict", strict)

    @property
    def dimension(self) -> int:
        return self.continuous_values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def values(self) -> np.ndarray:
        """Cadlag values at grid points (jump at t included in Z_t)."""
        return self.continuous_values + self._cum_jumps

    @property
    def left_values(self) -> np.ndarray:
        """Left limits at grid points (jump at t excluded)."""
        return self.continuous_values + self._cum_jumps_strict

    @property
    def jump_mask(self) -> np.ndarray:
        mask = np.zeros(self.grid.shape[0], dtype=bool)
        mask[self._jump_grid_index] = True
        return mask

    def jump_size_at_grid(self) -> np.ndarray:
        """(len(grid), m) array: the jump at each grid point, zero elsewhere."""
        out = np.zeros_like(self.continuous_values)
        out[self._jump_grid_index] = self.jump_sizes
        return out


def _grid_for(horizon: float, step: float) -> np.ndarray:
    n = max(1, int(np.ceil(horizon / step - 1e-12)))
    grid = np.arange(n, dtype=float) * step
    grid = grid[grid < horizon - 1e-12 * step]
    return np.concatenate([grid, [horizon]])


def _levy_arrays(params: PathParams, seed: int, base: np.ndarray):
    """(grid, continuous values, jump times, jump sizes) drawn by ``params``
    with ``seed`` for ``params.seed``; ``base`` is their ``_grid_for``.

    The base grid is augmented with the sampled jump times; Brownian
    increments are then drawn per channel over the merged grid, so the
    continuous part is exact at every grid point.  Bit-identical output for
    identical inputs (see the substream scheme on ``_substream``).
    """
    T, m = params.horizon, params.dimension
    jump_times = np.empty(0)
    jump_sizes = np.zeros((0, m))
    if params.jump_intensity > 0:
        rng_t = _substream(seed, 1)
        count = int(rng_t.poisson(params.jump_intensity * T))
        if count:
            jump_times = np.sort(rng_t.uniform(0.0, T, size=count))
            # distinct and positive; np.unique would import numpy.ma
            jump_times = jump_times[np.diff(jump_times, prepend=0.0) > 0]
            jump_sizes = params.jump_law.sample(_substream(seed, 2),
                                                jump_times.shape[0])

    grid = np.sort(np.concatenate([base, jump_times]))
    grid = grid[np.diff(grid, prepend=-1.0) > 0]
    dt = np.diff(grid)
    scale = params.scale_vector()
    bm = np.zeros((grid.shape[0], m))
    for c in np.flatnonzero(scale):
        db = _substream(seed, 0, c).standard_normal(dt.shape[0]) * np.sqrt(dt)
        np.cumsum(db, out=bm[1:, c])
    cont = params.drift_vector() * grid[:, None] + scale * bm
    return grid, cont, jump_times, jump_sizes


def sample_levy_jump_diffusion(params: PathParams) -> JumpPath:
    """Draw one jump-diffusion driver path (see ``_levy_arrays``); raise
    IntegrationFailure at its first grid time whose value or left limit
    overflowed to inf/NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid, cont, jump_times, jump_sizes = _levy_arrays(
            params, params.seed, _grid_for(params.horizon, params.step))
        at_grid = np.zeros_like(cont)
        at_grid[np.searchsorted(grid, jump_times)] = jump_sizes
        cum = np.cumsum(at_grid, axis=0)
        bad = ~(np.isfinite(cont + cum)
                & np.isfinite(cont + (cum - at_grid))).all(axis=1)
    if bad.any():
        t = float(grid[np.argmax(bad)])
        raise IntegrationFailure("driver path overflowed while sampling", time=t)
    return JumpPath(grid=grid, continuous_values=cont,
                    jump_times=jump_times, jump_sizes=jump_sizes)


def deterministic_path(times, values, jumps=()) -> JumpPath:
    """Build a driver from explicit grid samples and a jump list.

    ``values`` are the continuous part at ``times`` (piecewise-linear in
    between); ``jumps`` is a sequence of (time, size) pairs whose times must
    already be grid points in (0, horizon].
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    pairs = list(jumps)
    if pairs:
        jt = np.asarray([p[0] for p in pairs], dtype=float)
        js = np.asarray([np.atleast_1d(np.asarray(p[1], dtype=float)) for p in pairs])
    else:
        jt = np.empty(0)
        js = np.zeros((0, values.shape[1]))
    return JumpPath(grid=times, continuous_values=values,
                    jump_times=jt, jump_sizes=js)


def quadratic_variation_c(path: JumpPath) -> np.ndarray:
    """Per-interval realized QV of the continuous part.

    Returns (len(grid)-1, m, m): the outer product of the continuous
    increment over each grid interval.  Jumps never enter by construction.
    """
    dc = np.diff(path.continuous_values, axis=0)
    return np.einsum("ki,kj->kij", dc, dc)


def refine(path: JumpPath, factor: int) -> JumpPath:
    """Insert factor-1 evenly spaced points inside each grid interval.

    The continuous part is interpolated linearly, so the refined object is
    the same path; jump times and sizes are untouched.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return path
    g, cont = path.grid, path.continuous_values
    w = np.arange(factor, dtype=float)[None, :] / factor          # (1, f)
    times = g[:-1, None] + np.diff(g)[:, None] * w                 # (N, f)
    vals = cont[:-1, None, :] * (1 - w[..., None]) + cont[1:, None, :] * w[..., None]
    new_grid = np.concatenate([times.ravel(), [g[-1]]])
    new_cont = np.concatenate([vals.reshape(-1, path.dimension), cont[-1:, :]])
    return JumpPath(grid=new_grid, continuous_values=new_cont,
                    jump_times=path.jump_times, jump_sizes=path.jump_sizes)


def prefix(path: JumpPath, t_end: float, include_jump_at_end: bool = True) -> JumpPath:
    """Restrict the path to [0, t_end] (t_end must be a grid point).

    With include_jump_at_end=False a jump recorded exactly at t_end is
    dropped, which realizes the left-limit path up to t_end.
    """
    k = np.nonzero(path.grid == t_end)[0]
    if k.shape[0] == 0:
        raise ValueError("t_end must be a grid point")
    k = int(k[0])
    if k == 0:
        raise ValueError("prefix needs t_end > 0")
    keep = path.jump_times < t_end
    if include_jump_at_end:
        keep = path.jump_times <= t_end
    return JumpPath(grid=path.grid[:k + 1],
                    continuous_values=path.continuous_values[:k + 1],
                    jump_times=path.jump_times[keep],
                    jump_sizes=path.jump_sizes[keep])


def _write_csv(fh, head, columns) -> None:
    """Write ``head``, then one row per index of equal-length 1-D columns:
    floats by ``repr`` (round-trip exact), bool and int columns as integers.
    The columns are zipped lazily, so one row is built at a time."""
    cells = [c.tolist() if c.dtype.kind == "f" else c.astype(int).tolist()
             for c in columns]
    writer = csv.writer(fh)
    writer.writerow(head)
    writer.writerows(zip(*cells))


def path_to_csv(path: JumpPath, fh) -> None:
    """Write `time, z_1..z_m, is_jump, dz_1..dz_m` rows at grid points."""
    m = path.dimension
    head = (["time"] + ["z_%d" % (c + 1) for c in range(m)]
            + ["is_jump"] + ["dz_%d" % (c + 1) for c in range(m)])
    _write_csv(fh, head, [path.grid, *path.values.T, path.jump_mask,
                          *path.jump_size_at_grid().T])
