"""YAML run configuration: schema, defaults, validation, scenario registry.

A run config is a plain mapping.  ``load_config`` parses and validates it,
``normalize_config`` fills defaults so that dump -> load round-trips to an
identical mapping (the reproducibility contract for configs), and
``build_problem`` / ``build_driver`` turn it into library objects.
"""

from __future__ import annotations

import copy

import numpy as np
import yaml

from .errors import ConfigError
from .geometry import ComplementaryPair, Distribution, GeometryConfig
from .marcus import MarcusConfig
from .mesh import MeshChart
from .odeflow import OdeConfig, VectorFieldSet
from .semimartingale import (JumpLaw, PathParams, _grid_for,
                             deterministic_path, sample_levy_jump_diffusion)

SCENARIOS = ("rotation", "custom-linear", "sphere-tangent", "radial-linear",
             "ivk-commuting", "ivk-generic")

_DEFAULTS = {
    "format_version": 1,
    "scenario": "rotation",
    "driver": {
        "type": "deterministic",
        "horizon": 1.0,
        "step": 0.01,
    },
    "solver": {
        "substeps": 64,
        "use_expm": True,
        "record_jacobian": False,
    },
    "geometry": {
        "eps_det": 1e-12,
        "cond_cap": 1e8,
    },
    "ladder": 3,
    "snapshot_stride": 10,
}


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError("%s: %s" % (path, msg))


def _num(cfg, path, key, positive=False):
    val = cfg.get(key)
    _expect(isinstance(val, (int, float)) and not isinstance(val, bool),
            "%s.%s" % (path, key), "expected a number")
    if positive:
        _expect(val > 0, "%s.%s" % (path, key), "must be positive")
    return float(val)


def load_config(path: str) -> dict:
    """Parse and validate a YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = " (line %d)" % (mark.line + 1) if mark else ""
        raise ConfigError("invalid YAML%s: %s" % (where, exc))
    _expect(isinstance(raw, dict), "config", "top level must be a mapping")
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    """Fill defaults and validate; the result round-trips through YAML."""
    cfg = _merge(_DEFAULTS, raw)
    _expect(cfg.get("format_version") == 1, "format_version",
            "only version 1 is supported")
    _expect(cfg.get("scenario") in SCENARIOS, "scenario",
            "must be one of %s" % (SCENARIOS,))
    drv = cfg["driver"]
    _expect(isinstance(drv, dict), "driver", "must be a mapping")
    _expect(drv.get("type") in ("levy", "deterministic"), "driver.type",
            "must be 'levy' or 'deterministic'")
    horizon = _num(drv, "driver", "horizon", positive=True)
    step = _num(drv, "driver", "step", positive=True)
    _expect(step <= horizon, "driver.step", "must not exceed the horizon")
    if drv["type"] == "levy":
        drv.setdefault("seed", 0)
        drv.setdefault("dimension", 1)
        drv.setdefault("brownian_scale", 1.0)
        drv.setdefault("drift", 0.0)
        drv.setdefault("jump_intensity", 0.0)
        _expect(isinstance(drv["seed"], int) and 0 <= drv["seed"] < 2 ** 64,
                "driver.seed", "must be an unsigned 64-bit integer")
        _expect(isinstance(drv["dimension"], int) and drv["dimension"] >= 1,
                "driver.dimension", "must be a positive integer")
        if drv.get("jump_intensity", 0.0):
            _expect(isinstance(drv.get("jump_law"), dict), "driver.jump_law",
                    "required when jump_intensity > 0")
    else:
        drv.setdefault("ramp_to", [1.0])
        _expect(isinstance(drv["ramp_to"], list) and drv["ramp_to"],
                "driver.ramp_to", "must be a non-empty list of numbers")
        drv.setdefault("jumps", [])
        for j, jump in enumerate(drv["jumps"]):
            where = "driver.jumps[%d]" % j
            _expect(isinstance(jump, dict), where, "must be a mapping")
            t = _num(jump, where, "time", positive=True)
            _expect(t <= horizon, where + ".time", "must lie in (0, horizon]")
            frac = t / step
            _expect(abs(frac - round(frac)) < 1e-9, where + ".time",
                    "must fall on the step grid")
            _expect(isinstance(jump.get("size"), list)
                    and len(jump["size"]) == len(drv["ramp_to"]),
                    where + ".size", "must match the driver dimension")
    sol = cfg["solver"]
    _expect(isinstance(sol.get("substeps"), int) and sol["substeps"] >= 1,
            "solver.substeps", "must be a positive integer")
    _expect(isinstance(cfg.get("ladder"), int) and 1 <= cfg["ladder"] <= 8,
            "ladder", "must be an integer in [1, 8]")
    _expect(isinstance(cfg.get("snapshot_stride"), int)
            and cfg["snapshot_stride"] >= 1,
            "snapshot_stride", "must be a positive integer")
    if "ensemble" in cfg:
        ens = cfg["ensemble"]
        _expect(isinstance(ens, dict), "ensemble", "must be a mapping")
        _expect(isinstance(ens.get("n_paths"), int) and ens["n_paths"] >= 1,
                "ensemble.n_paths", "must be a positive integer")
        ens.setdefault("observable", "none")
        _expect(ens["observable"] in ("none", "norm", "first"),
                "ensemble.observable", "must be none, norm or first")
    return cfg


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


def jump_law_from(cfg_law: dict) -> JumpLaw:
    kind = cfg_law.get("kind")
    if kind == "constant":
        return JumpLaw.constant(np.asarray(cfg_law.get("value", [1.0]),
                                           dtype=float))
    if kind == "uniform":
        return JumpLaw.uniform(np.asarray(cfg_law.get("low", [-1.0]), float),
                               np.asarray(cfg_law.get("high", [1.0]), float))
    if kind == "gaussian":
        return JumpLaw.gaussian(np.asarray(cfg_law.get("mean", [0.0]), float),
                                np.asarray(cfg_law.get("scale", [1.0]), float))
    raise ConfigError("driver.jump_law.kind: must be constant, uniform "
                      "or gaussian")


def build_path_params(cfg: dict, seed_override=None) -> PathParams:
    """Sampling parameters of the config's levy driver."""
    drv = cfg["driver"]
    law = jump_law_from(drv["jump_law"]) if drv.get("jump_law") else None
    return PathParams(
        horizon=float(drv["horizon"]), step=float(drv["step"]),
        brownian_scale=drv.get("brownian_scale", 1.0),
        drift=drv.get("drift", 0.0),
        jump_intensity=drv.get("jump_intensity", 0.0),
        jump_law=law,
        seed=int(seed_override if seed_override is not None
                 else drv.get("seed", 0)),
        dimension=int(drv.get("dimension", 1)))


def build_driver(cfg: dict, seed_override=None):
    """Realize the config's driving path."""
    drv = cfg["driver"]
    if drv["type"] == "levy":
        return sample_levy_jump_diffusion(build_path_params(cfg, seed_override))
    horizon, step = float(drv["horizon"]), float(drv["step"])
    grid = _grid_for(horizon, step)
    values = np.outer(grid / horizon, np.asarray(drv["ramp_to"], dtype=float))
    # jump times are validated multiples of step: snap each to its grid point
    jumps = [(float(grid[round(j["time"] / step)]),
              np.asarray(j["size"], dtype=float))
             for j in drv.get("jumps", [])]
    jumps.sort(key=lambda item: item[0])
    return deterministic_path(grid, values, jumps)


def _sphere_tangent_fields() -> VectorFieldSet:
    def x1(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)

    def x2(p):
        p = np.asarray(p, dtype=float)
        s = np.sin(p[..., 0])
        return np.stack([-p[..., 1] * s, p[..., 0] * s], axis=-1)

    def j1(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = -1.0
        J[..., 1, 0] = 1.0
        return J

    def j2(p):
        p = np.asarray(p, dtype=float)
        s, c = np.sin(p[..., 0]), np.cos(p[..., 0])
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = -p[..., 1] * c
        J[..., 0, 1] = -s
        J[..., 1, 0] = s + p[..., 0] * c
        return J

    return VectorFieldSet.from_callables(2, [x1, x2], [j1, j2],
                                         vectorized=True)


def _ivk_generic_fields():
    def outer1(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.sin(p[..., 1]), p[..., 0]], axis=-1)

    def outer_j1(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = np.cos(p[..., 1])
        J[..., 1, 0] = 1.0
        return J

    def outer2(p):
        p = np.asarray(p, dtype=float)
        return np.stack([0.3 * p[..., 1], -0.2 * p[..., 0]], axis=-1)

    def outer_j2(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = 0.3
        J[..., 1, 0] = -0.2
        return J

    def inner1(p):
        p = np.asarray(p, dtype=float)
        return np.stack([p[..., 1], -0.5 * p[..., 0]], axis=-1)

    def inner_j1(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -0.5
        return J

    def inner2(p):
        p = np.asarray(p, dtype=float)
        return np.stack([0.2 * p[..., 0], 0.3 * p[..., 1]], axis=-1)

    def inner_j2(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = 0.2
        J[..., 1, 1] = 0.3
        return J

    outer = VectorFieldSet.from_callables(2, [outer1, outer2],
                                          [outer_j1, outer_j2],
                                          vectorized=True)
    inner = VectorFieldSet.from_callables(2, [inner1, inner2],
                                          [inner_j1, inner_j2],
                                          vectorized=True)
    return outer, inner


def _radial_pair() -> ComplementaryPair:
    def tangent(p):
        p = np.asarray(p, dtype=float)
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)[..., :, None]

    def radial(p):
        p = np.asarray(p, dtype=float)
        return p[..., :, None]

    horizontal = Distribution(2, 1, tangent, vectorized=True)
    vertical = Distribution(2, 1, radial, vectorized=True)
    return ComplementaryPair(horizontal, vertical)


def _matrices_from(cfg, key, path):
    mats = cfg.get(key)
    _expect(isinstance(mats, list) and mats, path, "must be a list of matrices")
    arr = np.asarray(mats, dtype=float)
    _expect(arr.ndim == 3 and arr.shape[1] == arr.shape[2], path,
            "each matrix must be square, got shape %s" % (arr.shape,))
    return arr


def build_problem(cfg: dict) -> dict:
    """Turn a normalized config into library objects for the CLI runners.

    Returns a dict with scenario-dependent keys: always ``kind``, ``fields``
    and ``x0``; linear scenarios add ``matrices`` and ``horizontal_dim``,
    the mesh scenario ``pair``/``chart``/``probes``, the verification
    scenarios ``inner_fields``.
    """
    scenario = cfg["scenario"]
    fields_cfg = cfg.get("fields", {})
    out = {"scenario": scenario}

    if scenario == "rotation":
        mats = np.array([[[0.0, -1.0], [1.0, 0.0]]])
        out.update(kind="linear", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=np.asarray(cfg.get("x0", [1.0, 0.0]), dtype=float),
                   horizontal_dim=int(cfg.get("horizontal_dim", 1)))
    elif scenario == "custom-linear":
        mats = _matrices_from(fields_cfg, "matrices", "fields.matrices")
        x0 = cfg.get("x0")
        _expect(isinstance(x0, list) and len(x0) == mats.shape[1], "x0",
                "must be a list matching the state dimension")
        out.update(kind="linear", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=np.asarray(x0, dtype=float),
                   horizontal_dim=int(cfg.get("horizontal_dim", 1)))
    elif scenario == "sphere-tangent":
        out.update(kind="nonlinear", fields=_sphere_tangent_fields(),
                   x0=np.asarray(cfg.get("x0", [1.0, 0.0]), dtype=float))
    elif scenario == "radial-linear":
        default = [[[0.25, 0.1], [0.0, 0.15]]]
        mats = np.asarray(fields_cfg.get("matrices", default), dtype=float)
        _expect(mats.ndim == 3 and mats.shape[1:] == (2, 2),
                "fields.matrices", "must be (m, 2, 2) for this scenario")
        mesh_cfg = cfg.get("mesh", {})
        radii = mesh_cfg.get("radii", [0.5, 2.0])
        shape = mesh_cfg.get("shape", [40, 40])
        chart = MeshChart.annulus((float(radii[0]), float(radii[1])),
                                  (int(shape[0]), int(shape[1])))
        probes = cfg.get("probes")
        if probes is None:
            angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
            probes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        out.update(kind="mesh", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=np.asarray(cfg.get("x0", [1.0, 0.0]), dtype=float),
                   pair=_radial_pair(), chart=chart,
                   probes=np.asarray(probes, dtype=float))
    elif scenario == "ivk-commuting":
        a = float(fields_cfg.get("outer_rate", 0.7))
        b = float(fields_cfg.get("inner_rate", 0.4))
        dim = int(fields_cfg.get("dimension", 1))
        outer = VectorFieldSet.linear(np.array([a * np.eye(dim)]))
        inner = VectorFieldSet.linear(np.array([b * np.eye(dim)]))
        out.update(kind="ivk", fields=outer, inner_fields=inner,
                   x0=np.asarray(cfg.get("x0", [1.0] * dim), dtype=float),
                   outer_rate=a, inner_rate=b)
    elif scenario == "ivk-generic":
        outer, inner = _ivk_generic_fields()
        out.update(kind="ivk", fields=outer, inner_fields=inner,
                   x0=np.asarray(cfg.get("x0", [0.4, 0.2]), dtype=float))
    else:
        raise ConfigError("scenario: unknown scenario %r" % scenario)
    return out


def build_marcus_config(cfg: dict) -> MarcusConfig:
    sol = cfg["solver"]
    ode = OdeConfig(substeps=int(sol["substeps"]),
                    use_expm=bool(sol["use_expm"]))
    return MarcusConfig(ode=ode,
                        record_jacobian=bool(sol.get("record_jacobian",
                                                     False)))


def build_geometry_config(cfg: dict) -> GeometryConfig:
    geo = cfg["geometry"]
    return GeometryConfig(eps_det=float(geo["eps_det"]),
                          cond_cap=float(geo["cond_cap"]))
