"""YAML run configuration: schema, defaults, validation, scenario registry.

A run config is a plain mapping.  ``load_config`` parses and validates it,
``normalize_config`` fills defaults so that dump -> load round-trips to an
identical mapping (the reproducibility contract for configs), and
``build_problem`` / ``build_driver`` turn it into library objects.
"""

from __future__ import annotations

import copy
import math

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

# the keys a config, its driver, its mesh and each scenario's fields may hold
_TOP_KEYS = tuple(_DEFAULTS) + ("x0", "horizontal_dim", "fields", "mesh",
                                "probes", "ensemble")
_DRIVER_KEYS = {"levy": ("type", "horizon", "step", "seed", "dimension",
                         "brownian_scale", "drift", "jump_intensity",
                         "jump_law"),
                "deterministic": ("type", "horizon", "step", "ramp_to", "jumps")}
_MESH_KEYS = ("radii", "shape")
_FIELD_KEYS = {"custom-linear": ("matrices",), "radial-linear": ("matrices",),
               "ivk-commuting": ("outer_rate", "inner_rate", "dimension")}


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


def _is_number(val):
    """A finite int or float (a bool is not a number here)."""
    try:
        return not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        return False


def _num(cfg, path, key, positive=False, default=None):
    val = cfg.get(key, default)
    _expect(_is_number(val), "%s.%s" % (path, key), "expected a finite number")
    if positive:
        _expect(val > 0, "%s.%s" % (path, key), "must be positive")
    return float(val)


def _only(mapping, where, keys, what):
    """Reject the first key of ``mapping`` that is not one of ``keys``."""
    for key in mapping:
        _expect(key in keys, "%s%s" % (where, key),
                "not %s key (expected %s)" % (what, ", ".join(keys) or "none"))


def _int(val, where, low=1):
    _expect(isinstance(val, int) and not isinstance(val, bool) and val >= low,
            where, "must be an integer >= %d" % low)
    return val


def _numbers(val, where, count, note=""):
    """A list of ``count`` finite numbers, as a float array."""
    _expect(isinstance(val, list) and len(val) == count
            and all(_is_number(v) for v in val), where,
            "must be a list of %d numbers%s" % (count, note))
    return np.asarray(val, dtype=float)


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
    _only(raw, "", _TOP_KEYS, "a top-level")
    cfg = _merge(_DEFAULTS, raw)
    _expect(cfg.get("format_version") == 1, "format_version",
            "only version 1 is supported")
    _expect(cfg.get("scenario") in SCENARIOS, "scenario",
            "must be one of %s" % (SCENARIOS,))
    drv = cfg["driver"]
    _expect(isinstance(drv, dict), "driver", "must be a mapping")
    _expect(drv.get("type") in tuple(_DRIVER_KEYS), "driver.type",
            "must be 'levy' or 'deterministic'")
    _only(drv, "driver.", _DRIVER_KEYS[drv["type"]], "a %s driver" % drv["type"])
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
        m = _int(drv["dimension"], "driver.dimension")
        for key in ("brownian_scale", "drift"):
            val = drv[key]
            _expect(_is_number(val) or isinstance(val, list) and len(val) == m
                    and all(_is_number(v) for v in val), "driver." + key,
                    "must be a number or a list of %d numbers "
                    "(driver.dimension)" % m)
        _expect(_is_number(drv["jump_intensity"]) and drv["jump_intensity"] >= 0,
                "driver.jump_intensity", "must be a number >= 0")
        if drv.get("jump_intensity", 0.0):
            _expect(isinstance(drv.get("jump_law"), dict), "driver.jump_law",
                    "required when jump_intensity > 0")
        if drv.get("jump_law"):
            jump_law_from(drv["jump_law"], drv["dimension"])
    else:
        drv.setdefault("ramp_to", [1.0])
        ramp = drv["ramp_to"]
        _expect(isinstance(ramp, list) and ramp
                and all(_is_number(v) for v in ramp),
                "driver.ramp_to", "must be a non-empty list of numbers")
        drv.setdefault("jumps", [])
        _expect(isinstance(drv["jumps"], list), "driver.jumps",
                "must be a list of jumps")
        for j, jump in enumerate(drv["jumps"]):
            where = "driver.jumps[%d]" % j
            _expect(isinstance(jump, dict), where, "must be a mapping")
            _only(jump, where + ".", ("time", "size"), "a jump")
            t = _num(jump, where, "time", positive=True)
            _expect(t <= horizon, where + ".time", "must lie in (0, horizon]")
            frac = t / step
            _expect(abs(frac - round(frac)) < 1e-9, where + ".time",
                    "must fall on the step grid")
            _numbers(jump.get("size"), where + ".size", len(ramp),
                     " (the driver dimension)")
    for key in ("solver", "geometry"):
        _expect(isinstance(cfg[key], dict), key, "must be a mapping")
        _only(cfg[key], key + ".", tuple(_DEFAULTS[key]), "a " + key)
    # the split rule's thresholds (see GeometryConfig)
    _expect(_num(cfg["geometry"], "geometry", "eps_det") >= 0,
            "geometry.eps_det", "must be >= 0")
    _num(cfg["geometry"], "geometry", "cond_cap", positive=True)
    sol = cfg["solver"]
    _int(sol.get("substeps"), "solver.substeps")
    for key in ("use_expm", "record_jacobian"):
        _expect(isinstance(sol.get(key), bool), "solver." + key,
                "must be true or false")
    _expect(isinstance(cfg.get("ladder"), int) and 1 <= cfg["ladder"] <= 8,
            "ladder", "must be an integer in [1, 8]")
    _int(cfg.get("snapshot_stride"), "snapshot_stride")
    if "ensemble" in cfg:
        ens = cfg["ensemble"]
        _expect(isinstance(ens, dict), "ensemble", "must be a mapping")
        _only(ens, "ensemble.", ("n_paths", "observable"), "an ensemble")
        _int(ens.get("n_paths"), "ensemble.n_paths")
        ens.setdefault("observable", "none")
        _expect(ens["observable"] in ("none", "norm", "first"),
                "ensemble.observable", "must be none, norm or first")
    return cfg


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


# each jump law kind's documented keys, with their defaults
_JUMP_LAWS = {
    "constant": (JumpLaw.constant, {"value": [1.0]}),
    "uniform": (JumpLaw.uniform, {"low": [-1.0], "high": [1.0]}),
    "gaussian": (JumpLaw.gaussian, {"mean": [0.0], "scale": [1.0]}),
}


def jump_law_from(cfg_law, dimension: int) -> JumpLaw:
    """The jump law of a ``driver.jump_law`` mapping for an m-dim driver."""
    _expect(isinstance(cfg_law, dict), "driver.jump_law", "must be a mapping")
    kind = cfg_law.get("kind")
    _expect(kind in _JUMP_LAWS, "driver.jump_law.kind",
            "must be constant, uniform or gaussian")
    make, defaults = _JUMP_LAWS[kind]
    _only(cfg_law, "driver.jump_law.", ("kind",) + tuple(defaults),
          "a %s law" % kind)
    args = []
    for key, default in defaults.items():
        val = cfg_law.get(key, default)
        val = val if isinstance(val, list) else [val]  # a 1-D law's number
        args.append(_numbers(val, "driver.jump_law.%s" % key, dimension,
                             " (driver.dimension)"))
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError("driver.jump_law: %s" % exc)


def build_path_params(cfg: dict, seed_override=None) -> PathParams:
    """Sampling parameters of the config's levy driver."""
    drv = cfg["driver"]
    law = (jump_law_from(drv["jump_law"], int(drv.get("dimension", 1)))
           if drv.get("jump_law") else None)
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


def _vec2(a, b):
    """np.stack([a, b], axis=-1) of two arrays without its per-call overhead."""
    out = np.empty(a.shape + (2,))
    out[..., 0], out[..., 1] = a, b
    return out


def _constant_jacobian(M):
    """Jacobian callable of x -> M x: zeros, then M's nonzero entries."""
    entries = [(i, j, v) for (i, j), v in np.ndenumerate(M) if v]

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + np.shape(M))
        for i, j, v in entries:
            J[..., i, j] = v
        return J

    return jac


def _sphere_tangent_fields() -> VectorFieldSet:
    def x1(p):
        p = np.asarray(p, dtype=float)
        return _vec2(-p[..., 1], p[..., 0])

    def x2(p):
        p = np.asarray(p, dtype=float)
        s = np.sin(p[..., 0])
        return _vec2(-p[..., 1] * s, p[..., 0] * s)

    def j2(p):
        p = np.asarray(p, dtype=float)
        s, c = np.sin(p[..., 0]), np.cos(p[..., 0])
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = -p[..., 1] * c
        J[..., 0, 1] = -s
        J[..., 1, 0] = s + p[..., 0] * c
        return J

    j1 = _constant_jacobian([[0.0, -1.0], [1.0, 0.0]])
    return VectorFieldSet.from_callables(2, [x1, x2], [j1, j2],
                                         vectorized=True)


def _ivk_generic_fields():
    def outer1(p):
        p = np.asarray(p, dtype=float)
        return _vec2(np.sin(p[..., 1]), p[..., 0])

    def outer_j1(p):
        p = np.asarray(p, dtype=float)
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = np.cos(p[..., 1])
        J[..., 1, 0] = 1.0
        return J

    def outer2(p):
        p = np.asarray(p, dtype=float)
        return _vec2(0.3 * p[..., 1], -0.2 * p[..., 0])

    def inner1(p):
        p = np.asarray(p, dtype=float)
        return _vec2(p[..., 1], -0.5 * p[..., 0])

    def inner2(p):
        p = np.asarray(p, dtype=float)
        return _vec2(0.2 * p[..., 0], 0.3 * p[..., 1])

    outer = VectorFieldSet.from_callables(
        2, [outer1, outer2],
        [outer_j1, _constant_jacobian([[0.0, 0.3], [-0.2, 0.0]])],
        vectorized=True)
    inner = VectorFieldSet.from_callables(
        2, [inner1, inner2], [_constant_jacobian([[0.0, 1.0], [-0.5, 0.0]]),
                              _constant_jacobian([[0.2, 0.0], [0.0, 0.3]])],
        vectorized=True)
    return outer, inner


def _radial_pair() -> ComplementaryPair:
    def tangent(p):
        p = np.asarray(p, dtype=float)
        return _vec2(-p[..., 1], p[..., 0])[..., :, None]

    def radial(p):
        p = np.asarray(p, dtype=float)
        return p[..., :, None]

    horizontal = Distribution(2, 1, tangent, vectorized=True)
    vertical = Distribution(2, 1, radial, vectorized=True)
    return ComplementaryPair(horizontal, vertical)


def _matrices_from(fields_cfg, default=None, n=None):
    """``fields.matrices``: a non-empty (m, n, n) list of finite numbers."""
    mats = fields_cfg.get("matrices", default)
    try:
        arr = np.asarray(mats, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    _expect(isinstance(mats, list) and arr.ndim == 3 and arr.shape[0] >= 1
            and arr.shape[1] == arr.shape[2] and (n is None or arr.shape[1] == n)
            and np.all(np.isfinite(arr)), "fields.matrices",
            "must be a non-empty list of %s matrices of numbers"
            % ("square" if n is None else "%dx%d" % (n, n)))
    return arr


def _x0(cfg, default, n):
    """The config's x0, or the scenario's default, as an n-vector."""
    return _numbers(cfg.get("x0", default), "x0", n, " (the state dimension)")


def build_problem(cfg: dict) -> dict:
    """Turn a normalized config into library objects for the CLI runners.

    Returns a dict with scenario-dependent keys: always ``kind``, ``fields``
    and ``x0``; linear scenarios add ``matrices`` and ``horizontal_dim``,
    the mesh scenario ``pair``/``chart``/``probes``, the verification
    scenarios ``inner_fields``.
    """
    scenario = cfg["scenario"]
    fields_cfg, mesh_cfg = cfg.get("fields", {}), cfg.get("mesh", {})
    for key, val in (("fields", fields_cfg), ("mesh", mesh_cfg)):
        _expect(isinstance(val, dict), key, "must be a mapping")
    _only(fields_cfg, "fields.", _FIELD_KEYS.get(scenario, ()),
          "a %s fields" % scenario)
    _only(mesh_cfg, "mesh.", _MESH_KEYS, "a mesh")
    out = {"scenario": scenario}

    if scenario == "rotation":
        mats = np.array([[[0.0, -1.0], [1.0, 0.0]]])
        out.update(kind="linear", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=_x0(cfg, [1.0, 0.0], 2),
                   horizontal_dim=_int(cfg.get("horizontal_dim", 1),
                                       "horizontal_dim"))
    elif scenario == "custom-linear":
        mats = _matrices_from(fields_cfg)
        out.update(kind="linear", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=_x0(cfg, None, mats.shape[1]),
                   horizontal_dim=_int(cfg.get("horizontal_dim", 1),
                                       "horizontal_dim"))
    elif scenario == "sphere-tangent":
        out.update(kind="nonlinear", fields=_sphere_tangent_fields(),
                   x0=_x0(cfg, [1.0, 0.0], 2))
    elif scenario == "radial-linear":
        mats = _matrices_from(fields_cfg, [[[0.25, 0.1], [0.0, 0.15]]], 2)
        radii = _numbers(mesh_cfg.get("radii", [0.5, 2.0]), "mesh.radii", 2)
        _expect(0 < radii[0] < radii[1], "mesh.radii",
                "must be an inner and an outer radius, 0 < inner < outer")
        shape = mesh_cfg.get("shape", [40, 40])
        _expect(isinstance(shape, list) and len(shape) == 2, "mesh.shape",
                "must be a list of 2 integers")
        chart = MeshChart.annulus(tuple(radii), tuple(
            _int(v, "mesh.shape", low=3) for v in shape))
        probes = cfg.get("probes")
        if probes is None:
            angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
            probes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        else:
            _expect(isinstance(probes, list) and probes, "probes",
                    "must be a non-empty list of points")
            probes = [_numbers(q, "probes", 2) for q in probes]
        out.update(kind="mesh", matrices=mats,
                   fields=VectorFieldSet.linear(mats),
                   x0=_x0(cfg, [1.0, 0.0], 2),
                   pair=_radial_pair(), chart=chart,
                   probes=np.asarray(probes, dtype=float))
    elif scenario == "ivk-commuting":
        a = _num(fields_cfg, "fields", "outer_rate", default=0.7)
        b = _num(fields_cfg, "fields", "inner_rate", default=0.4)
        dim = _int(fields_cfg.get("dimension", 1), "fields.dimension")
        outer = VectorFieldSet.linear(np.array([a * np.eye(dim)]))
        inner = VectorFieldSet.linear(np.array([b * np.eye(dim)]))
        out.update(kind="ivk", fields=outer, inner_fields=inner,
                   x0=_x0(cfg, [1.0] * dim, dim),
                   outer_rate=a, inner_rate=b)
    elif scenario == "ivk-generic":
        outer, inner = _ivk_generic_fields()
        out.update(kind="ivk", fields=outer, inner_fields=inner,
                   x0=_x0(cfg, [0.4, 0.2], 2))
    else:
        raise ConfigError("scenario: unknown scenario %r" % scenario)
    drv = cfg.get("driver")  # absent when only a scenario's fields are wanted
    if drv is not None:
        count = out["fields"].count
        levy = drv["type"] == "levy"
        _expect((drv["dimension"] if levy else len(drv["ramp_to"])) == count,
                "driver.dimension" if levy else "driver.ramp_to",
                "must match the scenario's %d driving field(s)" % count)
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
