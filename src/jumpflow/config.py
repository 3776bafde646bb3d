"""YAML run configuration: one schema table, its walker, scenario registry.

``_SCHEMA`` maps each config key to (default, check).  A default fills an
absent key; ``_OPTIONAL`` leaves it absent and ``_REQUIRED`` rejects it.  A
check is a callable ``check(value, path)`` that raises ``ConfigError``,
``None`` for a value nothing reads, a nested table for a section, a list of
one table for a list of sections, or ``_Variants``: the key's value picks
extra keys for its section (``driver.type``, ``driver.jump_law.kind``).
``normalize_config`` walks the table: it fills defaults, rejects an unknown
key by its path and runs each key's check; ``_check_across`` then applies
the rules that relate keys.  The result round-trips through YAML (the
reproducibility contract for configs).  The keys a scenario reads (``x0``,
``fields``, ...) have a table per scenario in ``_SCENARIOS``, whose
defaults ``build_problem`` fills on a copy: they stay out of the result.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import yaml

from .errors import ConfigError
from .geometry import ComplementaryPair, Distribution, GeometryConfig
from .mesh import MeshChart
from .odeflow import MarcusConfig, VectorFieldSet
from .semimartingale import (JumpLaw, PathParams, _grid_for,
                             deterministic_path, sample_levy_jump_diffusion)

# the most grid steps, expected jumps, RK4 substeps, ensemble paths, mesh
# nodes or ivk-commuting matrix entries a config may ask for: no size then
# overflows before the run or keeps it from ending
MAX_SIZE = 10 ** 7

_OPTIONAL = object()
_REQUIRED = object()


class _Variants(dict):
    """The check of a key whose value picks extra keys: value -> table."""


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError("%s: %s" % (path, msg))


def _is_number(val):
    """A finite int or float (a bool is not a number here)."""
    try:
        return not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        return False


def _is_int(val, low, high=math.inf):
    """An int in [low, high] (a bool is not an integer here)."""
    return (isinstance(val, int) and not isinstance(val, bool)
            and low <= val <= high)


def _is_list(val, count=None):
    """A non-empty list of finite numbers, of ``count`` of them if given."""
    return (isinstance(val, list) and len(val) > 0
            and count in (None, len(val)) and all(map(_is_number, val)))


def _check(test, msg):
    """The check that raises ``<path>: <msg>`` unless ``test(value)``."""
    def check(val, path):
        _expect(test(val), path, msg)
    return check


def _integer(low, high=math.inf):
    return _check(lambda v: _is_int(v, low, high),
                  "must be an integer >= %d" % low if high == math.inf
                  else "must be an integer in [%d, %d]" % (low, high))


def _choice(*options):
    return _check(lambda v: not isinstance(v, bool) and v in options,
                  "must be one of %s" % ", ".join(map(str, options)))


def _matrices(size=None):
    """The check of a non-empty list of square matrices of finite numbers."""
    def test(val):
        try:
            arr = np.asarray(val, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return False
        return (isinstance(val, list) and arr.ndim == 3 and arr.shape[0] >= 1
                and arr.shape[1] == arr.shape[2]
                and size in (None, arr.shape[1]) and np.isfinite(arr).all())
    return _check(test, "must be a non-empty list of %s matrices of numbers"
                  % ("square" if size is None else "%dx%d" % (size, size)))


_NUMBER = _check(_is_number, "must be a finite number")
_POSITIVE = _check(lambda v: _is_number(v) and v > 0, "must be a number > 0")
_NON_NEGATIVE = _check(lambda v: _is_number(v) and v >= 0, "must be >= 0")
_NUMBERS = _check(_is_list, "must be a non-empty list of numbers")
_NUMBER_OR_LIST = _check(lambda v: _is_number(v) or _is_list(v),
                         "must be a number or a list of numbers")
_FLAG = _check(lambda v: isinstance(v, bool), "must be true or false")

_LAW_KINDS = _Variants({
    "constant": {"value": ([1.0], _NUMBER_OR_LIST)},
    "uniform": {"low": ([-1.0], _NUMBER_OR_LIST),
                "high": ([1.0], _NUMBER_OR_LIST)},
    "gaussian": {"mean": ([0.0], _NUMBER_OR_LIST),
                 "scale": ([1.0], _NUMBER_OR_LIST)},
})
_DRIVERS = _Variants({
    "levy": {
        "seed": (0, _integer(0, 2 ** 64 - 1)),
        "dimension": (1, _integer(1)),
        "brownian_scale": (1.0, _NUMBER_OR_LIST),
        "drift": (0.0, _NUMBER_OR_LIST),
        "jump_intensity": (0.0, _NON_NEGATIVE),
        "jump_law": (_OPTIONAL, {"kind": (_REQUIRED, _LAW_KINDS)}),
    },
    "deterministic": {
        "ramp_to": ([1.0], _NUMBERS),
        "jumps": ([], [{"time": (_REQUIRED, _POSITIVE),
                        "size": (_REQUIRED, _NUMBERS)}]),
    },
})
# each scenario's keys: defaults (ivk-commuting's x0 is [1.0] * dimension)
# and checks, none for a key the scenario does not read
_BASE = {"x0": ([1.0, 0.0], _NUMBERS), "horizontal_dim": (_OPTIONAL, None),
         "fields": ({}, {}), "probes": (_OPTIONAL, None),
         "mesh": ({}, {"radii": (_OPTIONAL, None), "shape": (_OPTIONAL, None)})}
_SCENARIOS = {
    "rotation": {**_BASE, "horizontal_dim": (1, _integer(1))},
    "custom-linear": {**_BASE, "x0": (_REQUIRED, _NUMBERS),
                      "horizontal_dim": (1, _integer(1)),
                      "fields": ({}, {"matrices": (_REQUIRED, _matrices())})},
    "sphere-tangent": _BASE,
    "radial-linear": {
        **_BASE,
        "fields": ({}, {"matrices": ([[[0.25, 0.1], [0.0, 0.15]]],
                                     _matrices(2))}),
        "mesh": ({}, {
            "radii": ([0.5, 2.0], _check(lambda v: _is_list(v, 2),
                                         "must be a list of 2 numbers")),
            "shape": ([40, 40], _check(
                lambda v: isinstance(v, list) and len(v) == 2
                and all(_is_int(n, 3) for n in v) and v[0] * v[1] <= MAX_SIZE,
                "must be 2 integers >= 3, at most %d nodes" % MAX_SIZE))}),
        "probes": (_OPTIONAL, _check(
            lambda v: v is None or isinstance(v, list) and len(v) > 0
            and all(_is_list(q, 2) for q in v),
            "must be a non-empty list of [x, y] points"))},
    "ivk-commuting": {**_BASE, "x0": (_OPTIONAL, _NUMBERS), "fields": ({}, {
        "outer_rate": (0.7, _NUMBER), "inner_rate": (0.4, _NUMBER),
        "dimension": (1, _integer(1, math.isqrt(MAX_SIZE)))})},
    "ivk-generic": {**_BASE, "x0": ([0.4, 0.2], _NUMBERS)},
}
_SCHEMA = {
    "format_version": (1, _choice(1)),
    "scenario": ("rotation", _choice(*_SCENARIOS)),
    **dict.fromkeys(_BASE, (_OPTIONAL, None)),  # checked by _scenario
    "driver": ({}, {"type": ("deterministic", _DRIVERS),
                    "horizon": (1.0, _POSITIVE), "step": (0.01, _POSITIVE)}),
    "solver": ({}, {"substeps": (64, _integer(1, MAX_SIZE)),
                    "record_jacobian": (False, _FLAG)}),
    "geometry": ({}, {"eps_det": (1e-12, _NON_NEGATIVE),
                      "cond_cap": (1e8, _POSITIVE)}),
    "ladder": (3, _integer(1, 8)),
    "snapshot_stride": (10, _integer(1)),
    "ensemble": (_OPTIONAL, {
        "n_paths": (_REQUIRED, _integer(1, MAX_SIZE)),
        "observable": ("none", _choice("none", "norm", "first"))}),
}


def _walk(raw, table, path=""):
    """``raw`` checked against one section of a table, defaults filled."""
    _expect(isinstance(raw, dict), path or "config", "must be a mapping")
    prefix = path + "." if path else ""
    table = dict(table)
    for key, (default, check) in list(table.items()):
        if isinstance(check, _Variants):
            pick = raw.get(key, default)
            _expect(isinstance(pick, str) and pick in check, prefix + key,
                    "must be one of %s" % ", ".join(check))
            table.update(check[pick])
    for key in raw:
        _expect(key in table, "%s%s" % (prefix, key),
                "unknown key (expected %s)" % (", ".join(table) or "none"))
    out = {}
    for key, (default, check) in table.items():
        where = prefix + key
        if key in raw:
            val = raw[key]
        elif default is _OPTIONAL:
            continue
        else:
            _expect(default is not _REQUIRED, where, "required")
            val = copy.deepcopy(default)
        if isinstance(check, list):
            _expect(isinstance(val, list), where, "must be a list")
            val = [_walk(item, check[0], "%s[%d]" % (where, i))
                   for i, item in enumerate(val)]
        elif isinstance(check, dict) and not isinstance(check, _Variants):
            val = _walk(val, check, where)
        elif callable(check):
            check(val, where)
        out[key] = val
    return out


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
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    """Fill defaults and validate; the result round-trips through YAML."""
    cfg = _walk(raw, _SCHEMA)
    _check_across(cfg)
    return cfg


def apply_overrides(cfg: dict, seed=None, ladder=None) -> None:
    """Apply ``--seed`` and ``--ladder``, checked as the table checks
    ``driver.seed`` and ``ladder``, to a normalized config."""
    if seed is not None:
        _DRIVERS["levy"]["seed"][1](seed, "--seed")
        cfg["_seed_override"] = seed
    if ladder is not None:
        _SCHEMA["ladder"][1](ladder, "--ladder")
        cfg["ladder"] = ladder


def _check_across(cfg):
    """The rules that relate keys to each other, on a walked config."""
    drv = cfg["driver"]
    horizon, step = drv["horizon"], drv["step"]
    _expect(step <= horizon, "driver.step", "must not exceed the horizon")
    _expect(horizon / step <= MAX_SIZE, "driver.horizon",
            "must be at most %d steps (horizon / step)" % MAX_SIZE)
    levy = drv["type"] == "levy"
    if levy:
        m = drv["dimension"]
        law = drv.get("jump_law", {})
        for key in ("brownian_scale", "drift"):
            _expect(not isinstance(drv[key], list) or len(drv[key]) == m,
                    "driver." + key, "must be a number or a list of %d "
                    "numbers (driver.dimension)" % m)
        for key in _LAW_KINDS.get(law.get("kind"), ()):
            _expect(len(law[key]) == m if isinstance(law[key], list) else m == 1,
                    "driver.jump_law." + key,
                    "must be a list of %d numbers (driver.dimension)" % m)
        _expect(law or drv["jump_intensity"] == 0, "driver.jump_law",
                "required when jump_intensity > 0")
        _expect(drv["jump_intensity"] * horizon <= MAX_SIZE,
                "driver.jump_intensity", "must expect at most %d jumps "
                "(jump_intensity * horizon)" % MAX_SIZE)
    else:
        m = len(drv["ramp_to"])
        taken = set()
        for j, jump in enumerate(drv["jumps"]):
            where = "driver.jumps[%d]" % j
            _expect(jump["time"] <= horizon, where + ".time",
                    "must lie in (0, horizon]")
            k = round(jump["time"] / step)
            _expect(k >= 1 and abs(jump["time"] / step - k) < 1e-9
                    and k not in taken, where + ".time",
                    "must be a multiple of step no other jump has")
            taken.add(k)
            _expect(len(jump["size"]) == m, where + ".size",
                    "must be a list of %d numbers (the driver dimension)" % m)
    full, fields, _ = _scenario(cfg)
    _expect(len(full["x0"]) == fields.dimension, "x0", "must be a list of "
            "%d numbers (the state dimension)" % fields.dimension)
    _expect(m == fields.count, "driver.dimension" if levy else "driver.ramp_to",
            "must match the scenario's %d driving field(s)" % fields.count)
    if cfg["scenario"] == "radial-linear":
        inner, outer = full["mesh"]["radii"]
        _expect(0 < inner < outer, "mesh.radii",
                "must be an inner and an outer radius, 0 < inner < outer")
    if levy:
        build_path_params(cfg)  # the jump law's own rules (low <= high, ...)


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


def build_path_params(cfg: dict, seed_override=None) -> PathParams:
    """Sampling parameters of the config's levy driver."""
    drv = cfg["driver"]
    law = drv.get("jump_law")
    if law is not None:
        try:
            law = getattr(JumpLaw, law["kind"])(
                *(law[key] for key in _LAW_KINDS[law["kind"]]))
        except ValueError as exc:
            raise ConfigError("driver.jump_law: %s" % exc)
    return PathParams(
        horizon=float(drv["horizon"]), step=float(drv["step"]),
        brownian_scale=drv["brownian_scale"], drift=drv["drift"],
        jump_intensity=drv["jump_intensity"], jump_law=law,
        seed=int(drv["seed"] if seed_override is None else seed_override),
        dimension=int(drv["dimension"]))


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
             for j in drv["jumps"]]
    jumps.sort(key=lambda item: item[0])
    return deterministic_path(grid, values, jumps)


def _vec2(a, b):
    """np.stack([a, b], axis=-1) of two arrays without its per-call overhead."""
    out = np.empty(a.shape + (2,))
    out[..., 0], out[..., 1] = a, b
    return out


def _constant_jacobian(M):
    """Jacobian callable of x -> M x: a read-only broadcast of M."""
    M = np.asarray(M, dtype=float)
    return lambda p: np.broadcast_to(M, np.shape(p)[:-1] + M.shape)


def _sphere_tangent_fields() -> VectorFieldSet:
    def x1(p):
        return _vec2(-p[..., 1], p[..., 0])

    def x2(p):
        s = np.sin(p[..., 0])
        return _vec2(-p[..., 1] * s, p[..., 0] * s)

    def j2(p):
        s, c = np.sin(p[..., 0]), np.cos(p[..., 0])
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = -p[..., 1] * c
        J[..., 0, 1] = -s
        J[..., 1, 0] = s + p[..., 0] * c
        return J

    j1 = _constant_jacobian([[0.0, -1.0], [1.0, 0.0]])
    return VectorFieldSet.from_callables(2, [x1, x2], [j1, j2])


def _ivk_generic_fields():
    def outer1(p):
        return _vec2(np.sin(p[..., 1]), p[..., 0])

    def outer_j1(p):
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 1] = np.cos(p[..., 1])
        J[..., 1, 0] = 1.0
        return J

    def outer2(p):
        return _vec2(0.3 * p[..., 1], -0.2 * p[..., 0])

    def inner1(p):
        return _vec2(p[..., 1], -0.5 * p[..., 0])

    def inner2(p):
        return _vec2(0.2 * p[..., 0], 0.3 * p[..., 1])

    outer = VectorFieldSet.from_callables(
        2, [outer1, outer2],
        [outer_j1, _constant_jacobian([[0.0, 0.3], [-0.2, 0.0]])])
    inner = VectorFieldSet.from_callables(
        2, [inner1, inner2], [_constant_jacobian([[0.0, 1.0], [-0.5, 0.0]]),
                              _constant_jacobian([[0.2, 0.0], [0.0, 0.3]])])
    return outer, inner


def _radial_pair() -> ComplementaryPair:
    def tangent(p):
        return _vec2(-p[..., 1], p[..., 0])[..., :, None]

    def radial(p):
        return p[..., :, None]

    return ComplementaryPair(Distribution(2, 1, tangent),
                             Distribution(2, 1, radial))


def _scenario(cfg):
    """(the keys the config's scenario reads, checked and with its defaults
    filled in; its driving fields; the inner fields of an ivk-* scenario)."""
    scenario = cfg["scenario"]
    table = _SCENARIOS[scenario]
    full = _walk({key: cfg[key] for key in table if key in cfg}, table)
    fields_cfg, inner = full["fields"], None
    if scenario == "sphere-tangent":
        fields = _sphere_tangent_fields()
    elif scenario == "ivk-generic":
        fields, inner = _ivk_generic_fields()
    elif scenario == "ivk-commuting":
        eye = np.eye(fields_cfg["dimension"])
        fields, inner = (VectorFieldSet.linear(np.array([float(rate) * eye]))
                         for rate in (fields_cfg["outer_rate"],
                                      fields_cfg["inner_rate"]))
        if "x0" not in full:
            full["x0"] = [1.0] * fields_cfg["dimension"]
    else:
        mats = ([[[0.0, -1.0], [1.0, 0.0]]] if scenario == "rotation"
                else fields_cfg["matrices"])
        fields = VectorFieldSet.linear(np.asarray(mats, dtype=float))
    return full, fields, inner


def build_problem(cfg: dict) -> dict:
    """Turn a normalized config into library objects for the CLI runners.

    Returns a dict with scenario-dependent keys: always ``kind``, ``fields``
    and ``x0``; linear scenarios add ``matrices`` and ``horizontal_dim``,
    the mesh scenario ``matrices``/``pair``/``chart``/``probes``, the
    verification scenarios ``inner_fields``.
    """
    scenario = cfg["scenario"]
    full, fields, inner = _scenario(cfg)
    out = {"scenario": scenario, "fields": fields,
           "x0": np.asarray(full["x0"], dtype=float)}
    if inner is not None:
        out.update(kind="ivk", inner_fields=inner)
    elif scenario == "radial-linear":
        probes = full.get("probes")
        if probes is None:
            angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
            probes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        mesh = full["mesh"]
        out.update(kind="mesh", matrices=fields.matrices, pair=_radial_pair(),
                   chart=MeshChart.annulus(tuple(map(float, mesh["radii"])),
                                           tuple(mesh["shape"])),
                   probes=np.asarray(probes, dtype=float))
    elif fields.is_linear:
        out.update(kind="linear", matrices=fields.matrices,
                   horizontal_dim=full["horizontal_dim"])
    else:
        out.update(kind="nonlinear")
    return out


def build_marcus_config(cfg: dict) -> MarcusConfig:
    return MarcusConfig(substeps=int(cfg["solver"]["substeps"]))


def build_geometry_config(cfg: dict) -> GeometryConfig:
    geo = cfg["geometry"]
    return GeometryConfig(eps_det=float(geo["eps_det"]),
                          cond_cap=float(geo["cond_cap"]))
