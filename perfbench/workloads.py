"""Workload definitions: seeded inputs for each benchmark workload.

Every workload turns a seed into a list of operations.  An operation is one
``jumpflow`` subcommand on one YAML config; the benchmark runs it as a fresh
process.  Generated configs are written by the benchmark, so the program
only ever sees the YAML.  Shipped configs are read live from ``configs/``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np
import yaml

# The two 3x3 matrices of configs/custom_linear.yaml.
CUSTOM_LINEAR_MATRICES = [
    [[0.0, -0.3, 0.0], [0.3, 0.0, 0.1], [0.0, -0.1, 0.0]],
    [[0.1, 0.0, 0.2], [0.0, -0.1, 0.0], [-0.2, 0.0, 0.1]],
]
CUSTOM_LINEAR_X0 = [1.0, 0.5, -0.25]

# Sizes are chosen so that one operation takes 2-3.5 s on a 2-vCPU x86-64
# host, and a 30 s run repeats it about ten times.
N_PATHS = 500           # ensemble-mc

# Shipped (config, subcommand) pairs, cheap ones first so that a partial
# second cycle still repeats several of them.
SHIPPED_PAIRS = [
    ("rotation.yaml", "simulate"),
    ("rotation.yaml", "decompose"),
    ("rotation_jump.yaml", "decompose"),
    ("sphere_tangent.yaml", "simulate"),
    ("custom_linear.yaml", "simulate"),
    ("custom_linear.yaml", "decompose"),
    ("ivk_commuting.yaml", "verify-ivk"),
    ("ivk_continuous.yaml", "verify-ivk"),
    ("ivk_jump.yaml", "verify-ivk"),
    ("convergence_linear.yaml", "convergence"),
    ("ensemble_linear.yaml", "ensemble"),
    ("radial_linear.yaml", "decompose"),
]

# Artifacts each subcommand must write, besides run_meta.txt.
ARTIFACTS = {
    "simulate": ("driver.csv", "trajectory.csv", "summary.json"),
    "decompose": ("diagnostics.jsonl", "summary.json"),
    "verify-ivk": ("ivk_ladder.jsonl", "summary.json"),
    "convergence": ("convergence.json",),
    "ensemble": ("ensemble.json",),
}


@dataclass
class Operation:
    """One CLI invocation: ``jumpflow <command> --config <config> <extra>``."""

    label: str
    command: str
    config: str
    extra: list = field(default_factory=list)
    size: dict = field(default_factory=dict)
    step: float = 0.0

    def argv(self, outdir):
        return [self.command, "--config", self.config, "--out", outdir] \
            + list(self.extra)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, root, workdir) -> list[Operation]


# Generated configs use the README's documented keys, plus the two that
# shipped configs need and the README schema omits: ``fields.matrices`` for
# custom-linear and ``low``/``high`` of the uniform jump law.
def write_config(path, cfg):
    with open(path, "w") as fh:
        fh.write(yaml.safe_dump(cfg, sort_keys=False, default_flow_style=None))


def _grid_steps(horizon, step):
    return int(math.ceil(horizon / step - 1e-12))


def _levy(seed, step, scale, drift, intensity, half_width):
    return {
        "type": "levy", "horizon": 1.0, "step": step, "seed": seed,
        "dimension": 2, "brownian_scale": scale, "drift": drift,
        "jump_intensity": intensity,
        "jump_law": {"kind": "uniform", "low": [-half_width, -half_width],
                     "high": [half_width, half_width]},
    }


def _levy_size(drv, paths=1):
    steps = _grid_steps(drv["horizon"], drv["step"])
    return {"grid_steps": steps, "paths": paths,
            "jumps_expected": drv["jump_intensity"] * drv["horizon"] * paths}


def _shipped(seed, root, workdir):
    ops = []
    for name, command in SHIPPED_PAIRS:
        path = os.path.join(root, "configs", name)
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
        drv = cfg["driver"]
        levy = drv["type"] == "levy"
        size = {"grid_steps": _grid_steps(drv["horizon"], drv["step"]),
                "paths": cfg.get("ensemble", {}).get("n_paths", 1)}
        if levy:
            size["jumps_expected"] = (drv.get("jump_intensity", 0.0)
                                      * drv["horizon"] * size["paths"])
        else:
            size["jumps"] = len(drv.get("jumps", []))
        if command in ("verify-ivk", "convergence"):
            size["ladder_rungs"] = cfg.get("ladder", 3)
        if cfg["scenario"] == "radial-linear":
            shape = cfg.get("mesh", {}).get("shape", [40, 40])
            size["mesh_nodes"] = shape[0] * shape[1]
        ops.append(Operation(
            label="%s:%s" % (command, name[:-5]), command=command,
            config=path, extra=["--seed", str(seed)] if levy else [],
            size=size, step=float(drv["step"])))
    return ops


def jump_count(driver_seed, intensity, horizon=1.0):
    """Jumps a Levy driver draws, by the README's substream scheme
    (spawn key 1: jump times)."""
    seq = np.random.SeedSequence(entropy=driver_seed, spawn_key=(1,))
    return int(np.random.default_rng(seq).poisson(intensity * horizon))


def driver_seed_with_jumps(seed, intensity, count):
    """The workload seed itself, or else the first of a chain of values
    derived from it, whose driver draws exactly ``count`` jumps.

    The cost of a verify-ivk ladder grows with every jump (each adds rows
    and an RK4 jump flow over all later rows), so an unconditioned Poisson
    count would make the cost of an operation vary about twofold from seed
    to seed.  Holding the count at its mean fixes the input size; the jump
    times and sizes still come from the seed.
    """
    chain = random.Random(seed)
    candidate = seed
    for _ in range(10000):
        if jump_count(candidate, intensity) == count:
            return candidate
        candidate = chain.getrandbits(63)
    raise RuntimeError("no driver seed with %d jumps" % count)


def _ivk_ladder(seed, root, workdir):
    drv = _levy(driver_seed_with_jumps(seed, 3.0, 3), 0.02, 0.4, 0.1, 3.0,
                0.5)
    cfg = {"format_version": 1, "scenario": "ivk-generic", "x0": [0.4, 0.2],
           "driver": drv, "ladder": 5}
    path = os.path.join(workdir, "ivk_ladder.yaml")
    write_config(path, cfg)
    size = _levy_size(drv)
    size["jumps"] = 3
    size["ladder_rungs"] = cfg["ladder"]
    size["finest_grid_steps"] = size["grid_steps"] * 2 ** (cfg["ladder"] - 1)
    return [Operation("verify-ivk:ivk-ladder", "verify-ivk", path,
                      size=size, step=drv["step"])]


def _custom_linear(seed, step):
    return {"format_version": 1, "scenario": "custom-linear",
            "x0": CUSTOM_LINEAR_X0,
            "fields": {"matrices": CUSTOM_LINEAR_MATRICES},
            "driver": _levy(seed, step, 0.25, 0.0, 3.0, 0.3)}


def _ensemble_mc(seed, root, workdir):
    cfg = _custom_linear(seed, 0.02)
    cfg["ensemble"] = {"n_paths": N_PATHS, "observable": "norm"}
    path = os.path.join(workdir, "ensemble_mc.yaml")
    write_config(path, cfg)
    return [Operation("ensemble:ensemble-mc", "ensemble", path,
                      size=_levy_size(cfg["driver"], paths=N_PATHS),
                      step=cfg["driver"]["step"])]


def _decompose_linear(seed, root, workdir):
    cfg = _custom_linear(seed, 0.00025)
    path = os.path.join(workdir, "decompose_linear.yaml")
    write_config(path, cfg)
    return [Operation("decompose:decompose-linear", "decompose", path,
                      size=_levy_size(cfg["driver"]),
                      step=cfg["driver"]["step"])]


WORKLOADS = {w.name: w for w in [
    Workload("shipped",
             "every shipped config and subcommand as a process: startup, "
             "config and writers dominate",
             _shipped),
    Workload("ivk-ladder",
             "verify-ivk at ladder 5 on a Levy driver with 3 jumps: the "
             "O(K^2) frozen-row sweep and RK4 Jacobian jump flows",
             _ivk_ladder),
    Workload("ensemble-mc",
             "500-path jump ensemble: per-path driver sampling, Heun loop "
             "and one expm per jump",
             _ensemble_mc),
    Workload("decompose-linear",
             "linear factorization over 4000 steps: structured rhs "
             "(det, cond, solve) and JSONL rows",
             _decompose_linear),
]}
