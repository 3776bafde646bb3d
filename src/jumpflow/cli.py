"""Command-line entry points.

Subcommands
-----------
simulate     integrate one trajectory and write CSV + JSON summaries
decompose    factor the flow into horizontal/vertical components
verify-ivk   run the chain-rule refinement ladder for a composed flow
convergence  dyadic step-size study against a fine-grid reference
ensemble     Monte Carlo moment summary over independent drivers

Exit codes: 0 success, 2 bad configuration or arguments, 3 integration
failure, 4 a verified property was violated (ladder ratio out of bounds,
or the decomposition stopped before the horizon).

Each runner computes and returns ``(exit code, {file name: payload})``;
``main`` writes every payload through one writer, ``_write``: a dict is one
JSON document (``format_version`` and ``scenario`` added), a list is JSONL,
a callable writes a CSV table.  A non-finite number is ``null`` in every
JSON and JSONL artifact.  Every run then writes ``run_meta.txt`` (argument
vector, version, BLAS thread setting, setup, run and wall seconds); all
other outputs are byte-stable for a fixed config and seed.

Process exit: ``python -m jumpflow.cli`` and the ``jumpflow`` script enter
through ``run``, which calls ``main``, flushes stdout and stderr and ends
the process with ``os._exit``: every artifact is closed by then, and
interpreter finalization (mostly numpy's module teardown, 35-45 ms of each
run) is skipped, so atexit handlers do not run.  Under a profiler, a tracer
or a ``sys.monitoring`` tool, or when a flush fails, ``run`` returns the
code for a normal ``sys.exit`` instead.  ``main(argv)`` called from Python
returns its exit code as before.

BLAS threads: every BLAS call here is on stacks of 2x2 and 3x3 matrices,
yet numpy's OpenBLAS starts one worker per core, each spin-waiting until its
timeout (about 0.13 s of CPU per run on a 2-core host).  So this module sets
``OPENBLAS_NUM_THREADS=1`` before it imports numpy, unless the caller has
set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``,
or has loaded numpy already: OpenBLAS then runs its own count, and the
variable would only reach the caller's child processes.  It acts because
``import jumpflow`` loads no numpy, so ``python -m jumpflow.cli`` and the
``jumpflow`` script reach this module first; the package and its other
submodules leave the environment alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# OpenBLAS reads its thread variables once, when numpy loads it; the first
# one set, in OpenBLAS's order of precedence, decides (run_meta.txt names it)
_BLAS_THREADS = next(("%s=%s" % (name, os.environ[name]) for name in (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if name in os.environ), None)
if _BLAS_THREADS is None and "numpy" in sys.modules:
    _BLAS_THREADS = "none set (numpy was loaded before jumpflow.cli)"
elif _BLAS_THREADS is None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _BLAS_THREADS = "OPENBLAS_NUM_THREADS=1 (set by jumpflow)"

# numpy, and every module that imports it, only after the thread setting
import numpy as np

from . import __version__
from .config import (apply_overrides, build_driver, build_geometry_config,
                     build_marcus_config, build_path_params, build_problem,
                     check_subcommand, dump_config, load_config)
from .convergence import fit_order
from .decompose import decompose_linear_sde, decompose_pointwise
from .errors import ConfigError, IntegrationFailure
from .marcus import solve_ensemble, solve_point, solve_with_jacobian, \
    trajectory_to_csv
from .semimartingale import path_to_csv, refine
from .stratjump import verify_ivk

RATIO_BOUND = 0.6
RESIDUAL_FLOOR = 1e-12
CONCAT_BOUND = 1e-8
# one encoder per indent: json.dumps with keywords builds one per call
_ENCODERS = {indent: json.JSONEncoder(sort_keys=True, indent=indent,
                                      allow_nan=False) for indent in (None, 2)}


def _dumps(obj, indent=None):
    """Sorted JSON text, with each non-finite number written as null."""
    try:
        return _ENCODERS[indent].encode(obj)
    except ValueError:  # a NaN or infinity: strict JSON has only null
        obj = json.loads(json.dumps(obj), parse_constant=lambda name: None)
        return _ENCODERS[indent].encode(obj)


def _write(outdir, artifacts):
    """Write each artifact in order: a dict as one indented JSON document,
    a list as JSONL (one object per line), a callable as ``payload(fh)``."""
    for name, payload in artifacts.items():
        with open(outdir + "/" + name, "w") as fh:
            if callable(payload):
                payload(fh)
            elif isinstance(payload, dict):
                fh.write(_dumps(payload, indent=2) + "\n")
            else:
                fh.writelines(_dumps(row) + "\n" for row in payload)


def _write_meta(outdir, argv, started, set_up):
    ran = time.monotonic()
    with open(outdir + "/run_meta.txt", "w") as fh:
        fh.write("argv: %s\n" % " ".join(argv))
        fh.write("version: %s\n" % __version__)
        fh.write("blas_threads: %s\n" % _BLAS_THREADS)
        fh.write("setup_seconds: %.3f\n" % (set_up - started))
        fh.write("run_seconds: %.3f\n" % (ran - set_up))
        fh.write("wall_seconds: %.3f\n" % (ran - started))


def _run_simulate(cfg, problem, mcfg):
    driver = build_driver(cfg)
    with_jacobian = cfg["solver"]["record_jacobian"]
    solve = solve_with_jacobian if with_jacobian else solve_point
    traj = solve(problem["fields"], driver, problem["x0"], mcfg)
    return 0, {
        "driver.csv": lambda fh: path_to_csv(driver, fh),
        "trajectory.csv": lambda fh: trajectory_to_csv(traj, fh),
        "summary.json": {"horizon": driver.horizon,
                         "n_steps": driver.grid.shape[0] - 1,
                         "n_jumps": driver.jump_times.shape[0],
                         "final_state": traj.final_state().tolist()},
    }


def _run_decompose(cfg, problem, mcfg):
    driver = build_driver(cfg)
    geo = build_geometry_config(cfg)
    if problem["kind"] == "linear":
        record = decompose_linear_sde(
            problem["fields"], problem["horizontal_dim"], driver, mcfg, geo)
    else:
        record = decompose_pointwise(problem["fields"], problem["pair"],
                                     driver, problem["chart"],
                                     problem["probes"], mcfg, geo,
                                     snapshot_stride=cfg["snapshot_stride"])
    header = {"format_version": 1, "kind": "decomposition-diagnostics",
              "mode": record.mode, "tau": record.tau,
              "tau_reason": record.tau_reason}
    return 4 if record.stopped_early else 0, {
        "diagnostics.jsonl": [header] + record.jsonl_rows(),
        "summary.json": {
            "mode": record.mode, "horizon": driver.horizon,
            "tau": record.tau, "tau_reason": record.tau_reason,
            "degenerate_jump_target": record.degenerate_jump_target,
            "stopped_early": record.stopped_early,
            "max_composition_residual": float(np.max(record.residual_sup)),
            "final_det_block": float(record.det_block[-1]),
            "max_renorm_deviation": float(np.max(record.renorm_deviation))},
    }


def _run_verify_ivk(cfg, problem, mcfg):
    driver = build_driver(cfg)
    report = verify_ivk(problem["fields"], problem["inner_fields"], driver,
                        problem["x0"], mcfg, ladder=cfg["ladder"])
    ratio_ok = all(r <= RATIO_BOUND for r in report.ratios) \
        or report.rungs[-1].residual_sup < RESIDUAL_FLOOR
    concat = report.jump_concat_residual
    passes = ratio_ok and (concat is None or concat <= CONCAT_BOUND)
    header = {"format_version": 1, "kind": "ivk-ladder",
              "ladder": cfg["ladder"]}
    return 0 if passes else 4, {
        "ivk_ladder.jsonl": [header] + report.jsonl_rows(),
        "summary.json": {
            "ratios": report.ratios,
            "residual_sup": [r.residual_sup for r in report.rungs],
            "jump_concat_residual": concat, "ratio_bound": RATIO_BOUND,
            "passes": passes},
    }


def _run_convergence(cfg, problem, mcfg):
    base = build_driver(cfg)
    levels = cfg["ladder"]
    fields, x0 = problem["fields"], problem["x0"]
    finals, steps = [], []
    for k in range(levels):
        drv = refine(base, 2 ** k)
        finals.append(solve_point(fields, drv, x0, mcfg).final_state())
        steps.append(cfg["driver"]["step"] / 2 ** k)
    ref_driver = refine(base, 2 ** (levels + 1))
    ref = solve_point(fields, ref_driver, x0, mcfg).final_state()
    errors = [float(np.max(np.abs(f - ref))) for f in finals]
    return 0, {"convergence.json": {"steps": steps, "errors": errors,
                                    "order": fit_order(steps, errors)}}


def _run_ensemble(cfg, problem, mcfg):
    params = build_path_params(cfg)
    name = cfg["ensemble"]["observable"]
    observables = {"norm": lambda t, x: np.linalg.norm(x, axis=-1),
                   "first": lambda t, x: x[..., 0]}
    observables = {name: observables[name]} if name in observables else {}
    n_paths = cfg["ensemble"]["n_paths"]
    ens = solve_ensemble(problem["fields"], params, problem["x0"], mcfg,
                         n_paths, observables=observables)
    payload = {"n_paths": n_paths, "n_failures": ens.n_failures,
               "times": ens.times.tolist(), "mean": ens.mean.tolist(),
               "variance": ens.variance.tolist()}
    if observables:
        payload["observable"] = name
        payload["observable_mean"] = ens.observable_mean[name].tolist()
        payload["observable_variance"] = ens.observable_variance[name].tolist()
    return 0, {"ensemble.json": payload}


_RUNNERS = {
    "simulate": _run_simulate,
    "decompose": _run_decompose,
    "verify-ivk": _run_verify_ivk,
    "convergence": _run_convergence,
    "ensemble": _run_ensemble,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jumpflow",
        description="Jump-driven canonical SDEs: simulation, flow "
                    "decomposition and chain-rule verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="set driver.seed of a levy driver")
        p.add_argument("--ladder", type=int, default=None,
                       help="override the refinement depth")
        p.add_argument("--dump-config", action="store_true",
                       help="print the normalized config and exit")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.seed, args.ladder)
        problem = build_problem(cfg)
        check_subcommand(cfg, problem, args.command)
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        set_up = time.monotonic()
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out: cannot create output directory: %s"
                              % exc) from exc
        code, artifacts = _RUNNERS[args.command](cfg, problem,
                                                 build_marcus_config(cfg))
        for payload in artifacts.values():
            if isinstance(payload, dict):
                payload.update(format_version=1, scenario=problem["scenario"])
        _write(args.out, artifacts)
        _write_meta(args.out, ["jumpflow", args.command] + argv[1:], started,
                    set_up)
        return code
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except IntegrationFailure as exc:
        when = "" if exc.time is None else " at t=%g" % exc.time
        print("integration failure%s: %s" % (when, exc), file=sys.stderr)
        return 3


def _observed():
    """Whether a profiler, tracer or monitoring tool (Python 3.12+) is
    installed: it reports at exit, so the process must end normally."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.getprofile() is not None or sys.gettrace() is not None \
        or monitoring is not None \
        and any(monitoring.get_tool(i) is not None for i in range(6))


def run() -> int:
    """Process entry: ``main()``, then end without interpreter
    finalization (see the module docstring)."""
    code = main()
    if _observed():
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a normal exit reports it as before
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
