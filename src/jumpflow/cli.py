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

Every run writes ``run_meta.txt`` (wall time, argument vector); all other
outputs are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (build_driver, build_geometry_config, build_marcus_config,
                     build_path_params, build_problem, dump_config,
                     load_config)
from .convergence import fit_order
from .decompose import (LinearSystem, decompose_linear_sde,
                        decompose_pointwise, verify_composition)
from .errors import ConfigError, IntegrationFailure
from .marcus import solve_ensemble, solve_point, solve_with_jacobian, \
    trajectory_to_csv
from .semimartingale import path_to_csv, refine
from .stratjump import verify_ivk

RATIO_BOUND = 0.6
RESIDUAL_FLOOR = 1e-12
CONCAT_BOUND = 1e-8


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _write_meta(outdir, argv, started):
    with open(outdir + "/run_meta.txt", "w") as fh:
        fh.write("argv: %s\n" % " ".join(argv))
        fh.write("version: %s\n" % __version__)
        fh.write("wall_seconds: %.3f\n" % (time.monotonic() - started))


def _f(x):
    return float(x)


def _run_simulate(cfg, problem, outdir):
    driver = build_driver(cfg, cfg.get("_seed_override"))
    mcfg = build_marcus_config(cfg)
    if mcfg.record_jacobian:
        traj = solve_with_jacobian(problem["fields"], driver,
                                   problem["x0"], mcfg)
    else:
        traj = solve_point(problem["fields"], driver, problem["x0"], mcfg)
    with open(outdir + "/driver.csv", "w") as fh:
        path_to_csv(driver, fh)
    with open(outdir + "/trajectory.csv", "w") as fh:
        trajectory_to_csv(traj, fh, include_jacobian=mcfg.record_jacobian)
    summary = {
        "format_version": 1,
        "scenario": problem["scenario"],
        "horizon": _f(driver.horizon),
        "n_steps": int(driver.grid.shape[0] - 1),
        "n_jumps": int(driver.jump_times.shape[0]),
        "final_state": [_f(v) for v in traj.final_state()],
    }
    _write_json(outdir + "/summary.json", summary)
    return 0


def _run_decompose(cfg, problem, outdir):
    driver = build_driver(cfg, cfg.get("_seed_override"))
    mcfg = build_marcus_config(cfg)
    geo = build_geometry_config(cfg)
    if problem["kind"] == "linear":
        system = LinearSystem(problem["matrices"], problem["horizontal_dim"])
        record = decompose_linear_sde(system, driver, mcfg, geo)
        probes = np.eye(system.dimension)
        comp = verify_composition(record, probes)
    elif problem["kind"] == "mesh":
        record = decompose_pointwise(problem["fields"], problem["pair"],
                                     driver, problem["chart"],
                                     problem["probes"], mcfg, geo,
                                     snapshot_stride=cfg["snapshot_stride"])
        comp = record.residual_sup
    else:
        raise ConfigError("scenario: scenario %r has no decomposition mode"
                          % problem["scenario"])
    with open(outdir + "/diagnostics.jsonl", "w") as fh:
        header = {"format_version": 1, "kind": "decomposition-diagnostics",
                  "mode": record.mode, "tau": _f(record.tau),
                  "tau_reason": record.tau_reason}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in record.jsonl_rows():
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = {
        "format_version": 1,
        "scenario": problem["scenario"],
        "mode": record.mode,
        "horizon": _f(driver.horizon),
        "tau": _f(record.tau),
        "tau_reason": record.tau_reason,
        "degenerate_jump_target": bool(record.degenerate_jump_target),
        "stopped_early": bool(record.stopped_early),
        "max_composition_residual": _f(np.max(comp)),
        "final_det_block": _f(record.det_block[-1]),
        "max_renorm_deviation": _f(np.max(record.renorm_deviation)),
    }
    _write_json(outdir + "/summary.json", summary)
    return 4 if record.stopped_early else 0


def _run_verify_ivk(cfg, problem, outdir):
    if problem["kind"] != "ivk":
        raise ConfigError("scenario: verify-ivk needs an ivk-* scenario")
    driver = build_driver(cfg, cfg.get("_seed_override"))
    mcfg = build_marcus_config(cfg)
    report = verify_ivk(problem["fields"], problem["inner_fields"], driver,
                        problem["x0"], mcfg, ladder=cfg["ladder"])
    with open(outdir + "/ivk_ladder.jsonl", "w") as fh:
        header = {"format_version": 1, "kind": "ivk-ladder",
                  "ladder": int(cfg["ladder"])}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in report.jsonl_rows():
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    finest = report.rungs[-1]
    ratios = [_f(r) for r in report.ratios]
    ratio_ok = all(r <= RATIO_BOUND for r in ratios) \
        or finest.residual_sup < RESIDUAL_FLOOR
    concat = report.jump_concat_residual
    concat_ok = concat is None or concat <= CONCAT_BOUND
    summary = {
        "format_version": 1,
        "scenario": problem["scenario"],
        "ratios": ratios,
        "residual_sup": [_f(r.residual_sup) for r in report.rungs],
        "jump_concat_residual": None if concat is None else _f(concat),
        "ratio_bound": RATIO_BOUND,
        "passes": bool(ratio_ok and concat_ok),
    }
    _write_json(outdir + "/summary.json", summary)
    return 0 if summary["passes"] else 4


def _run_convergence(cfg, problem, outdir):
    base = build_driver(cfg, cfg.get("_seed_override"))
    mcfg = build_marcus_config(cfg)
    levels = cfg["ladder"]
    fields, x0 = problem["fields"], problem["x0"]
    finals, steps = [], []
    for k in range(levels):
        drv = refine(base, 2 ** k) if k else base
        traj = solve_point(fields, drv, x0, mcfg)
        finals.append(traj.final_state())
        steps.append(_f(cfg["driver"]["step"]) / 2 ** k)
    ref_driver = refine(base, 2 ** (levels + 1))
    ref = solve_point(fields, ref_driver, x0, mcfg).final_state()
    errors = [_f(np.max(np.abs(f - ref))) for f in finals]
    order = fit_order(steps, errors)
    summary = {
        "format_version": 1,
        "scenario": problem["scenario"],
        "steps": steps,
        "errors": errors,
        "order": _f(order) if np.isfinite(order) else None,
    }
    _write_json(outdir + "/convergence.json", summary)
    return 0


def _run_ensemble(cfg, problem, outdir):
    if cfg["driver"]["type"] != "levy":
        raise ConfigError("driver.type: ensemble needs a levy driver")
    if "ensemble" not in cfg:
        raise ConfigError("ensemble: section required for this subcommand")
    params = build_path_params(cfg, cfg.get("_seed_override"))
    mcfg = build_marcus_config(cfg)
    name = cfg["ensemble"]["observable"]
    observables = {}
    if name == "norm":
        observables["norm"] = lambda t, x: np.linalg.norm(x, axis=-1)
    elif name == "first":
        observables["first"] = lambda t, x: x[..., 0]
    summary_obj = solve_ensemble(problem["fields"], params, problem["x0"],
                                 mcfg, cfg["ensemble"]["n_paths"],
                                 observables=observables)
    payload = {
        "format_version": 1,
        "scenario": problem["scenario"],
        "n_paths": int(summary_obj.n_paths),
        "n_failures": int(summary_obj.n_failures),
        "times": [_f(t) for t in summary_obj.times],
        "mean": [[_f(v) for v in row] for row in summary_obj.mean],
        "variance": [[_f(v) for v in row] for row in summary_obj.variance],
    }
    if name in summary_obj.observable_mean:
        payload["observable"] = name
        payload["observable_mean"] = [
            _f(v) for v in summary_obj.observable_mean[name]]
        payload["observable_variance"] = [
            _f(v) for v in summary_obj.observable_variance[name]]
    _write_json(outdir + "/ensemble.json", payload)
    return 0


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
                       help="override the driver seed")
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
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("--seed: must be an unsigned 64-bit integer")
            cfg["_seed_override"] = args.seed
        if args.ladder is not None:
            if not 1 <= args.ladder <= 8:
                raise ConfigError("--ladder: must be in [1, 8]")
            cfg["ladder"] = args.ladder
        if args.dump_config:
            shown = {k: v for k, v in cfg.items() if not k.startswith("_")}
            sys.stdout.write(dump_config(shown))
            return 0
        problem = build_problem(cfg)
        os.makedirs(args.out, exist_ok=True)
        code = _RUNNERS[args.command](cfg, problem, args.out)
        _write_meta(args.out, ["jumpflow", args.command] + argv[1:], started)
        return code
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except IntegrationFailure as exc:
        when = "" if exc.time is None else " at t=%g" % exc.time
        print("integration failure%s: %s" % (when, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
