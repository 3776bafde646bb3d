"""Run every workload and print the benchmark's figures by name.

Usage (from the repository root):

    python3 perfbench/report.py [--seeds 1,2,3] [--out FILE]

For each workload it runs ``run.py --trace 0`` once per seed, for
``BENCHMARK.json``'s ``run_seconds``, and prints
``run_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb`` and ``fail_ratio`` with
unit, median, quartiles, spread (quartile distance over median) and sample
counts.  It then runs ``run.py --trace 1`` once per workload on the default
seed, whose pinned facts ``golden.json`` holds, prints each
boundary's calls and self time and the tracing overhead, and states for each
row of the layer table below whether its heavy/light prediction held at this
commit: the rows' summed self time, as a share of the traced operation time,
must be larger on the heavy workload than on every light one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED  # noqa: E402
from tracer import IMPORT_SPAN, boundary_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

E2E = [("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
       ("peak_rss_mb", "MB")]


def _names(*prefixes):
    return [n for n in boundary_names() + [IMPORT_SPAN]
            if any(n == p or n.startswith(p + ".") for p in prefixes)]


# Workloads of the design that the benchmark does not run, with the reason.
DROPPED = {
    "decompose-mesh":
        "the radial-linear mesh factorization; five workloads did not fit "
        "runs long enough to be steady in the time all runs may take, and "
        "its problem and layers (decompose_pointwise, mesh, geometry) stay "
        "measured by shipped's radial_linear decompose pair",
}

# (layer metrics, end-to-end metrics they move, heavy, light workloads)
LAYER_TABLE = [
    ("cli.import, config.*", _names("cli.import", "config"),
     "setup_s, run_s", "shipped", ["ivk-ladder", "ensemble-mc"]),
    ("semimartingale.sample_levy_jump_diffusion",
     _names("semimartingale.sample_levy_jump_diffusion"),
     "run_s, cpu_s", "ensemble-mc", ["decompose-linear"]),
    ("marcus.solve_point, odeflow.VectorFieldSet.field_matrix, odeflow.expm",
     _names("marcus.solve_point", "odeflow.VectorFieldSet.field_matrix",
            "odeflow.expm"),
     "run_s, cpu_s", "ensemble-mc", ["decompose-linear"]),
    ("marcus.solve_map_batch, odeflow.VectorFieldSet.combo_jacobian, "
     "odeflow.flow*, stratjump.verify_ivk, semimartingale.refine/prefix",
     _names("marcus.solve_map_batch", "odeflow.VectorFieldSet.combo_jacobian",
            "odeflow.flow", "odeflow.flow_with_jacobian",
            "stratjump.verify_ivk", "semimartingale.refine",
            "semimartingale.prefix"),
     "run_s", "ivk-ladder", ["ensemble-mc", "decompose-linear"]),
    ("decompose.decompose_linear_sde, reference.matrix_exp, "
     "decompose.DecompositionRecord.jsonl_rows",
     _names("decompose.decompose_linear_sde", "reference.matrix_exp",
            "decompose.DecompositionRecord.jsonl_rows"),
     "run_s, peak_rss_mb", "decompose-linear", ["ivk-ladder", "ensemble-mc"]),
    # shipped's radial_linear decompose pair is the only run of this code
    # (see DROPPED).
    ("decompose.decompose_pointwise, mesh.*, "
     "geometry.Distribution.basis_batch",
     _names("decompose.decompose_pointwise", "mesh",
            "geometry.Distribution.basis_batch"),
     "run_s", "shipped", ["decompose-linear"]),
    ("*_to_csv, cli.main (the writers)",
     _names("semimartingale.path_to_csv", "marcus.trajectory_to_csv",
            "cli.main"),
     "run_s", "shipped", ["ivk-ladder"]),
]


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(argv),
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def end_to_end(workloads, seeds, seconds, log):
    rows = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            detail, result = run_once(name, seed, seconds, 0)
            runs.append((detail, result))
            log.append({"workload": name, "seed": seed, "trace": 0,
                        "detail": detail, "result": result})
            print("  %s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in sorted(result["metrics"].items()))),
                file=sys.stderr)
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        for metric, unit in E2E:
            vals = [r["metrics"][metric]["value"] for _, r in runs]
            per_run = "setup" if metric == "setup_s" else "operations"
            n = sum(d["samples"][per_run] for d, _ in runs)
            rows[(name, metric)] = (unit, spread(vals), len(vals), n)
        rows[(name, "fail_ratio")] = ("ratio", (failed / attempted,) * 3
                                      + (0.0,), len(runs), attempted)
        rows[(name, "correct")] = all(r["correct"] for _, r in runs)
    return rows


def print_end_to_end(rows, workloads):
    print("%-17s %-12s %-5s %10s %10s %10s %7s %5s %6s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "spread",
             "runs", "ops"))
    for name in workloads:
        for metric, _unit in E2E + [("fail_ratio", "ratio")]:
            unit, (med, q1, q3, spr), nruns, nops = rows[(name, metric)]
            print("%-17s %-12s %-5s %10.4f %10.4f %10.4f %7.3f %5d %6d"
                  % (name, metric, unit, med, q1, q3, spr, nruns, nops))
        print("%-17s correct=%s" % (name, rows[(name, "correct")]))


def traced(workloads, seed, seconds, log):
    out = {}
    for name in workloads:
        detail, result = run_once(name, seed, seconds, 1)
        log.append({"workload": name, "seed": seed, "trace": 1,
                    "detail": detail, "result": result})
        out[name] = (detail, result)
    return out


def print_layers(tr, workloads):
    names = boundary_names() + [IMPORT_SPAN]
    print("\nper-layer (traced run): calls per operation / self seconds")
    print("%-46s" % "boundary" + "".join("%22s" % w for w in workloads))
    for name in names:
        cells = []
        for w in workloads:
            m = tr[w][1]["metrics"]
            calls = m.get(name + ".calls", {"value": 1})["value"]
            cells.append("%9.6g / %9.4f" % (calls, m[name + ".self_s"]["value"]))
        print("%-46s" % name + "".join("%22s" % c for c in cells))
    for key in ("trace.untraced_run_s", "trace.run_s", "trace.overhead"):
        print("%-46s" % key + "".join(
            "%22.4f" % tr[w][1]["metrics"][key]["value"] for w in workloads))
    print("%-46s" % "correct" + "".join(
        "%22s" % tr[w][1]["correct"] for w in workloads))


def share(tr, workload, names):
    m = tr[workload][1]["metrics"]
    return sum(m[n + ".self_s"]["value"] for n in names) \
        / m["trace.run_s"]["value"]


def print_predictions(tr):
    print("\nlayer table: share of traced operation time, heavy vs light")
    verdicts = []
    for label, names, moves, heavy, light in LAYER_TABLE:
        h = share(tr, heavy, names)
        lights = {w: share(tr, w, names) for w in light}
        held = all(h > v for v in lights.values())
        verdicts.append({"row": label, "moves": moves, "heavy": heavy,
                         "heavy_share": h, "light_shares": lights,
                         "held": held})
        print("- %s (moves %s): %s %.3f vs %s -> %s"
              % (label, moves, heavy, h, ", ".join(
                  "%s %.3f" % kv for kv in lights.items()),
                 "held" if held else "DID NOT HOLD"))
    print("- any batching across rows or paths (moves peak_rss_mb): "
          "ensemble-mc, ivk-ladder vs shipped -> not testable here; no "
          "layer batches yet, so compare peak_rss_mb when one does")
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=[1, 2, 3],
                        type=lambda t: [int(s) for s in t.split(",") if s])
    parser.add_argument("--out", help="write every run's JSON here")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        seconds = json.load(fh)["run_seconds"]
    workloads = list(WORKLOADS)
    log = []
    for name, reason in DROPPED.items():
        print("dropped workload %s: %s" % (name, reason))
    rows = end_to_end(workloads, args.seeds, seconds, log)
    print_end_to_end(rows, workloads)
    tr = traced(workloads, DEFAULT_SEED, seconds, log)
    print_layers(tr, workloads)
    log.append({"predictions": print_predictions(tr)})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(log, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
