"""Digest every artifact of a fixed set of CLI runs, for byte-identity checks.

Usage (from any directory):

    python3 tools/artifact_digests.py [--seed N] [--root CHECKOUT] > out.json

The runs are every operation that ``perfbench/workloads.py`` of the checkout
builds at ``--seed`` (the twelve shipped config/subcommand pairs and the
generated workload configs), plus ``simulate`` on ``rotation_jump.yaml``,
``ivk_jump.yaml`` and ``radial_linear.yaml``, plus three edited shipped
configs written into the scratch directory (``EXTRA_EDITED``):
``custom_linear.yaml`` simulated with ``solver.record_jacobian: true``,
``radial_linear.yaml`` decomposed with ``geometry.cond_cap: 1.0`` (a NaN
``det_block`` at tau 0), ``rotation.yaml`` simulated with a jump of
``[1e308]`` (exit 3, no artifacts), and three ensembles whose blocks
reach the sampler's and the screening's edge cases: ``ensemble_linear.yaml``
with drift, gaussian jumps and 700 paths (three blocks, the last one
partial), ``custom_linear.yaml`` with 40 paths and ``brownian_scale: [0.25,
0.0]`` (a channel with no draws, two blocks) and ``ensemble_linear.yaml``
with a constant jump of ``[800.0]`` at intensity 1 and the ``norm``
observable (most paths overflow and are screened out).  Each run is a fresh
``python -m jumpflow.cli`` process on the checkout's ``src``.  The output
maps each run's label to its exit code, its stderr, the SHA-256 of every
file it wrote, except ``run_meta.txt`` (which holds timings), and the
SHA-256 of the ``--dump-config`` output of the same command with the same
flags (``--seed``, ``--ladder``), so that a comparison covers config
normalization too.  That output is also recorded line by line, so a
``diff`` of two reports names the config key that changed.  Paths of the
checkout and of the scratch directory are replaced by ``<root>`` and
``<work>`` in stderr, so two checkouts can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import yaml

EXTRA_SIMULATE = ("rotation_jump.yaml", "ivk_jump.yaml", "radial_linear.yaml")

# (label, subcommand, shipped config, edit): writer branches the runs
# above miss, generated into the work directory
EXTRA_EDITED = (
    ("simulate:custom_linear-jacobian", "simulate", "custom_linear.yaml",
     lambda cfg: cfg.setdefault("solver", {}).update(record_jacobian=True)),
    ("decompose:radial_linear-cond_cap-1", "decompose", "radial_linear.yaml",
     lambda cfg: cfg.update(geometry={"cond_cap": 1.0})),
    ("simulate:rotation-jump-1e308", "simulate", "rotation.yaml",
     lambda cfg: cfg["driver"].update(
         jumps=[{"time": 0.5, "size": [1e308]}])),
    ("ensemble:ensemble_linear-gaussian-700", "ensemble",
     "ensemble_linear.yaml",
     lambda cfg: (cfg["driver"].update(drift=0.3, jump_intensity=2.0,
                                       jump_law={"kind": "gaussian",
                                                 "mean": [0.1],
                                                 "scale": [0.2]}),
                  cfg["ensemble"].update(n_paths=700))),
    ("ensemble:custom_linear-scale-0", "ensemble", "custom_linear.yaml",
     lambda cfg: (cfg["driver"].update(brownian_scale=[0.25, 0.0]),
                  cfg.update(ensemble={"n_paths": 40, "observable": "norm"}))),
    ("ensemble:ensemble_linear-constant-800", "ensemble",
     "ensemble_linear.yaml",
     lambda cfg: (cfg["driver"].update(jump_intensity=1.0,
                                       jump_law={"kind": "constant",
                                                 "value": [800.0]}),
                  cfg["ensemble"].update(observable="norm"))),
)


def operations(root, seed, workdir):
    """(label, argv after ``jumpflow.cli``) pairs, without ``--out``."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    runs = []
    for workload in workloads.WORKLOADS.values():
        for op in workload.build(seed, root, workdir):
            runs.append((op.label, [op.command, "--config", op.config]
                         + list(op.extra)))
    for name in EXTRA_SIMULATE:
        runs.append(("simulate:" + name[:-5],
                     ["simulate", "--config",
                      os.path.join(root, "configs", name)]))
    for label, command, name, edit in EXTRA_EDITED:
        with open(os.path.join(root, "configs", name)) as fh:
            cfg = yaml.safe_load(fh)
        edit(cfg)
        path = os.path.join(workdir, label.replace(":", "-") + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        runs.append((label, [command, "--config", path]))
    return runs


def digest_run(root, argv, outdir, workdir):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")

    def cli(*extra):
        return subprocess.run([sys.executable, "-m", "jumpflow.cli"] + argv
                              + list(extra), env=env, cwd=root,
                              capture_output=True, text=True)

    proc = cli("--out", outdir)
    dump = cli("--dump-config")
    files = {}
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            if name == "run_meta.txt":
                continue
            with open(os.path.join(outdir, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    stderr = proc.stderr.replace(workdir, "<work>").replace(root, "<root>")
    return {"exit": proc.returncode, "stderr": stderr, "files": files,
            "dump_config": hashlib.sha256(dump.stdout.encode()).hexdigest(),
            "dump_config_text": dump.stdout.splitlines()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="checkout to run (default: the one holding this script)")
    args = parser.parse_args(argv)
    root = os.path.realpath(args.root)
    report = {}
    with tempfile.TemporaryDirectory(prefix="digests_") as workdir:
        workdir = os.path.realpath(workdir)
        for i, (label, run_argv) in enumerate(operations(root, args.seed,
                                                         workdir)):
            outdir = os.path.join(workdir, "run%02d" % i)
            report[label] = digest_run(root, run_argv, outdir, workdir)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
