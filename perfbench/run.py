"""jumpflow benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is a fresh ``python -m jumpflow.cli <subcommand>`` process on
an input generated from the seed.  The next operation starts only after the
previous one has exited.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` operations alternate between plain and
traced processes (``tracer.py``) and the line reports per-layer metrics plus
the tracing overhead.  The line before it holds the details: environment,
input sizes, sample counts and every operation's raw numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from artifacts import FailureDetector, facts  # noqa: E402
from tracer import IMPORT_SPAN, boundary_names, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
GOLDEN = os.path.join(HERE, "golden.json")
WORK_DIR = ".perfbench_work"
OP_TIMEOUT_S = 150.0
MIN_OPERATIONS = 3      # and at least one whole cycle of the schedule
SETUP_REPEATS = 6       # set-ups spread over the window

SETUP_CODE = (
    "import sys\n"
    "import jumpflow.cli\n"
    "from jumpflow.config import build_problem, load_config\n"
    "for path in sys.argv[1:]:\n"
    "    build_problem(load_config(path))\n"
)

ENV_CODE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy, scipy.linalg
libs = []
with open("/proc/self/maps") as fh:
    for line in fh:
        path = line.split()[-1]
        base = os.path.basename(path).lower()
        if any(k in base for k in ("blas", "lapack", "mkl")) \
                and ".so" in base and path not in [l["path"] for l in libs]:
            libs.append({"path": path})
for lib in libs:
    try:
        handle = ctypes.CDLL(lib["path"])
    except OSError:
        continue
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "scipy_openblas_get_num_threads64_", "MKL_Get_Max_Threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            lib["threads"] = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": libs,
}))
"""


def run_child(argv, env, cwd, log_path, timeout):
    """Run a child process; time it from spawn to exit and read its wait4
    rusage.  A child still running after ``timeout`` seconds is killed."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a recycled
            # pid; then reap and read the rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - started
            with lock:
                state["reaped"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with lock:
                if not state["reaped"]:
                    proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": -9 if state["killed"] else proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _log_tail(path, limit=400):
    with open(path, "rb") as fh:
        return fh.read()[-limit:].decode("utf-8", "replace")


def child_env(root):
    """The caller's environment unchanged, plus ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe_environment(root, env, workdir):
    log = os.path.join(workdir, "env.log")
    res = run_child([sys.executable, "-c", ENV_CODE], env, root, log, 60)
    info = {}
    if res["code"] == 0:
        info = json.loads(_log_tail(log, 100000).strip().splitlines()[-1])
    try:
        info["nproc"] = len(os.sched_getaffinity(0))
    except AttributeError:
        info["nproc"] = os.cpu_count()
    info["cpu_count"] = os.cpu_count()
    info["git_sha"] = _git_sha(root)
    # The line count is reported, not compared; the digest identifies the
    # source where the checkout is not a git repository.
    lines = 0
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "jumpflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                blob = fh.read()
            lines += blob.count(b"\n")
            digest.update(name.encode() + b"\0" + blob)
    info["src_lines"] = lines
    info["src_sha256"] = digest.hexdigest()
    return info


def _git_sha(root):
    """HEAD of the repository rooted at ``root``, or None if there is none.
    Git is kept from searching the directories above the checkout."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_child(ops, root, env, workdir):
    """Wall seconds of a fresh interpreter that imports the CLI and builds
    the workload's problems."""
    configs = sorted({op.config for op in ops})
    argv = [sys.executable, "-c", SETUP_CODE] + configs
    log = os.path.join(workdir, "setup.log")
    res = run_child(argv, env, root, log, OP_TIMEOUT_S)
    if res["code"] != 0:
        raise RuntimeError("set-up child failed: %s" % _log_tail(log))
    return res["wall_s"]


def _cli_argv(op, outdir, spans=None):
    if spans is None:
        return [sys.executable, "-m", "jumpflow.cli"] + op.argv(outdir)
    return [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"] \
        + op.argv(outdir)


def run_operations(ops, trace, seconds, root, env, workdir, detector,
                   recorded=None):
    """Closed loop over the schedule until the measuring window is spent.

    Set-up children are interleaved with the operations: set-up ``j`` runs
    at the first operation boundary after ``j / SETUP_REPEATS`` of the
    window, so both figures sample the whole window.  Returns the operation
    records and the set-up times.

    ``recorded``, when given, receives the pinned facts of each label's
    first successful operation.
    """
    schedule = [(op, t) for op in ops for t in ((False, True) if trace
                                                else (False,))]
    minimum = max(len(schedule), MIN_OPERATIONS + trace)
    # After the minimum, stop once the window is spent or when the next
    # operation, judged by its last repeat, would overrun it.
    last_wall = {}
    records = []
    setup = []
    setup_child(ops, root, env, workdir)    # warm-up, discarded
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if len(setup) < SETUP_REPEATS \
                and now - started >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_child(ops, root, env, workdir))
            continue
        op, traced = schedule[i % len(schedule)]
        guess = last_wall.get((op.label, traced), 0.0)
        if i >= minimum and (now >= deadline or now + guess > deadline):
            break
        outdir = os.path.join(workdir, "op%d" % i)
        spans = os.path.join(workdir, "spans%d.json" % i) if traced else None
        log = os.path.join(workdir, "op%d.log" % i)
        res = run_child(_cli_argv(op, outdir, spans), env, root, log,
                        OP_TIMEOUT_S)
        last_wall[(op.label, traced)] = res["wall_s"]
        rec = dict(res, label=op.label, traced=traced)
        reasons = detector.judge(op, res["code"], outdir)
        if spans is not None:
            try:
                with open(spans) as fh:
                    payload = json.load(fh)
                rec["layers"] = self_times(payload)
                rec["missing"] = payload["missing"]
                rec["aliases"] = payload["aliases"]
            except (OSError, ValueError) as exc:
                reasons.append("spans unreadable: %s" % exc)
            if os.path.exists(spans):
                os.remove(spans)
        if reasons:
            rec["failed"] = reasons
            rec["log"] = _log_tail(log)
        elif recorded is not None and op.label not in recorded:
            recorded[op.label] = facts(op.command, res["code"], outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        records.append(rec)
        i += 1
        if res["code"] == -9:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_child(ops, root, env, workdir))
    return records, setup


def _per_label_median(records, key):
    """Median over operation labels of each label's median."""
    by_label = {}
    for rec in records:
        by_label.setdefault(rec["label"], []).append(rec[key])
    return statistics.median(statistics.median(v) for v in by_label.values())


def plain_metrics(records, setup):
    return {
        "run_s": {"value": _per_label_median(records, "wall_s"), "unit": "s"},
        "cpu_s": {"value": _per_label_median(records, "cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _per_label_median(records, "peak_rss_mb"),
                        "unit": "MB"},
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(records):
    """Per boundary: calls and median self seconds per operation.

    For a workload of several operation labels, each label's median is taken
    first and the figure is the mean over labels (one process of each).
    Calls must repeat exactly across the traced repeats of one label.
    """
    traced = [r for r in records if r["traced"]]
    names = boundary_names() + [IMPORT_SPAN]
    by_label = {}
    for rec in traced:
        if "layers" in rec:
            by_label.setdefault(rec["label"], []).append(rec["layers"])
    problems = []
    metrics = {}
    for name in names:
        calls, self_s = [], []
        for label, runs in sorted(by_label.items()):
            counts = {run[name][0] for run in runs}
            if len(counts) != 1:
                problems.append("%s calls vary on %s: %s"
                                % (name, label, sorted(counts)))
            calls.append(runs[0][name][0])
            self_s.append(statistics.median(run[name][1] for run in runs))
        if name != IMPORT_SPAN:
            metrics[name + ".calls"] = {"value": _mean(calls),
                                        "unit": "count"}
        metrics[name + ".self_s"] = {"value": _mean(self_s), "unit": "s"}
    plain = [r for r in records if not r["traced"]]
    traced_s = _per_label_median(traced, "wall_s")
    plain_s = _per_label_median(plain, "wall_s")
    metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s - 1.0,
                                 "unit": "ratio"}
    return metrics, problems


def _check_layout(root):
    needed = [os.path.join(root, "src", "jumpflow", "cli.py"),
              os.path.join(root, "configs")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: run from a jumpflow checkout; missing: "
                         "%s\n" % ", ".join(os.path.relpath(p, root)
                                            for p in missing))
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the default seed's pinned facts in "
                             "golden.json instead of checking them")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = os.getcwd()
    _check_layout(root)
    if args.record_golden and args.seed != DEFAULT_SEED:
        sys.stderr.write("perfbench: --record-golden needs --seed %d\n"
                         % DEFAULT_SEED)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(root, WORK_DIR, "%s-%d-%d"
                           % (workload.name, args.seed, os.getpid()))
    os.makedirs(workdir)
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        with open(GOLDEN) as fh:
            golden = json.load(fh)[workload.name]
    detector = FailureDetector(golden)
    recorded = {} if args.record_golden else None
    try:
        env = child_env(root)
        ops = workload.build(args.seed, root, workdir)
        info = probe_environment(root, env, workdir)
        records, setup = run_operations(ops, bool(args.trace), args.seconds,
                                        root, env, workdir, detector,
                                        recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    failed = sum(1 for r in records if "failed" in r)
    problems = []
    if args.trace:
        metrics, problems = layer_metrics(records)
    else:
        metrics = plain_metrics(records, setup)
    if args.record_golden:
        with open(GOLDEN) as fh:
            table = json.load(fh)
        table[workload.name] = recorded
        with open(GOLDEN, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    detail = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": info,
        "sizes": {op.label: op.size for op in ops},
        "samples": {"operations": len(records), "setup": len(setup),
                    "labels": len(ops)},
        "fail_ratio": failed / max(len(records), 1),
        "setup_s": setup, "problems": problems, "operations": records,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
