"""Failure detector for one benchmark operation.

An operation fails when any of these holds:

- it exits with anything other than 0 or 4 (4 is a completed run whose
  monitored criterion failed, which the README documents);
- its exit code, its artifact names, or any byte of an artifact other than
  ``run_meta.txt`` differ from the first repeat of the same input in the run;
- an expected artifact is missing, a JSON/JSONL artifact does not parse
  strictly (``NaN``/``Infinity`` rejected), or a CSV row is short or holds
  a non-finite value;
- on the default seed, its exit code or a pinned fact differs from the
  value recorded in ``golden.json`` beyond the pinned tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import ARTIFACTS

OK_EXIT_CODES = (0, 4)
EXEMPT = "run_meta.txt"


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _check_json(path):
    with open(path) as fh:
        strict_json(fh.read())


def _check_jsonl(path):
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    for line in text.splitlines():
        strict_json(line)


def _check_csv(path):
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    rows = csv.reader(text.splitlines())
    header = next(rows, None)
    if not header:
        raise ValueError("empty CSV")
    count = 0
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row %d has %d cells, header %d"
                             % (count + 1, len(row), len(header)))
        for cell in row:
            if not math.isfinite(float(cell)):
                raise ValueError("non-finite value %r" % cell)
        count += 1
    if not count:
        raise ValueError("CSV has no data rows")


_CHECKERS = {".json": _check_json, ".jsonl": _check_jsonl, ".csv": _check_csv}


def check_artifacts(command, outdir):
    """Return a list of problems with the artifacts in ``outdir``."""
    if not os.path.isdir(outdir):
        return ["no output directory"]
    problems = []
    for name in ARTIFACTS[command] + (EXEMPT,):
        if not os.path.isfile(os.path.join(outdir, name)):
            problems.append("missing %s" % name)
    for name in sorted(os.listdir(outdir)):
        checker = _CHECKERS.get(os.path.splitext(name)[1])
        if checker is None:
            continue
        try:
            checker(os.path.join(outdir, name))
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append("%s: %s" % (name, exc))
    return problems


def fingerprint(code, outdir):
    """Exit code plus a digest of every artifact except run_meta.txt."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name == EXEMPT:
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "files": digests}


# --- facts pinned at the default seed -------------------------------------

def _load(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return strict_json(fh.read())


def facts(command, code, outdir):
    """Pinned facts of one completed operation: exit code, verdicts, floats."""
    out = {"exit": code}
    if command == "simulate":
        s = _load(outdir, "summary.json")
        out.update(n_jumps=s["n_jumps"], final_state=s["final_state"])
    elif command == "decompose":
        s = _load(outdir, "summary.json")
        out.update(tau_reason=s["tau_reason"],
                   stopped_early=s["stopped_early"], tau=s["tau"],
                   final_det_block=s["final_det_block"],
                   max_composition_residual=s["max_composition_residual"])
    elif command == "verify-ivk":
        s = _load(outdir, "summary.json")
        out.update(passes=s["passes"], ratios=s["ratios"],
                   residual_sup=s["residual_sup"],
                   jump_concat_residual=s["jump_concat_residual"])
    elif command == "convergence":
        s = _load(outdir, "convergence.json")
        out.update(errors=s["errors"], order=s["order"])
    elif command == "ensemble":
        s = _load(outdir, "ensemble.json")
        out.update(n_failures=s["n_failures"], final_mean=s["mean"][-1],
                   final_variance=s["variance"][-1],
                   final_observable=s.get("observable_mean", [None])[-1])
    return out


# Tolerances, reusing the acceptance criteria's where one exists: states
# and moments 1e-4 relative (criterion 1 sup error), tau within one grid
# step and the determinant 1e-6 (criterion 6), composition residual 1e-3
# (criterion 7), jump concatenation 1e-8 (criterion 3).  Ladder ratios and
# residuals and convergence errors, which discretization error dominates,
# are pinned here at 1e-3 relative.
_EXACT = ("exit", "tau_reason", "stopped_early", "passes", "n_jumps",
          "n_failures")
_RELATIVE = {"final_state": 1e-4, "final_mean": 1e-4, "final_variance": 1e-4,
             "final_observable": 1e-4, "ratios": 1e-3, "residual_sup": 1e-3,
             "errors": 1e-3, "order": 1e-3}
_ABSOLUTE = {"final_det_block": 1e-6, "max_composition_residual": 1e-3,
             "jump_concat_residual": 1e-8}


def _close(got, want, rel=None, absolute=None):
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w, rel, absolute) for g, w in zip(got, want))
    if want is None or got is None:
        return got is want
    if absolute is not None:
        return abs(got - want) <= absolute
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def compare_facts(got, want, step):
    """Return the names of pinned facts that ``got`` misses."""
    bad = []
    for key, val in want.items():
        if key not in got:
            bad.append(key)
        elif key in _EXACT:
            if got[key] != val:
                bad.append(key)
        elif key == "tau":
            if abs(got[key] - val) > step + 1e-12:
                bad.append(key)
        elif key in _ABSOLUTE:
            if not _close(got[key], val, absolute=_ABSOLUTE[key]):
                bad.append(key)
        elif not _close(got[key], val, rel=_RELATIVE[key]):
            bad.append(key)
    return bad


class FailureDetector:
    """Judges the operations of one run against each other and the golden."""

    def __init__(self, golden=None):
        self.golden = golden  # {label: facts} on the default seed, else None
        self.first = {}       # label -> fingerprint of its first repeat

    def judge(self, op, code, outdir):
        """Return a list of reasons the operation failed (empty: success)."""
        if code not in OK_EXIT_CODES:
            return ["exit code %d" % code]
        reasons = check_artifacts(op.command, outdir)
        if reasons:
            return reasons
        fp = fingerprint(code, outdir)
        ref = self.first.setdefault(op.label, fp)
        if fp != ref:
            if fp["exit"] != ref["exit"]:
                reasons.append("exit code %d, first repeat %d"
                               % (fp["exit"], ref["exit"]))
            for name in sorted(set(fp["files"]) | set(ref["files"])):
                if fp["files"].get(name) != ref["files"].get(name):
                    reasons.append("%s differs from the first repeat" % name)
        if self.golden is not None:
            want = self.golden.get(op.label)
            if want is None:
                reasons.append("no golden facts for %s" % op.label)
            else:
                bad = compare_facts(facts(op.command, code, outdir), want,
                                    op.step)
                reasons.extend("golden mismatch: %s" % k for k in bad)
        return reasons
