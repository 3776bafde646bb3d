"""Traced CLI process: wrap each layer boundary, then run ``jumpflow.cli``.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <jumpflow cli arguments>

The wrappers live in this file, not in the program.  Each boundary is a
public function or method of one module; every module-level alias of a
wrapped function inside ``jumpflow`` is rebound, so ``solve_point`` is
counted whether ``marcus``, ``stratjump``, ``geometry`` or ``cli`` calls it.
Spans are kept in memory and written to SPANS_JSON when the process exits.
The hottest methods are recorded as a count and a total time only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path) of every traced boundary.
BOUNDARIES = [
    ("cli", "main"),
    ("config", "load_config"),
    ("config", "build_problem"),
    ("config", "build_driver"),
    ("semimartingale", "sample_levy_jump_diffusion"),
    ("semimartingale", "refine"),
    ("semimartingale", "prefix"),
    ("semimartingale", "path_to_csv"),
    ("odeflow", "flow"),
    ("odeflow", "flow_with_jacobian"),
    ("odeflow", "expm"),
    ("odeflow", "VectorFieldSet.field_matrix"),
    ("odeflow", "VectorFieldSet.combo_jacobian"),
    ("marcus", "solve_point"),
    ("marcus", "solve_with_jacobian"),
    ("marcus", "solve_map_batch"),
    ("marcus", "solve_ensemble"),
    ("marcus", "trajectory_to_csv"),
    ("stratjump", "verify_ivk"),
    ("decompose", "decompose_linear_sde"),
    ("decompose", "decompose_pointwise"),
    ("decompose", "verify_composition"),
    ("decompose", "DecompositionRecord.jsonl_rows"),
    ("reference", "matrix_exp"),
    ("mesh", "mesh_jacobian"),
    ("mesh", "interp_mesh"),
    ("mesh", "invert_mesh_map"),
    ("geometry", "Distribution.basis_batch"),
]

# Called thousands to tens of thousands of times per operation: count and
# total time, no spans.
COUNT_ONLY = frozenset([
    "odeflow.VectorFieldSet.field_matrix",
    "odeflow.VectorFieldSet.combo_jacobian",
    "geometry.Distribution.basis_batch",
])

IMPORT_SPAN = "cli.import"


def boundary_names():
    return ["%s.%s" % b for b in BOUNDARIES]


class Tracer:
    """Span recorder.  One frame per open call: [start, child seconds,
    span index or -1 for a count-only boundary]."""

    def __init__(self):
        self.spans = []     # (name, parent index or -1, start, end, child_s)
        self.counts = {}    # count-only name -> [calls, total_s, self_s]
        self.aliases = {}   # boundary name -> modules whose global rebinds
        self.missing = []   # boundaries this version of the program lacks
        self._stack = []    # open frames: [start, child_s, span index]

    def _wrap(self, name, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        if name in COUNT_ONLY:
            agg = self.counts.setdefault(name, [0, 0.0, 0.0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                frame = [perf(), 0.0, -1]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [perf(), 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += end - frame[0]
                spans[frame[2]] = (name, parent, frame[0], end, frame[1])
        return spanned

    def install(self):
        """Wrap every boundary and rebind all of its aliases in jumpflow."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "jumpflow" or key.startswith("jumpflow.")]
        for mod_name, attr in BOUNDARIES:
            name = "%s.%s" % (mod_name, attr)
            try:
                owner = importlib.import_module("jumpflow." + mod_name)
            except ImportError:
                self.missing.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, fn))
                self.aliases[name] = [owner.__name__]
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn)
            rebound = []
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
                        rebound.append("%s.%s" % (mod.__name__, key))
            self.aliases[name] = rebound

    def dump(self, path, import_s):
        payload = {
            "import_s": import_s,
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": self.counts,
            "aliases": self.aliases,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(payload):
    """Per boundary: [calls, self seconds] of one traced process."""
    out = {name: [0, 0.0] for name in boundary_names()}
    out[IMPORT_SPAN] = [1, payload["import_s"]]
    for name, _parent, start, end, child in payload["spans"]:
        row = out[name]
        row[0] += 1
        row[1] += (end - start) - child
    for name, (calls, _total, self_s) in payload["counts"].items():
        out[name] = [calls, self_s]
    return out


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    started = time.perf_counter()
    import jumpflow.cli
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        return jumpflow.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0], import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
