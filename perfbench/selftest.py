"""Tests of the benchmark's failure detector.

Run from the repository root:  python3 perfbench/selftest.py

Each case builds the artifacts of a completed operation by hand, breaks
them in one way, and checks that the detector counts the operation as
failed.  No jumpflow process is started.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from artifacts import FailureDetector, compare_facts, facts  # noqa: E402
from workloads import Operation  # noqa: E402

SUMMARY = {"format_version": 1, "scenario": "rotation", "mode": "linear",
           "horizon": 1.0, "tau": 1.0, "tau_reason": "horizon",
           "degenerate_jump_target": False, "stopped_early": False,
           "max_composition_residual": 1e-9, "final_det_block": 0.5,
           "max_renorm_deviation": 0.0}
DIAGNOSTICS = [
    {"format_version": 1, "kind": "decomposition-diagnostics",
     "mode": "linear", "tau": 1.0, "tau_reason": "horizon"},
    {"t": 0.0, "det_block": 1.0, "condition": 1.0, "residual_sup": 0.0,
     "is_jump": False},
    {"t": 1.0, "det_block": 0.5, "condition": 2.0, "residual_sup": 1e-9,
     "is_jump": False},
]
DRIVER_CSV = "time,z_1,is_jump,dz_1\n0.0,0.0,0,0.0\n1.0,1.2,0,0.0\n"


class DetectorTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="perfbench-selftest-")
        self.op = Operation("decompose:case", "decompose", "case.yaml",
                            step=0.1)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _write(self, name, text, outdir):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)

    def _artifacts(self, tag, summary=None):
        """A complete, valid decompose output directory."""
        outdir = os.path.join(self.tmp, tag)
        os.makedirs(outdir)
        self._write("summary.json",
                    json.dumps(summary or SUMMARY, sort_keys=True, indent=2)
                    + "\n", outdir)
        self._write("diagnostics.jsonl", "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in DIAGNOSTICS),
            outdir)
        self._write("run_meta.txt", "wall_seconds: %s\n" % tag, outdir)
        return outdir

    def test_valid_repeats_pass(self):
        det = FailureDetector()
        self.assertEqual(det.judge(self.op, 0, self._artifacts("a")), [])
        # run_meta.txt differs between repeats and is exempt.
        self.assertEqual(det.judge(self.op, 0, self._artifacts("b")), [])

    def test_exit_4_is_a_completed_operation(self):
        det = FailureDetector()
        self.assertEqual(det.judge(self.op, 4, self._artifacts("a")), [])

    def test_exit_code_1_fails(self):
        det = FailureDetector()
        self.assertTrue(det.judge(self.op, 1, self._artifacts("a")))

    def test_truncated_json_fails(self):
        outdir = self._artifacts("a")
        path = os.path.join(outdir, "summary.json")
        with open(path) as fh:
            text = fh.read()
        self._write("summary.json", text[:len(text) // 2], outdir)
        self.assertTrue(FailureDetector().judge(self.op, 0, outdir))

    def test_truncated_jsonl_fails(self):
        outdir = self._artifacts("a")
        path = os.path.join(outdir, "diagnostics.jsonl")
        with open(path) as fh:
            text = fh.read()
        self._write("diagnostics.jsonl", text[:-20], outdir)
        self.assertTrue(FailureDetector().judge(self.op, 0, outdir))

    def test_truncated_csv_fails(self):
        op = Operation("simulate:case", "simulate", "case.yaml")
        outdir = self._artifacts("a")
        self._write("trajectory.csv", DRIVER_CSV, outdir)
        # Cut mid-row, with and without a final newline.
        for cut in (DRIVER_CSV[:-6], DRIVER_CSV[:-6] + "\n"):
            self._write("driver.csv", cut, outdir)
            self.assertTrue(FailureDetector().judge(op, 0, outdir))
        self._write("driver.csv", DRIVER_CSV, outdir)
        self.assertEqual(FailureDetector().judge(op, 0, outdir), [])

    def test_nonfinite_csv_fails(self):
        op = Operation("simulate:case", "simulate", "case.yaml")
        outdir = self._artifacts("a")
        self._write("driver.csv", DRIVER_CSV.replace("1.2", "inf"), outdir)
        self._write("trajectory.csv", DRIVER_CSV, outdir)
        self.assertTrue(FailureDetector().judge(op, 0, outdir))

    def test_infinity_in_json_fails(self):
        summary = dict(SUMMARY, final_det_block=float("inf"))
        outdir = self._artifacts("a", summary)
        with open(os.path.join(outdir, "summary.json")) as fh:
            self.assertIn("Infinity", fh.read())
        self.assertTrue(FailureDetector().judge(self.op, 0, outdir))

    def test_nan_in_jsonl_fails(self):
        outdir = self._artifacts("a")
        self._write("diagnostics.jsonl",
                    '{"t": NaN}\n', outdir)
        self.assertTrue(FailureDetector().judge(self.op, 0, outdir))

    def test_exit_0_without_output_fails(self):
        missing = os.path.join(self.tmp, "never-written")
        self.assertEqual(FailureDetector().judge(self.op, 0, missing),
                         ["no output directory"])

    def test_missing_artifact_fails(self):
        outdir = self._artifacts("a")
        os.remove(os.path.join(outdir, "diagnostics.jsonl"))
        self.assertTrue(FailureDetector().judge(self.op, 0, outdir))

    def test_byte_mismatch_between_repeats_fails(self):
        det = FailureDetector()
        self.assertEqual(det.judge(self.op, 0, self._artifacts("a")), [])
        other = dict(SUMMARY, max_composition_residual=2e-9)
        reasons = det.judge(self.op, 0, self._artifacts("b", other))
        self.assertEqual(reasons, ["summary.json differs from the first "
                                   "repeat"])

    def test_exit_code_mismatch_between_repeats_fails(self):
        det = FailureDetector()
        self.assertEqual(det.judge(self.op, 0, self._artifacts("a")), [])
        self.assertTrue(det.judge(self.op, 4, self._artifacts("b")))

    def test_golden_mismatch_fails(self):
        outdir = self._artifacts("a")
        golden = {self.op.label: facts("decompose", 0, outdir)}
        self.assertEqual(FailureDetector(golden).judge(self.op, 0, outdir),
                         [])
        self.assertTrue(FailureDetector(golden).judge(self.op, 4, outdir))
        moved = dict(SUMMARY, tau=0.8, tau_reason="split_degenerate")
        self.assertTrue(FailureDetector(golden).judge(
            self.op, 0, self._artifacts("b", moved)))

    def test_golden_tolerances(self):
        want = {"exit": 0, "tau": 0.5, "final_state": [1.0, 2.0]}
        self.assertEqual(compare_facts(
            {"exit": 0, "tau": 0.55, "final_state": [1.00001, 2.0]},
            want, step=0.1), [])
        self.assertEqual(compare_facts(
            {"exit": 0, "tau": 0.7, "final_state": [1.01, 2.0]},
            want, step=0.1), ["tau", "final_state"])


if __name__ == "__main__":
    unittest.main()
