#!/usr/bin/env python3
"""Tests for compare.py: it compares like with like and refuses otherwise."""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

RESULT = {
    "workload": "search", "seed": 1, "trace": 0, "correct": True,
    "attempted": 112, "failed": 0,
    "fingerprint": {"cpu_model": "Example CPU", "isa_flags": "sse41 avx2",
                    "nproc": 4, "l2_bytes_total": 8388608,
                    "l3_bytes": 314572800, "db_residues": 9000000,
                    "artifact_bytes": 19000000},
    "inputs": {},
    "end_to_end": {"gcups": {"value": 25.0, "unit": "GCUPS"},
                   "p50_ms": {"value": 120.0, "unit": "ms"}},
    "per_layer": {},
    "errors": [],
}


def result(**changes):
    r = copy.deepcopy(RESULT)
    for key, value in changes.items():
        if key in r["fingerprint"]:
            r["fingerprint"][key] = value
        else:
            r[key] = value
    return r


class CompareTest(unittest.TestCase):
    def test_same_fingerprint_compares(self):
        new = result()
        new["end_to_end"]["gcups"]["value"] = 20.0
        rows = {name: change for name, _, _, change, _
                in compare.compare([result()], [new])}
        self.assertAlmostEqual(rows["gcups"], -0.2)
        self.assertAlmostEqual(rows["p50_ms"], 0.0)

    def test_refuses_other_cpu(self):
        with self.assertRaises(compare.Refused):
            compare.compare([result()], [result(cpu_model="Other CPU")])

    def test_refuses_other_thread_count(self):
        with self.assertRaises(compare.Refused):
            compare.compare([result()], [result(nproc=1)])

    def test_refuses_other_isa_and_inputs(self):
        for change in ({"isa_flags": "sse41"}, {"db_residues": 1},
                       {"artifact_bytes": 1}, {"l3_bytes": 1}):
            with self.assertRaises(compare.Refused):
                compare.compare([result()], [result(**change)])

    def test_refuses_mixed_workloads(self):
        with self.assertRaises(compare.Refused):
            compare.compare([result(), result(workload="pairwise")], [result()])

    def test_command_line_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.json"), os.path.join(d, "b.json")
            json.dump(result(), open(a, "w"))
            json.dump(result(nproc=1), open(b, "w"))
            script = os.path.join(HERE, "compare.py")
            same = subprocess.run([sys.executable, script, "--base", a,
                                   "--new", a], capture_output=True)
            self.assertEqual(same.returncode, 0)
            refused = subprocess.run([sys.executable, script, "--base", a,
                                      "--new", b], capture_output=True)
            self.assertEqual(refused.returncode, 2)
            self.assertIn(b"refused", refused.stderr)


if __name__ == "__main__":
    unittest.main()
