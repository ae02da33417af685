#!/usr/bin/env python3
"""Unit suite for tools/perf_smoke.py's baseline gate: the xval
analytical wall per config is an absolute ceiling that a faster DES
cannot loosen or trip, while the DES wall per config gates
baseline-relative like the other wall metrics."""

from __future__ import annotations

import importlib.util
import json
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perf_smoke", TOOLS / "perf_smoke.py")
perf_smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_smoke)

DES = "xval_des_wall_per_config_seconds"
ANA = "xval_analytical_wall_per_config_seconds"
BASELINE = {DES: 0.2, ANA: 0.0035}


def gate(des: float, ana: float) -> list[str]:
    failures, _ = perf_smoke.gate({DES: des, ANA: ana}, BASELINE, 0.25)
    return failures


class XvalWallGates(unittest.TestCase):

    def test_within_both_bounds_passes(self):
        self.assertEqual(gate(0.2, 0.0035), [])

    def test_faster_des_does_not_fail(self):
        # A 100x ratio gate would fail here (0.1 / 0.003 = 33x).
        self.assertEqual(gate(0.1, 0.003), [])

    def test_analytical_above_ceiling_fails(self):
        # No threshold on a ceiling: 3% over is a failure.
        failures = gate(0.2, 0.0036)
        self.assertEqual(len(failures), 1)
        self.assertIn(ANA, failures[0])
        self.assertIn("ceiling", failures[0])

    def test_slower_des_fails_beyond_threshold(self):
        self.assertEqual(gate(0.24, 0.003), [])
        failures = gate(0.26, 0.003)
        self.assertEqual(len(failures), 1)
        self.assertIn(DES, failures[0])

    def test_committed_baseline_carries_both_gates(self):
        committed = json.loads(perf_smoke.BASELINE.read_text())
        self.assertGreater(committed.get(DES, 0.0), 0.0)
        self.assertGreater(committed.get(ANA, 0.0), 0.0)
        self.assertNotIn("backend_xval_speedup", committed)


if __name__ == "__main__":
    unittest.main()
