#!/usr/bin/env python3
"""Self-test of the benchmark harness: python3 perfbench/selftest.py

Takes about a minute.  Checks that a tampered pinned digest fails the gate,
that the per-layer counts of the jobs=1 workloads repeat exactly across two
traced passes with different unit orders (and that those passes reproduce
the pinned digests), that layers.json maps every per-layer metric, and
that the benchmark refuses to run without the flipcheck sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import run

PINNED = json.loads((run.HERE / "digests.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(workload: str, seed: int) -> tuple[dict, tuple]:
    """Layer metrics of one traced pass, and its gate result."""
    job = dict(run.job_for(workload, seed), trace=1)
    result = run.spawn(job, timeout=120)
    return result["layers"], run.gate(result, PINNED, job)


class HarnessTest(unittest.TestCase):
    def test_tampered_digest_fails_gate(self) -> None:
        tampered = dict(PINNED)
        key = "all/n7/even"
        tampered[key] = dict(PINNED[key], sha256="0" * 64)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(
                ["--workload", "suite_n7", "--seed", "0", "--seconds", "0", "--trace", "0"],
                pinned=tampered,
            )
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])

    def test_traced_counts_repeat(self) -> None:
        layers = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"]
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
        for workload in ("suite_n7", "van_sweep"):
            (first, gate1), (second, gate2) = traced_pass(workload, 1), traced_pass(workload, 5)
            for _, failed, problems in (gate1, gate2):
                self.assertEqual((failed, problems), (0, []), workload)
            self.assertEqual(sorted(first), sorted(layers))
            for name in counts:
                self.assertEqual(first[name], second[name], f"{workload}: {name}")

    def test_layer_map_covers_metrics(self) -> None:
        doc = json.loads((run.HERE / "layers.json").read_text())
        mapped = sorted(name for entry in doc["map"] for name in entry["metrics"])
        self.assertEqual(mapped, sorted(m["name"] for m in SPEC["per_layer"]))

    def test_refuses_without_sources(self) -> None:
        bare = run.ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "suite_n7",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
