#!/usr/bin/env python3
"""The benchmark's own tests: same seed, same counts; other seed, other plan.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py on first use (see README.md).
"""
import json
import os
import subprocess
import unittest

import run as perfbench

# Per-op counts that depend only on the seeded inputs, never on timing.
TRACED_COUNTS = ["msg.messages_per_op", "sched.switches_per_op",
                 "msg.log_appends_per_op"]
BINARY = None
with open(os.path.join(os.path.dirname(perfbench.HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def setUpModule():
    global BINARY
    BINARY = perfbench.build()


def run(workload, seed, trace):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"]), out.stdout
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    return {k: v["value"] for k, v in result["metrics"].items()}


def plan(workload, seed):
    return subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--print-plan"],
        capture_output=True, text=True, check=True).stdout


class Determinism(unittest.TestCase):
    def check_counts_repeat(self, workload):
        first, second = run(workload, 7, 1), run(workload, 7, 1)
        for name in TRACED_COUNTS:
            self.assertGreater(first[name], 0, name)
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(run(workload, 7, 0)["mem_overhead_bytes"],
                         run(workload, 7, 0)["mem_overhead_bytes"])

    def test_kv_pipeline_counts_repeat(self):
        self.check_counts_repeat("kv_pipeline")

    def test_db_sessions_counts_repeat(self):
        self.check_counts_repeat("db_sessions")

    def test_web_recovery_reports_every_metric(self):
        self.assertGreater(run("web_recovery", 7, 0)["mttr_p95_us"], 0)
        self.assertGreaterEqual(run("web_recovery", 7, 1)["trace.coverage"], 0.95)

    def test_web_recovery_fault_plan_follows_seed(self):
        first = plan("web_recovery", 7)
        self.assertIn("panic", first)
        self.assertIn("mpk-violation", first)
        self.assertIn("rejuvenate", first)
        self.assertEqual(first, plan("web_recovery", 7))
        self.assertNotEqual(first, plan("web_recovery", 8))


if __name__ == "__main__":
    unittest.main()
