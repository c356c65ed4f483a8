"""Self-test of the benchmark at tiny virtual durations.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit in both modes, that the correctness check trips on a tampered
replica, that the determinism guard tells seeds apart, that the traced
run's self times add up to its wall time within the stated tolerance,
and that the command refuses to run without the program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Tiny virtual durations: a few hundred commands per round.
TINY_MS = {"chirper-post-dssmr": 150.0, "chirper-mix-smr": 300.0,
           "chirper-mix-ssmr-durable": 30.0}
SEED = 7


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def tiny(workload: str, trace: int):
    return bench("--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace),
                 "--vtime-ms", str(TINY_MS[workload]))


class PrintsEveryMetric(unittest.TestCase):
    """Each workload, both modes: exit 0, every metric line with unit."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload: str, trace: int, section: str) -> dict:
        out = tiny(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            line = re.compile(rf"^metric {re.escape(name)} \S+ "
                              rf"{re.escape(unit)}(\s|$)", re.M)
            self.assertRegex(out.stdout, line)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(WORKLOADS))
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check(workload, 0, "end_to_end")
                for name, value in values.items():
                    self.assertGreater(value, 0, name)

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check(workload, 1, "per_layer")
                durable = values["store.self_s"] + values["reconfig.self_s"]
                if WORKLOADS[workload].durable:
                    others = [values[f"{layer}.self_s"] for layer in run.LAYERS
                              if layer not in ("store", "reconfig")]
                    self.assertGreater(durable, max(others))
                else:
                    self.assertEqual(durable, 0.0)


class CorrectnessCheck(unittest.TestCase):
    workload = WORKLOADS["chirper-mix-ssmr-durable"]
    vtime = TINY_MS["chirper-mix-ssmr-durable"]

    def test_clean_round_passes(self):
        result = run.run_round(self.workload, SEED, self.vtime)
        self.assertEqual(result.violations, [])

    def test_altered_store_trips(self):
        def alter(cluster):
            replica = cluster.servers["p0s1"]
            key = sorted(replica.store.keys())[0]
            replica.store.write(key, {"tampered": True})
        result = run.run_round(self.workload, SEED, self.vtime, tamper=alter)
        self.assertTrue(any("store digests differ" in v
                            for v in result.violations), result.violations)

    def test_double_execution_trips(self):
        def repeat(cluster):
            replica = cluster.servers["p1s0"]
            replica.executed.append(replica.executed[0])
        result = run.run_round(self.workload, SEED, self.vtime,
                               tamper=repeat)
        self.assertTrue(any("twice" in v for v in result.violations))
        self.assertTrue(any("executed orders differ" in v
                            for v in result.violations))


class DeterminismGuard(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_differs(self):
        workload = WORKLOADS["chirper-post-dssmr"]
        vtime = TINY_MS["chirper-post-dssmr"]
        first = run.run_round(workload, SEED, vtime)
        again = run.run_round(workload, SEED, vtime)
        other = run.run_round(workload, SEED + 1, vtime)
        self.assertEqual(first.digest, again.digest)
        self.assertNotEqual(first.digest, other.digest)


class SelfTimesAddUp(unittest.TestCase):
    def test_traced_self_times_cover_wall(self):
        from spans import SpanTracer
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                reference = run.run_round(workload, SEED, TINY_MS[name])
                tracer = SpanTracer()
                tracer.install()
                try:
                    traced = run.run_round(workload, SEED, TINY_MS[name],
                                           tracer=tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(traced.digest, reference.digest)
                metrics, extras = run.per_layer(reference, [traced])
                wall = extras["traced_run_s"]
                self.assertLessEqual(
                    abs(extras["spanned_self_s"] - wall) / wall,
                    run.SELF_TIME_TOLERANCE)
                total = sum(metrics[f"{layer}.self_s"]
                            for layer in run.LAYERS)
                total += sum(extras["other_layers"].values())
                self.assertAlmostEqual(total, wall, delta=1e-9 * wall + 1e-9)


class RefusesWithoutProgram(unittest.TestCase):
    def test_bare_directory_fails_without_result(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            out = bench("--workload", "chirper-mix-smr", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
