"""Self-tests of the benchmark: its checks cannot pass vacuously.

Run with ``python3 -m unittest discover -s perfbench`` (or ``pytest
perfbench``) from the repository root.  Each workload's checker is fed
deliberately wrong results, wrong exit codes and missing verdicts, which
must count as failed; genuine results must pass.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def shifted(result):
    """A well-formed but wrong answer: every value moved up by one."""
    if isinstance(result, bool):
        return not result
    cls = type(result)
    if cls.__name__ == "OrthElem":
        return cls(result.algebra, tuple((v + 1, c) for v, c in result.entries))
    return cls(result.algebra, tuple(t + 1 for t in result.thresholds), result.idems)


def flipped(out: str) -> str:
    """CLI output with every verdict turned round."""
    for old, new in (("PASS", "\0"), ("FAIL", "PASS"), ("\0", "FAIL"), ("OK", "MISMATCH"),
                     ('"pass"', '"fail"'), ("->1", "->0")):
        out = out.replace(old, new)
    return out


def sabotaged(ops, fault):
    return [workloads.Op(op.label, lambda op=op: fault(op), op.check) for op in ops]


def raise_error(op):
    raise RuntimeError("injected failure")


class InProcessChecks(unittest.TestCase):
    def assert_checks(self, workload, rounds=1):
        workload.setup()
        ops = [op for r in range(rounds) for op in workload.round(r)]
        genuine = run.drive([ops])
        self.assertEqual(genuine.failed, 0, genuine.failures)
        wrong = run.drive([sabotaged(ops, lambda op: shifted(op.call()))])
        self.assertEqual(wrong.failed, len(ops))
        raised = run.drive([sabotaged(ops, raise_error)])
        self.assertEqual(raised.failed, len(ops))
        other = run.drive([sabotaged(ops, lambda op: None)])
        self.assertEqual(other.failed, len(ops))

    def test_arith_wide_checks_fail_wrong_results(self):
        workload = workloads.ArithWide(3)
        self.assert_checks(workload)
        names = {op.label.split()[0] for op in workload.round(0)}
        self.assertEqual(names, set(workloads.ARITH_OPS))

    def test_terms_checks_fail_wrong_results(self):
        self.assert_checks(workloads.Terms(3), rounds=2)

    def test_arith_wide_rational_schedule(self):
        workload = workloads.ArithWide(5)
        workload.setup()
        labels = [op.label for r in range(8) for op in workload.round(r)]
        rational = [label.split()[0] for label in labels if label.endswith("(rational)")]
        self.assertEqual(len(labels), 8 * len(rational))
        self.assertEqual(sorted(rational), sorted(workloads.ARITH_OPS))


class VerifyChecks(unittest.TestCase):
    def test_wrong_codes_and_missing_verdicts_fail(self):
        workload = workloads.Verify(4)
        try:
            workload.setup()
            ops = workload.round(0)
            genuine = {}

            def record(op):
                genuine[op.label] = op.call()
                return genuine[op.label]

            outcome = run.drive([sabotaged(ops, record)])
            self.assertEqual(outcome.failed, 0, outcome.failures)
            self.assertEqual(len(genuine), 13)
            faults = {
                "exit code": lambda code, out, err: (1 - code if code in (0, 1) else 0, out, err),
                "usage exit": lambda code, out, err: (2, out, err),
                "no verdict": lambda code, out, err: (code, "\n".join(out.splitlines()[:-1]), err),
                "empty output": lambda code, out, err: (code, "", err),
                "traceback": lambda code, out, err: (
                    code, out, err + "Traceback (most recent call last):\n"
                ),
                "flipped verdict": lambda code, out, err: (code, flipped(out), err),
            }
            for name, fault in faults.items():
                broken = sabotaged(ops, lambda op, fault=fault: fault(*genuine[op.label]))
                outcome = run.drive([broken])
                self.assertEqual(outcome.failed, len(ops), f"{name}: {outcome.failures}")
        finally:
            workload.close()


class Tracing(unittest.TestCase):
    def test_self_times_add_up_and_wrappers_come_off(self):
        workload = workloads.Terms(2)
        workload.setup()
        orthogonal = sys.modules["specker.orthogonal"]
        original = orthogonal.orth_mul
        outcome, profile = run.traced_pass_in_process(workload, 2)
        self.assertEqual(outcome.failed, 0)
        self.assertIs(orthogonal.orth_mul, original)
        self.assertIs(sys.modules["specker.terms"].orth_mul, original)
        covered = sum(profile.module_self_s().values()) + profile.bench_s
        self.assertAlmostEqual(covered, profile.wall_s, delta=1e-9 * max(1.0, profile.wall_s))
        self.assertGreater(profile.calls["orthogonal.orth_mul"], 0)
        self.assertEqual(profile.calls["terms.parse_term"], outcome.attempted)
        self.assertGreater(profile.counters["elem_new"], 0)
        self.assertGreater(profile.counters["algebra_eq"], 0)

    def test_traced_children_add_up(self):
        workload = workloads.Verify(6)
        try:
            workload.setup()
            schedule = [workload.round(0)]
            for mode in ("traced", "traced-O"):
                outcome, profile = run.traced_children(workload, schedule, mode)
                self.assertEqual(outcome.failed, 0, outcome.failures)
                self.assertEqual(profile.calls["cli.run"], 13)
                covered = (
                    sum(profile.module_self_s().values())
                    + profile.counters["import_s"]
                    + profile.bench_s
                )
                self.assertAlmostEqual(covered, profile.wall_s, delta=1e-9 * profile.wall_s)
                self.assertGreater(profile.counters["devries_misses"], 0)
        finally:
            workload.close()

    def test_metric_names_match_benchmark_json(self):
        metrics = spans.layer_metrics(spans.Profile(), 1.0, {})
        self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
        for entry in BENCHMARK["per_layer"]:
            self.assertEqual(metrics[entry["name"]][1], entry["unit"])
        workload = workloads.Terms(1)
        e2e, outcome, _ = run.end_to_end(workload, 0.2)
        self.assertEqual(set(e2e), {m["name"] for m in BENCHMARK["end_to_end"]})
        for entry in BENCHMARK["end_to_end"]:
            self.assertEqual(e2e[entry["name"]][1], entry["unit"])
            self.assertGreater(e2e[entry["name"]][0], 0)
        self.assertEqual(
            {w["name"] for w in BENCHMARK["workloads"]}, set(workloads.WORKLOADS)
        )


class HostSpeedScaling(unittest.TestCase):
    def test_factor_follows_the_probes_around_a_span(self):
        speed = hostspeed.HostSpeed()
        speed.ends = [i * 0.005 for i in range(200)]
        speed.times = [hostspeed.REF_PROBE_S if end < 0.5 else 2 * hostspeed.REF_PROBE_S
                       for end in speed.ends]
        self.assertAlmostEqual(speed.factor(0.1, 0.11), 1.0)
        self.assertAlmostEqual(speed.factor(0.8, 0.81), 0.5)
        self.assertAlmostEqual(speed.factor(5.0, 5.0), 0.5)  # after the last probe
        # A long op with no probe near: the nearest on both sides count.
        speed.ends = [0.0, 0.01, 0.02, 1.0, 1.01, 1.02]
        speed.times = [hostspeed.REF_PROBE_S] * 3 + [2 * hostspeed.REF_PROBE_S] * 3
        self.assertAlmostEqual(speed.factor(0.1, 0.9), 0.75)

    def test_probes_run_between_ops_only(self):
        spans_seen = []

        def busy():
            began = time.perf_counter()
            while time.perf_counter() < began + 0.002:
                pass
            spans_seen.append((began, time.perf_counter()))
            return True

        ops = [workloads.Op("busy", busy, lambda result: result) for _ in range(40)]
        speed = hostspeed.HostSpeed()
        outcome = run.drive([ops], speed=speed)
        self.assertEqual((outcome.attempted, outcome.failed), (40, 0))
        self.assertGreater(len(speed.ends), 2)
        for end, took in zip(speed.ends, speed.times):
            for began, ended in spans_seen:
                self.assertFalse(end - took < ended and began < end)

    def test_child_probe_time_is_left_out_of_latencies(self):
        speed = hostspeed.HostSpeed(local=False)

        def child():
            began = time.perf_counter()
            while time.perf_counter() < began + 0.05:
                pass
            speed.merge({"ends": [time.perf_counter()], "times": [0.02], "spent": 0.02})
            return True

        outcome = run.Pass()
        began, ended, latency = run.execute(
            workloads.Op("child", child, lambda result: result), None, outcome, speed
        )
        self.assertAlmostEqual(latency, ended - began - 0.02, places=9)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 0))
        speed.tick()
        speed.bracket()
        self.assertEqual(len(speed.ends), 1)  # a collecting parent runs no probe


class Robustness(unittest.TestCase):
    def test_benchmark_code_has_no_assert(self):
        for path in HERE.glob("*.py"):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            self.assertEqual(asserts, [], f"{path.name} uses assert")

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch)
            shutil.copytree(HERE, copy / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", copy)
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "terms",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=copy, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
