"""Benchmark of the ``specker`` library and its command-line tool.

Usage::

    python3 perfbench/run.py --workload {arith-wide,verify,terms} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program under test is always ``src/specker`` of
the checkout this file sits in, and the run fails (exit 2) when that is
missing.  The load is closed-loop with one client: one operation at a
time, the next only after the previous one has finished and been checked.

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` splits the time
in three: an untraced pass, the same rounds again with per-module spans
(see ``spans.py``), and the same rounds traced under ``python -O``; it
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it gives details such as the tail percentile used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import Profile, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# The tail is the highest of these percentiles with >= 10 samples beyond it,
# capped per workload: a faster program, running more ops, is then not judged
# at a higher percentile, and a stall of the host lasting about a second,
# which slows 1-2% of the ops of a terms run, does not set the figure.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_CAP = {"arith-wide": 95.0, "terms": 95.0, "verify": 75.0}
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5


class Pass:
    """Outcome of driving a workload: latencies, counts and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{label}: {detail or 'wrong result'}")


def drive(schedule, run=None, seconds: float | None = None, speed: HostSpeed | None = None) -> Pass:
    """Run the rounds of ``schedule`` one operation at a time.

    With ``seconds`` set, rounds keep starting until that much wall time
    has passed; each round runs to its end, so every op of the mix is
    equally represented.  ``run(op)`` performs the timed call (default
    ``op.call()``).  Every call is checked; one that raises, or whose
    result fails its check, counts as failed.

    ``raw_latencies`` are as measured.  ``latencies`` are the same, or,
    with ``speed`` given, scaled by the host's speed around each op; the
    host-speed probe then runs between ops (see ``hostspeed.py``).
    """
    outcome = Pass()
    spans = []
    start = time.perf_counter()
    for ops in schedule:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for op in ops:
            spans.append(execute(op, run, outcome, speed))
            if speed:
                speed.tick()
        outcome.rounds += 1
    outcome.raw_latencies = [latency for _, _, latency in spans]
    outcome.latencies = [
        latency * speed.factor(began, ended) if speed else latency
        for began, ended, latency in spans
    ]
    return outcome


def execute(op, run, outcome: Pass, speed: HostSpeed | None = None):
    """Time one call of ``op``, check its result, and count it.

    Returns the call's start, end and latency; the latency leaves out the
    time the host-speed probes of a CLI child took during the call.
    """
    probed = speed.spent if speed else 0.0
    began = time.perf_counter()
    try:
        result = run(op) if run is not None else op.call()
    except Exception as exc:  # the op failed; keep measuring the rest
        result, error = None, exc
    else:
        error = None
    ended = time.perf_counter()
    latency = ended - began - ((speed.spent - probed) if speed else 0.0)
    if error is not None:
        outcome.record(op.label, False, repr(error))
        return began, ended, latency
    try:
        ok = op.check(result) is True
    except Exception as exc:  # a malformed result fails its check
        outcome.record(op.label, False, repr(exc))
        return began, ended, latency
    outcome.record(op.label, ok)
    return began, ended, latency


def tail(latencies: list[float], cap: float) -> tuple[float, int, float]:
    """``(percentile, samples beyond it, value)`` of the tail latency.

    The percentile is the highest ladder step, up to ``cap``, with at least
    ten samples beyond it (the median when none has); the value is the
    nearest-rank sample.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    steps = [p for p in TAIL_LADDER if p <= cap]
    for percentile in steps:
        rank = max(1, math.ceil(percentile / 100 * n))
        if n - rank >= TAIL_BEYOND or percentile == steps[-1]:
            return percentile, n - rank, ordered[rank - 1]
    raise ValueError("empty ladder")


def timed_setup(workload, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Times of ``SETUP_REPEATS`` set-ups: scaled by host speed, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.bracket()
        probed = speed.spent
        began = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        raw.append(ended - began - (speed.spent - probed))
        speed.bracket()
        scaled.append(raw[-1] * speed.factor(began, ended))
    return scaled, raw


def end_to_end(workload, seconds: float) -> tuple[dict, Pass, dict]:
    # CLI runs are scaled by the probes of the child doing the work.
    speed = HostSpeed(local=not workload.children)
    if workload.children:
        workload.speed = speed
    setup_times, raw_setup_times = timed_setup(workload, speed)
    outcome = drive(
        (workload.round(r) for r in itertools.count()), seconds=seconds, speed=speed
    )
    busy = sum(outcome.latencies)
    percentile, beyond, tail_s = tail(outcome.latencies, TAIL_CAP[workload.name])
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (len(outcome.latencies) / busy, "1/s"),
        "op_p50_ms": (statistics.median(outcome.latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ok_ratio": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    details = {
        "rounds": outcome.rounds,
        "ops": len(outcome.latencies),
        "fail_ratio": outcome.failed / outcome.attempted,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "setup_runs_s": setup_times,
        "raw_setup_runs_s": raw_setup_times,
        "raw_throughput_ops_s": len(outcome.raw_latencies) / sum(outcome.raw_latencies),
        "raw_op_p50_ms": statistics.median(outcome.raw_latencies) * 1000,
        "raw_op_tail_ms": tail(outcome.raw_latencies, TAIL_CAP[workload.name])[2] * 1000,
    }
    return metrics, outcome, details


def traced_pass_in_process(workload, rounds: int):
    """Replay ``rounds`` rounds with spans; returns ``(Pass, Profile)``."""
    schedule = [workload.round(r) for r in range(rounds)]
    tracer = Tracer()
    tracer.install()
    try:
        outcome = drive(schedule, run=lambda op: tracer.root(op.call))
    finally:
        tracer.uninstall()
    return outcome, tracer.profile


def traced_children(workload, schedule, mode: str):
    """Replay ``schedule`` with each CLI run in a traced child process."""
    workload.mode, workload.profile = mode, Profile()
    workload.spawn(workload.invocations[0])  # fills this mode's bytecode cache
    workload.profile = Profile()  # drops the warm-up run's figures
    return drive(schedule), workload.profile


def o_pass(workload, rounds: int) -> dict:
    """The traced replay under ``python -O``, run in a child process."""
    command = [
        sys.executable, "-O", str(HERE / "run.py"), "--workload", workload.name,
        "--seed", str(workload.seed), "--o-pass", str(rounds),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"the -O pass failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(workload, seconds: float) -> tuple[dict, list[Pass], dict]:
    workload.setup()
    plain = drive((workload.round(r) for r in itertools.count()), seconds=seconds / 3)
    rounds = plain.rounds
    passes = [plain]
    if workload.children:
        schedule = [workload.round(r) for r in range(rounds)]
        outcome, profile = traced_children(workload, schedule, "traced")
        passes.append(outcome)
        outcome, optimized = traced_children(workload, schedule, "traced-O")
        passes.append(outcome)
        self_s_o = optimized.module_self_s()
    else:
        outcome, profile = traced_pass_in_process(workload, rounds)
        passes.append(outcome)
        result = o_pass(workload, rounds)
        optimized = Pass()
        optimized.attempted, optimized.failed = result["attempted"], result["failed"]
        optimized.failures = result["failures"]
        passes.append(optimized)
        self_s_o = result["self_s_O"]
    metrics = layer_metrics(profile, sum(plain.latencies), self_s_o)
    details = {"rounds": rounds, "ops_per_pass": plain.attempted}
    return metrics, passes, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--o-pass", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "specker" / "__init__.py").is_file():
        print(f"error: no specker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.o_pass is not None:
            workload.setup()
            outcome, profile = traced_pass_in_process(workload, args.o_pass)
            print(json.dumps({
                "self_s_O": profile.module_self_s(),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "failures": outcome.failures,
            }))
            return 0
        if args.trace:
            metrics, passes, details = traced(workload, args.seconds)
        else:
            metrics, outcome, details = end_to_end(workload, args.seconds)
            passes = [outcome]
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for failure in p.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
