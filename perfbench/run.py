"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nf-chains --seed 0 --seconds 30 --trace 0

Each repeat runs the whole workload in a fresh interpreter
(``perfbench/worker.py``); repeats continue until ``--seconds`` is spent, with
at least ``MIN_REPEATS``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the repeats; ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics.

Correctness gate: a repeat fails if it raises, times out or does not drain,
and every repeat (traced or not) must reproduce the first one's digest and
event count.  A failed repeat counts in ``failed`` and ends the run; any
failure makes the command exit 1.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every end-to-end metric the report prints, with its unit.  BENCHMARK.json
#: names the subset that is gated (those that are never 0 or absent).
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "wall_s": "s",
    "wall_per_ref": "ratio",
    "peak_rss_mb": "MB",
    "rtt_p50_ms": "ms",
    "rtt_p99_ms": "ms",
    "request_fail_ratio": "ratio",
    "attach_latency_p50_s": "s",
    "attach_fail_ratio": "ratio",
    "coverage_gap_p50_s": "s",
    "migration_fail_ratio": "ratio",
}
HOST_METRICS = ("setup_s", "setup_raw_s", "wall_s", "wall_per_ref", "peak_rss_mb")

MIN_REPEATS = 3
#: Every full-size workload answers at least this many requests, so the RTT
#: percentiles rest on enough samples.
MIN_RTT_SAMPLES = 1000
MIN_TRACED_PAIRS = 1
#: No single run may outlast this (the contract allows 180 s).
RUN_CAP_S = 170.0


@dataclass
class Repeat:
    """Outcome of one worker process (``error`` empty when it succeeded)."""

    traced: bool
    record: Optional[dict]
    error: str
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.record is not None and not self.error


def run_repeat(args: argparse.Namespace, traced: bool, timeout_s: float) -> Repeat:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", "1" if traced else "0",
    ]
    started = time.monotonic()
    command += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout_s, 1.0)
        )
    except subprocess.TimeoutExpired:
        return Repeat(traced, None, f"timed out after {timeout_s:.0f} s", time.monotonic() - started)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Repeat(traced, None, f"exit {proc.returncode}: {tail[0]}", elapsed)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Repeat(traced, None, "no JSON record on stdout", elapsed)
    if not record["drained"]:
        return Repeat(traced, record, "event queue did not drain after teardown", elapsed)
    return Repeat(traced, record, "", elapsed)


def run_repeats(args: argparse.Namespace) -> List[Repeat]:
    """Run repeats until the time budget is spent (at least the minimum)."""
    plan = [False, True] if args.trace else [False]
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_REPEATS
    started = time.monotonic()
    repeats: List[Repeat] = []
    rounds = 0
    while True:
        for traced in plan:
            left = RUN_CAP_S - (time.monotonic() - started)
            repeats.append(run_repeat(args, traced, left))
            if not repeats[-1].ok:
                return repeats  # the run has failed; more repeats add nothing
        rounds += 1
        elapsed = time.monotonic() - started
        round_s = max(sum(r.elapsed_s for r in repeats[-len(plan):]), 1e-3)
        budget = min(args.seconds, RUN_CAP_S) if rounds >= minimum else RUN_CAP_S
        if elapsed + round_s > budget:
            return repeats


def gate(repeats: List[Repeat]) -> List[str]:
    """Mark repeats that disagree with the first good one; return all problems."""
    problems = []
    reference = next((r.record for r in repeats if r.ok), None)
    for index, repeat in enumerate(repeats):
        if repeat.ok:
            for key in ("digest", "events"):
                if repeat.record[key] != reference[key]:
                    repeat.error = f"{key} {repeat.record[key]} differs from first repeat's {reference[key]}"
        if repeat.error:
            kind = "traced" if repeat.traced else "untraced"
            problems.append(f"repeat {index} ({kind}): {repeat.error}")
    return problems


def end_to_end_report(records: List[dict]) -> Dict[str, dict]:
    """Median host metrics over repeats; simulated metrics (identical) from the first."""
    report = {
        name: {"value": statistics.median(r[name] for r in records), "samples": len(records)}
        for name in HOST_METRICS
    }
    report.update(records[0]["end_to_end"])
    return report


def layer_report(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics over traced repeats, plus phase times and overhead.

    ``median_low`` keeps each value one that was measured (and counts whole).
    """
    layers = {
        name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    for name in ("scenario.build_s", "scenario.start_s", "scenario.finalize_s"):
        layers[name] = statistics.median_low(r[name] for r in untraced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    layers["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall
    return layers


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="workload size: full (measured) or tiny (tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    repeats = run_repeats(args)
    problems = gate(repeats)
    good = [r for r in repeats if r.ok]
    untraced = [r.record for r in good if not r.traced]
    traced = [r.record for r in good if r.traced]
    metrics: Dict[str, Dict[str, object]] = {}
    if not untraced or (args.trace and not traced):
        problems.append("no successful repeat to report")
    elif not args.trace:
        report = end_to_end_report(untraced)
        print(f"{args.workload} seed={args.seed} repeats={len(untraced)} "
              f"digest={untraced[0]['digest'][:16]} events={untraced[0]['events']}")
        for name in HOST_METRICS:
            print(f"  {name} per repeat: " + " ".join(f"{r[name]:.4g}" for r in untraced))
        for name, unit in E2E_UNITS.items():
            entry = report[name]
            shown = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
            extra = "".join(f" {key}={value}" for key, value in entry.items() if key not in ("value", "samples"))
            print(f"  {name:<22} {shown:>12} {unit:<6} n={entry['samples']}{extra}")
        if args.size == "full" and report["rtt_p50_ms"]["samples"] < MIN_RTT_SAMPLES:
            problems.append(f"only {report['rtt_p50_ms']['samples']} RTT samples (< {MIN_RTT_SAMPLES})")
        for spec in benchmark["end_to_end"]:
            value = report[spec["name"]]["value"]
            if value is None:
                problems.append(f"gated metric {spec['name']} has no samples")
            else:
                metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    else:
        layers = layer_report(untraced, traced)
        print(f"{args.workload} seed={args.seed} traced={len(traced)} untraced={len(untraced)}")
        for spec in benchmark["per_layer"]:
            value = layers[spec["name"]]
            print(f"  {spec['name']:<26} {value:>14.6g} {spec['unit']}")
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for problem in problems:
        print(f"FAIL {problem}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(repeats),
        "failed": sum(1 for r in repeats if not r.ok),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
