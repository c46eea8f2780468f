"""One repeat of one workload in a fresh interpreter.

``run.py`` starts this script once per repeat so that every repeat pays its
own imports (``setup_s`` counts them) and reports its own peak RSS.  It
prints one JSON record as its last line of output::

    python3 perfbench/worker.py --workload nf-chains --seed 0 --trace 0 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: Simulated seconds per ``advance`` step.  Between steps the worker records
#: each assignment's first activation (a later migration overwrites it) and
#: runs a slice of the host-speed reference (``reference.py``).
STEP_S = 1.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def request_generators(run) -> Dict[str, object]:
    """The run's request/response generators: every one but bulk transfers."""
    from repro.netem.trafficgen import BulkTransferGenerator

    return {
        name: generator
        for name, generator in run.generators.items()
        if not isinstance(generator, BulkTransferGenerator)
    }


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def end_to_end(run, result, rtts: List[float], attach_latencies: List[float]) -> Dict[str, Dict]:
    """Every end-to-end simulated metric with its sample count (value None = absent)."""
    request_stats = [
        stats for name, stats in result.workload_stats.items() if name in request_generators(run)
    ]
    sent = sum(stats["packets_sent"] for stats in request_stats)
    received = sum(stats["responses_received"] for stats in request_stats)
    attempted = len(run.assignments) + len(result.attach_failures)
    records = result.testbed.roaming.records
    finished = [record for record in records if record.completed_at is not None]
    gaps = [
        record.coverage_gap_s
        for record in finished
        if record.success and record.coverage_gap_s is not None
    ]
    return {
        "rtt_p50_ms": {"value": percentile(rtts, 50) * 1e3 if rtts else None, "samples": len(rtts)},
        "rtt_p99_ms": {"value": percentile(rtts, 99) * 1e3 if rtts else None, "samples": len(rtts)},
        "request_fail_ratio": {
            "value": (sent - received) / sent if sent else None,
            "samples": int(sent),
        },
        "attach_latency_p50_s": {
            "value": _median(attach_latencies),
            "samples": len(attach_latencies),
        },
        "attach_fail_ratio": {
            "value": len(result.attach_failures) / attempted if attempted else None,
            "samples": attempted,
        },
        "coverage_gap_p50_s": {"value": _median(gaps), "samples": len(gaps)},
        "migration_fail_ratio": {
            "value": sum(1 for r in finished if not r.success) / len(finished) if finished else None,
            "samples": len(finished),
            "in_flight": len(records) - len(finished),
        },
    }


def per_layer(tracer, run, result, wall_s: float, named_s: float) -> Dict[str, float]:
    """Every per-layer metric of a traced repeat (see NOTES.md for definitions)."""
    testbed = result.testbed
    self_s = tracer.self_s
    events = tracer.events
    requests = sum(generator.packets_sent for generator in request_generators(run).values())
    link_stats = [link.total_stats for link in testbed.topology.links]
    sent_on_links = sum(s.tx_packets + s.dropped_packets for s in link_stats)
    caches = [station.switch.flow_cache.stats() for station in testbed.topology.stations.values()]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    ids_packets = tracer.packets["nf.ids"]
    records = testbed.roaming.records
    finished = [record for record in records if record.completed_at is not None]
    agents = testbed.agents.values()
    scheduled = tracer.scheduled
    cancelled = scheduled - result.events_processed - testbed.simulator.queued_events

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "kernel.events": result.events_processed,
        "kernel.events_per_request": ratio(result.events_processed, requests),
        "kernel.self_s": tracer.kernel_self_s,
        "kernel.peak_queue": tracer.peak_queue,
        "kernel.cancelled_ratio": ratio(cancelled, scheduled),
        "link.events": events["link"],
        "link.transmits": tracer.calls_for("link"),
        "link.self_s": self_s["link"],
        "link.drop_ratio": ratio(sum(s.dropped_packets for s in link_stats), sent_on_links),
        "switch.packets": tracer.packets["switch"],
        "switch.self_s": self_s["switch"],
        "fastpath.miss_ratio": ratio(sum(c["misses"] for c in caches), lookups),
        "fastpath.evictions": int(sum(c["evictions"] for c in caches)),
        "host.self_s": self_s["host"],
        "packet.copies": tracer.calls["Packet.copy"],
        "trafficgen.events": events["trafficgen"],
        "trafficgen.self_s": self_s["trafficgen"],
        "trafficgen.requests": requests,
        "nf.calls": tracer.calls_for("nf"),
        "nf.self_s": self_s["nf"] + self_s["nf.ids"],
        "nf.ids.self_s": self_s["nf.ids"],
        "nf.ids.us_per_packet": ratio(self_s["nf.ids"] * 1e6, ids_packets),
        "agent.ingress_self_s": self_s["agent.ingress"],
        "agent.deploys": tracer.calls_for("agent.deploy"),
        "agent.deploy_self_s": self_s["agent.deploy"],
        "agent.heartbeats": sum(agent.heartbeats_sent for agent in agents),
        "containers.starts": sum(agent.runtime.containers_started for agent in agents),
        "containers.self_s": self_s["containers"],
        "wireless.events": sum(n for layer, n in events.items() if layer.startswith("wireless")),
        "wireless.scans": tracer.calls_for("wireless.scan"),
        "wireless.scan_self_s": self_s["wireless.scan"],
        "wireless.mobility_self_s": self_s["wireless.mobility"],
        "wireless.handovers": len(testbed.handover.events),
        "control.events": events["control"],
        "control.heartbeats": testbed.manager.heartbeats_processed,
        "control.self_s": self_s["control"],
        "placement.decisions": tracer.calls_for("placement"),
        "placement.self_s": self_s["placement"],
        "migration.started": len(records),
        "migration.success_ratio": ratio(sum(1 for r in finished if r.success), len(finished)),
        "migration.self_s": self_s["migration"],
        "telemetry.samples": tracer.calls["telemetry:sample_once"],
        "telemetry.self_s": self_s["telemetry"],
        "trace.coverage": ratio(named_s, wall_s),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    from reference import EVENTS, NOMINAL_S, Reference
    from repro.scenarios import ScenarioRunner
    from workloads import build_workload

    clock = time.perf_counter
    started = clock()
    spec = build_workload(args.workload, args.seed, args.size)
    built = clock()
    run = ScenarioRunner(spec).start()
    ready = clock()
    setup_raw_s = time.monotonic() - args.spawned_at
    named_before = tracer.named_s if tracer else 0.0

    first_active: Dict[int, float] = {}
    reference = Reference()
    steps = math.ceil(spec.duration_s / STEP_S)
    advance_s = 0.0
    remaining = spec.duration_s
    for index in range(steps):
        step = min(STEP_S, remaining)
        tick = clock()
        run.advance(step)
        advance_s += clock() - tick
        remaining -= step
        reference.run(EVENTS * (index + 1) // steps - EVENTS * index // steps)
        for _client, assignment in run.assignments:
            latency = assignment.attach_latency_s
            if latency is not None and id(assignment) not in first_active and assignment.migrations == 0:
                first_active[id(assignment)] = latency
    rtts = [rtt for generator in request_generators(run).values() for rtt in generator.rtts]
    tick = clock()
    result = run.finalize()
    finalize_s = clock() - tick
    wall_s = advance_s + finalize_s

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "digest": result.digest.hexdigest,
        "events": result.events_processed,
        "drained": result.drained,
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s * NOMINAL_S / reference.elapsed_s,
        "wall_s": wall_s,
        "wall_per_ref": wall_s / reference.elapsed_s,
        "reference_s": reference.elapsed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scenario.build_s": built - started,
        "scenario.start_s": ready - built,
        "scenario.finalize_s": finalize_s,
        "end_to_end": end_to_end(run, result, rtts, list(first_active.values())),
    }
    if tracer is not None:
        record["layers"] = per_layer(tracer, run, result, wall_s, tracer.named_s - named_before)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
