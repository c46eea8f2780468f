#!/usr/bin/env python
"""Golden digest oracle for the canned scenario library.

Replays every canned scenario at a fixed seed under each control-plane
shard count, in packet and in hybrid mode, and compares each run's
``MetricsDigest`` and simulator event count against the committed golden
file ``tests/data/scenario_digests.json``.  Performance work must leave
every digest byte-identical and, unless it means to remove events, every
event count too; this is the check that says so against a fixed baseline
instead of only between two legs of the same tree.  Hybrid legs matter
because hybrid mode is where fluid load reaches the links.

Run from the repository root::

    python tools/digest_matrix.py --check          # compare (exit 1 on drift)
    python tools/digest_matrix.py --write          # regenerate the golden file

``--scenarios`` restricts either mode to a comma-separated subset (the
golden file is then updated, or checked, for those names only).  A
mismatch names the digest sections that moved, or the event counts.  Regenerate the file only
on a change that is *meant* to alter simulated behaviour, and say why in
the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.scenarios import run_scenario, scenario_names  # noqa: E402

GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "data", "scenario_digests.json")
SEED = 1
SHARD_COUNTS = (1, 4)
SIMULATION_MODES = ("packet", "hybrid")


def leg_key(name: str, shard_count: int, mode: str = "packet") -> str:
    key = f"{name}/shards-{shard_count}"
    return key if mode == "packet" else f"{key}/{mode}"


def replay(names: List[str], log=print) -> Dict[str, Dict[str, object]]:
    """Digest and event count of every ``scenario × shard count × mode`` leg,
    keyed by :func:`leg_key`."""
    legs: Dict[str, Dict[str, object]] = {}
    for name in names:
        for mode in SIMULATION_MODES:
            for shard_count in SHARD_COUNTS:
                key = leg_key(name, shard_count, mode)
                started = time.perf_counter()
                result = run_scenario(name, seed=SEED, shard_count=shard_count, simulation_mode=mode)
                legs[key] = {
                    "digest": result.digest.hexdigest,
                    "events": result.events_processed,
                    "sections": dict(sorted(result.digest.components.items())),
                }
                log(
                    f"{key:52s} {result.digest.short} {result.events_processed:>9d} ev "
                    f"{time.perf_counter() - started:6.1f}s"
                )
    return legs


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(legs: Dict[str, Dict[str, object]], path: str = GOLDEN_PATH) -> None:
    kept = load_golden(path)["legs"] if os.path.exists(path) else {}
    golden = {
        "seed": SEED,
        "shard_counts": list(SHARD_COUNTS),
        "simulation_modes": list(SIMULATION_MODES),
        "legs": dict(sorted({**kept, **legs}.items())),  # type: ignore[dict-item]
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def compare(legs: Dict[str, Dict[str, object]], golden: Dict[str, object]) -> List[str]:
    """One line per leg whose digest or event count differs from (or is
    missing in) the golden file."""
    expected = golden["legs"]
    problems = []
    for key, leg in legs.items():
        want = expected.get(key)  # type: ignore[union-attr]
        if want is None:
            problems.append(f"{key}: no golden digest (run --write)")
            continue
        moved = []
        if want["digest"] != leg["digest"]:
            sections = sorted(
                section
                for section in set(want["sections"]) | set(leg["sections"])  # type: ignore[arg-type]
                if want["sections"].get(section) != leg["sections"].get(section)  # type: ignore[union-attr]
            )
            moved.append(f"digest {leg['digest'][:12]} != golden {want['digest'][:12]}; sections {sections}")
        if want.get("events") != leg.get("events"):
            moved.append(f"{leg.get('events')} events != golden {want.get('events')}")
        if moved:
            problems.append(f"{key}: " + "; ".join(moved))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare against the golden file")
    mode.add_argument("--write", action="store_true", help="regenerate the golden file")
    parser.add_argument("--scenarios", default="", help="comma-separated subset of scenario names")
    args = parser.parse_args(argv)

    names = [name for name in args.scenarios.split(",") if name] or list(scenario_names())
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        parser.error(f"unknown scenarios: {unknown}")
    legs = replay(names)
    if args.write:
        write_golden(legs)
        print(f"wrote {len(legs)} legs to {os.path.relpath(GOLDEN_PATH, REPO_ROOT)}")
        return 0
    problems = compare(legs, load_golden())
    for line in problems:
        print(f"DRIFT {line}")
    print(f"{len(legs) - len(problems)}/{len(legs)} legs match the golden digests")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
