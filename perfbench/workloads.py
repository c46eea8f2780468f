"""The benchmark's three workloads, each built from a seed.

Every workload is single-process, single-threaded and open loop: the
generators send on the simulated clock whatever the replies do.  Each one is
chosen to load a different layer of ``src/repro`` (see ``NOTES.md``):

* ``backhaul-packets`` -- the canned ``stateful-backhaul`` scenario (CBR
  fleets of 1,300 B packets plus one stateful migration over a 20 Mbit/s
  backhaul) and one IDS probe client.  Kernel, link, switch and host do
  almost all the work.
* ``nf-chains`` -- static clients behind long mixed NF chains on two
  server-class stations, plus one walker: many short flows and NF hops, a
  high-rate TCP source behind an IDS, and fast-path misses and evictions.
* ``roaming-control`` -- commuters shuttling between neighbouring stations
  across 2 regions x 2 shards under least-loaded placement: mobility,
  handover scans, heartbeats, container starts, placement and migration.

``size="tiny"`` shrinks every workload to a few simulated seconds for the
benchmark's own tests; the measured runs always use ``size="full"``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.core.repository import NFRepository
from repro.scenarios import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    MobilitySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
)

SIZES = ("full", "tiny")


class WorkloadError(ValueError):
    """A workload spec that cannot run (unknown name or size, bad NF type)."""


def _backhaul_packets(seed: int, size: str) -> ScenarioSpec:
    spec = build_scenario("stateful-backhaul", seed)
    # One static client behind an IDS with sparse DNS, so the IDS layer has a
    # (tiny) sample here too: a few hundred of ~680k events.
    probe = ClientFleetSpec(
        name="ids-probe",
        count=1,
        position=(10.0, -4.0),
        workloads=[WorkloadSpec(kind="dns", start_s=3.0, params={"query_interval_s": 2.0})],
    )
    return dataclasses.replace(
        spec,
        name="perfbench-backhaul-packets",
        # The roamer starts moving at 22 s; 40 s still covers its migration.
        duration_s=spec.duration_s if size == "full" else 40.0,
        fleets=list(spec.fleets) + [probe],
        assignments=list(spec.assignments)
        + [ChainAssignmentSpec(fleet="ids-probe", nfs=["ids"], attach_at_s=1.5)],
    )


def _nf_chains(seed: int, size: str) -> ScenarioSpec:
    clients = 4 if size == "full" else 1
    fleet_chains = [
        # NAT replies never reach the client today (see NOTES.md): this fleet
        # keeps the baseline request_fail_ratio near 0.2 on purpose.
        ("natfw", ["nat", "firewall"], [("cbr", {"rate_pps": 40.0, "payload_bytes": 64})]),
        (
            "sec",
            ["ids", {"nf_type": "rate-limiter", "config": {"rate_bps": 10e6}}],
            [("http", {"mean_think_time_s": 0.04})],
        ),
        (
            "web",
            ["cache", "http-filter", "flow-monitor"],
            [
                ("cbr", {"rate_pps": 60.0, "payload_bytes": 64}),
                ("http", {"mean_think_time_s": 0.5}),
            ],
        ),
        ("dnslb", ["dns-loadbalancer", "firewall"], [("dns", {"query_interval_s": 0.25})]),
        (
            "guard",
            ["firewall", "ids", "http-filter"],
            [
                ("cbr", {"rate_pps": 80.0, "payload_bytes": 64}),
                ("http", {"mean_think_time_s": 0.5}),
            ],
        ),
    ]
    fleets = []
    assignments = []
    for index, (name, nfs, workloads) in enumerate(fleet_chains):
        # Stations sit at x = 0 and x = 80: fleets alternate between them.
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=clients,
                position=(10.0 + 60.0 * (index % 2), 4.0 * index),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(kind=kind, start_s=3.0 + 0.1 * order, params=dict(params))
                    for order, (kind, params) in enumerate(workloads)
                ],
            )
        )
        assignments.append(ChainAssignmentSpec(fleet=name, nfs=list(nfs), attach_at_s=1.0 + 0.2 * index))
    # One walker commutes between the two stations behind a firewall, so
    # mobility and migration have a (small) sample here too.
    fleets.append(
        ClientFleetSpec(
            name="walker",
            count=1,
            position=(0.0, -6.0),
            mobility=MobilitySpec(
                model="commuter",
                start_s=3.0,
                params={"anchor_a": (0.0, -6.0), "anchor_b": (80.0, -6.0), "speed_mps": 10.0, "dwell_s": 2.0},
            ),
            workloads=[WorkloadSpec(kind="dns", start_s=2.0, params={"query_interval_s": 1.0})],
        )
    )
    assignments.append(ChainAssignmentSpec(fleet="walker", nfs=["firewall"], attach_at_s=1.0))
    return ScenarioSpec(
        name="perfbench-nf-chains",
        description="Static clients behind long mixed NF chains on two server-class stations.",
        seed=seed,
        duration_s=16.0 if size == "full" else 14.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0, station_profile="server"),
        fleets=fleets,
        assignments=assignments,
    )


def _roaming_control(seed: int, size: str) -> ScenarioSpec:
    stations = 24 if size == "full" else 4
    per_pair = 2 if size == "full" else 1
    chains = [["firewall"], ["flow-monitor"], ["firewall", "ids"]]
    fleets = []
    assignments = []
    for pair in range(stations - 1):
        for lane in range(per_pair):
            name = f"commuter-{pair + 1}-{lane + 1}"
            y = 3.0 * lane
            fleets.append(
                ClientFleetSpec(
                    name=name,
                    count=1,
                    position=(80.0 * pair, y),
                    mobility=MobilitySpec(
                        model="commuter",
                        start_s=4.0 + 0.5 * lane + 0.1 * pair,
                        params={
                            "anchor_a": (80.0 * pair, y),
                            "anchor_b": (80.0 * (pair + 1), y),
                            "speed_mps": 8.0 + lane,
                            "dwell_s": 6.0 + pair % 3,
                        },
                    ),
                    workloads=[WorkloadSpec(kind="dns", start_s=2.0, params={"query_interval_s": 3.0})],
                )
            )
            assignments.append(
                ChainAssignmentSpec(
                    fleet=name,
                    nfs=list(chains[(pair + lane) % len(chains)]),
                    attach_at_s=1.0 + 0.05 * (pair * per_pair + lane),
                )
            )
    return ScenarioSpec(
        name="perfbench-roaming-control",
        description="Commuters shuttle between neighbouring stations across 2 regions x 2 shards.",
        seed=seed,
        duration_s=100.0 if size == "full" else 30.0,
        topology=TopologySpec(
            station_count=stations,
            station_spacing_m=80.0,
            migration_strategy="stateful",
            placement_strategy="least-loaded",
            handover_scan_jitter_s=0.05,
            region_count=2,
            shard_count=2,
        ),
        fleets=fleets,
        assignments=assignments,
    )


BUILDERS: Dict[str, Callable[[int, str], ScenarioSpec]] = {
    "backhaul-packets": _backhaul_packets,
    "nf-chains": _nf_chains,
    "roaming-control": _roaming_control,
}


def check_nf_types(spec: ScenarioSpec, catalogue: NFRepository) -> None:
    """Reject any NF type the repository's catalogue does not hold.

    ``ScenarioSpec.validate()`` accepts unknown types (a misspelled
    ``dns-lb`` passes it) and the run then dies mid-simulation with
    ``CatalogError``; checking up front turns that into a build error.
    """
    unknown: List[str] = []
    for assignment in spec.assignments:
        for nf_type, _config in assignment.nf_specs():
            if nf_type not in catalogue and nf_type not in unknown:
                unknown.append(nf_type)
    if unknown:
        raise WorkloadError(
            f"workload {spec.name!r} uses NF types missing from the catalogue: {unknown}; "
            f"known: {catalogue.types()}"
        )


def build_workload(name: str, seed: int, size: str = "full") -> ScenarioSpec:
    """Build and check the named workload's spec for ``seed``."""
    if name not in BUILDERS:
        raise WorkloadError(f"unknown workload {name!r}; available: {sorted(BUILDERS)}")
    if size not in SIZES:
        raise WorkloadError(f"unknown size {size!r}; available: {SIZES}")
    spec = BUILDERS[name](seed, size).validate()
    check_nf_types(spec, NFRepository.with_default_catalog())
    return spec
