"""The scenario engine: specs, runner, faults and the canned library.

The determinism matrix here is the PR's core regression gate: every canned
scenario is run twice under the same seed and must produce an identical
:class:`MetricsDigest`.  Anyone introducing global-``random`` calls,
dict-order nondeterminism or wall-clock leakage into the data path breaks
these tests loudly, with the digest diff naming the telemetry section that
moved.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    FaultSpec,
    MetricsDigest,
    MobilitySpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    run_scenario,
    scenario_names,
)

# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="", duration_s=10.0).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="x", duration_s=0.0).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a", mobility=MobilitySpec(model="teleport"))],
        ).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a", workloads=[WorkloadSpec(kind="carrier-pigeon")])],
        ).validate()
    # Assignment referencing a fleet that does not exist.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a")],
            assignments=[ChainAssignmentSpec(fleet="b", nfs=["firewall"])],
        ).validate()
    # Fault targeting a station beyond the topology.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            topology=TopologySpec(station_count=2),
            faults=[FaultSpec(kind="link-down", station=3, at_s=1.0)],
        ).validate()
    # Duplicate fleet names are ambiguous.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x", fleets=[ClientFleetSpec(name="a"), ClientFleetSpec(name="a")]
        ).validate()


def test_spec_validation_rejects_unknown_nf_types():
    # A misspelt NF type fails validation instead of the run (CatalogError
    # mid-simulation); the accepted set is exactly the default catalogue.
    from repro.core.repository import NFRepository
    from repro.scenarios.spec import NF_TYPES

    assert NF_TYPES == tuple(NFRepository.with_default_catalog().types())
    fleets = [ClientFleetSpec(name="a")]
    with pytest.raises(ScenarioSpecError, match="dns-lb"):
        ScenarioSpec(
            name="x", fleets=fleets,
            assignments=[ChainAssignmentSpec(fleet="a", nfs=["firewall", "dns-lb"])],
        ).validate()
    ScenarioSpec(
        name="x", fleets=fleets,
        assignments=[ChainAssignmentSpec(fleet="a", nfs=["firewall", "dns-loadbalancer"])],
    ).validate()


def test_spec_round_trips_to_plain_data():
    spec = build_scenario("chaos-soak", seed=5)
    data = spec.to_dict()
    assert data["name"] == "chaos-soak"
    assert data["seed"] == 5
    assert data["topology"]["station_count"] == 3
    assert all(isinstance(fault["kind"], str) for fault in data["faults"])
    # to_dict must be pure data (JSON-able), no live objects.
    import json

    json.dumps(data)


def test_chain_assignment_normalises_nf_entries():
    assignment = ChainAssignmentSpec(
        fleet="f",
        nfs=["firewall", {"nf_type": "http-filter", "config": {"blocked_hosts": ["x"]}}],
    )
    assert assignment.nf_specs() == [
        ("firewall", {}),
        ("http-filter", {"blocked_hosts": ["x"]}),
    ]


def test_chain_assignment_carries_requirements_and_slo():
    assignment = ChainAssignmentSpec(
        fleet="f",
        nfs=["firewall", {"nf_type": "ids", "requirements": {"memory_mb": 9.0}}],
        slo_max_latency_s=0.25,
        slo_min_bandwidth_mbps=1.0,
    )
    assert assignment.nf_requirements() == [None, {"memory_mb": 9.0}]
    assert assignment.has_slo()
    data = assignment.to_dict()
    assert data["slo_max_latency_s"] == 0.25
    assert data["slo_min_bandwidth_mbps"] == 1.0
    # Bad SLOs and unknown requirement keys are rejected at validate time.
    def spec_with(assignment_spec):
        return ScenarioSpec(
            name="x", fleets=[ClientFleetSpec(name="f")], assignments=[assignment_spec]
        )

    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(fleet="f", nfs=["firewall"], slo_max_latency_s=0.0)
        ).validate()
    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(fleet="f", nfs=["firewall"], slo_min_bandwidth_mbps=-1.0)
        ).validate()
    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(
                fleet="f", nfs=[{"nf_type": "ids", "requirements": {"gpu_count": 1}}]
            )
        ).validate()


# ---------------------------------------------------------------------------
# The canned library + determinism matrix (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_library_has_at_least_eight_canned_scenarios():
    names = scenario_names()
    assert len(names) >= 8, names
    for required in (
        "commuter-rush",
        "flash-crowd",
        "rolling-failure",
        "video-cell",
        "firewall-churn",
        "scheduler-day-cycle",
        "mixed-chain-density",
        "chaos-soak",
    ):
        assert required in names


@pytest.mark.parametrize("name", scenario_names())
def test_every_canned_scenario_replays_to_identical_digest(name):
    first = run_scenario(name, seed=11)
    second = run_scenario(name, seed=11)
    assert first.drained, f"{name}: first run left {first.pending_events_after_teardown} events"
    assert second.drained
    assert not first.attach_failures, first.attach_failures
    assert first.digest == second.digest, (
        f"{name} is not deterministic; differing telemetry sections: "
        f"{first.digest.diff(second.digest)}"
    )
    # The digest must be a real fingerprint, not a constant.
    assert first.digest.hexdigest != MetricsDigest.compute({}).hexdigest
    # Every scenario must generate actual traffic through the testbed.
    assert first.testbed.topology.gateway.packets_routed_upstream > 0


def test_different_seeds_change_seeded_scenarios():
    # commuter-rush draws speeds/dwell times from the seed, so two seeds must
    # diverge in telemetry (this is the "way to vary runs" the seed threading
    # exists for).
    a = run_scenario("commuter-rush", seed=1)
    b = run_scenario("commuter-rush", seed=2)
    assert a.digest != b.digest


# ---------------------------------------------------------------------------
# Rolling failure: a live chain demonstrably migrates (acceptance criterion)
# ---------------------------------------------------------------------------


def test_rolling_failure_migrates_live_chain():
    runner = ScenarioRunner(build_scenario("rolling-failure", seed=1))
    run = runner.start()
    # Station-1 crashes at t=15; by t=40 its user must have roamed away and
    # its chain must be live at the new station.
    run.advance(40.0)
    testbed = run.testbed
    client = testbed.clients["user1-1"]
    assert client.current_station_name not in (None, "station-1")
    new_station = client.current_station_name
    deployment = testbed.agents[new_station].deployment_for_client(client.ip)
    assert deployment is not None, "migrated chain not found at the new station"
    assert all(d.container.is_running for d in deployment.deployed_nfs)
    # Telemetry-based evidence: the migration record completed and the
    # migrated chain is processing the client's live traffic.
    records = [r for r in testbed.roaming.records if r.client_ip == client.ip and r.success]
    assert records, "no successful migration record in roaming telemetry"
    assert records[0].from_station == "station-1"
    assert records[0].to_station == new_station
    assert sum(d.packets_processed for d in deployment.deployed_nfs) > 0
    # Crash evidence also reached the provider-facing telemetry.
    assert testbed.manager.notifications.summary().get("critical", 0) >= 1
    sections = run.telemetry_sections()
    assert sections["faults"]["summary"]["faults_station-crash"] >= 1
    result = run.finalize()
    assert result.migrations_completed >= 1
    assert result.drained


# ---------------------------------------------------------------------------
# Fault injector details
# ---------------------------------------------------------------------------


def test_link_degrade_applies_and_recovers():
    spec = ScenarioSpec(
        name="degrade-test",
        seed=0,
        duration_s=20.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="c",
                count=1,
                workloads=[WorkloadSpec(kind="cbr", start_s=1.0, params={"rate_pps": 50.0})],
            )
        ],
        faults=[
            FaultSpec(
                kind="link-degrade",
                station=1,
                at_s=5.0,
                duration_s=5.0,
                params={"bandwidth_factor": 0.01, "loss_rate": 0.2},
            )
        ],
    )
    run = ScenarioRunner(spec).start()
    link = run.testbed.topology.uplink_links["station-1"]
    original_bw = link.bandwidth_bps
    run.advance(6.0)
    assert link.bandwidth_bps == pytest.approx(original_bw * 0.01)
    assert link.loss_rate == pytest.approx(0.2)
    run.advance(6.0)
    assert link.bandwidth_bps == pytest.approx(original_bw)
    assert link.loss_rate == 0.0
    result = run.finalize()
    assert result.drained
    # Degradation must actually have cost packets.
    generator = run.generators["c-1/cbr0"]
    assert generator.loss_rate() > 0.0


def test_container_oom_kills_one_nf_container():
    spec = ScenarioSpec(
        name="oom-test",
        seed=0,
        duration_s=25.0,
        topology=TopologySpec(station_count=1),
        fleets=[ClientFleetSpec(name="c", count=1)],
        assignments=[ChainAssignmentSpec(fleet="c", nfs=["firewall"], attach_at_s=1.0)],
        faults=[FaultSpec(kind="container-oom", station=1, at_s=15.0)],
    )
    result = ScenarioRunner(spec).run()
    agent = result.testbed.agents["station-1"]
    assert agent.runtime.containers_failed == 1
    failed = [c for c in agent.runtime.containers.values() if c.state.value == "failed"]
    assert len(failed) == 1
    assert result.drained


def test_station_crash_recovery_restores_service():
    spec = ScenarioSpec(
        name="crash-recover-test",
        seed=0,
        duration_s=40.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="c",
                count=1,
                workloads=[WorkloadSpec(kind="cbr", start_s=1.0, params={"rate_pps": 20.0})],
            )
        ],
        faults=[FaultSpec(kind="station-crash", station=1, at_s=10.0, duration_s=10.0)],
    )
    run = ScenarioRunner(spec).start()
    run.advance(15.0)
    # Crashed: cells silent, uplink down (single station => client is stuck).
    cell = next(iter(run.testbed.cells.values()))
    assert not cell.enabled
    assert not run.testbed.topology.uplink_links["station-1"].up
    run.advance(10.0)
    assert cell.enabled
    assert run.testbed.topology.uplink_links["station-1"].up
    generator = run.generators["c-1/cbr0"]
    before = generator.responses_received
    run.advance(10.0)
    # After recovery the client re-associates and echoes flow again.
    assert generator.responses_received > before
    assert run.finalize().drained


# ---------------------------------------------------------------------------
# Runner behaviours
# ---------------------------------------------------------------------------


def test_staggered_appearance_and_attach_burst():
    spec = build_scenario("flash-crowd", seed=2)
    run = ScenarioRunner(spec).start()
    assert len(run.testbed.clients) == 0  # everyone appears later
    run.advance(5.0)
    assert len(run.testbed.clients) == 8
    result = run.finalize()
    states = {a.state.value for _, a in run.assignments}
    assert len(run.assignments) == 8
    assert states == {"active"}
    assert result.drained


def test_detach_schedule_removes_chain():
    spec = build_scenario("firewall-churn", seed=0)
    run = ScenarioRunner(spec).start()
    run.advance(22.0)  # first wave attached at 2, detached at 18
    manager = run.testbed.manager
    removed = [a for _, a in run.assignments if a.state.value == "removed"]
    assert len(removed) == 3
    for station in run.testbed.agents.values():
        for deployment in station.deployments.values():
            assert deployment.assignment_id in manager.assignments
    assert run.finalize().drained


def test_runner_seed_override_wins_over_spec_seed():
    spec = build_scenario("commuter-rush", seed=1)
    result = ScenarioRunner(spec).run(seed=99)
    assert result.seed == 99
    # Same override replays identically.
    again = ScenarioRunner(build_scenario("commuter-rush", seed=1)).run(seed=99)
    assert result.digest == again.digest
