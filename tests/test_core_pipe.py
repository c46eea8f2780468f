"""The core pipe: fixed core delays run as of their due time, exactly.

With one server, no fluid load and no faults on core links, the topology
computes the core's hops when the packet enters it instead of one event per
hop (see :class:`~repro.netem.topology.EdgeTopology`).  These tests hold the
pipe to the per-hop path it replaces: same arrival times, drops, high-water
marks and counters, with fewer events.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem import packet as pkt
from repro.netem.simulator import SimulationError, Simulator
from repro.netem.topology import EdgeTopology, TopologyConfig
from repro.scenarios import (
    ClientFleetSpec,
    MobilitySpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

CLIENT_IP = "10.10.0.5"
CLIENT_MAC = "02:00:00:00:00:55"
UDP_HEADERS = pkt.ETHERNET_HEADER_BYTES + pkt.IPV4_HEADER_BYTES + pkt.UDP_HEADER_BYTES


def _link_stats(topology: EdgeTopology, names) -> Dict[str, Tuple[int, int, int, int, int]]:
    out = {}
    for link in topology.links:
        if link.name not in names:
            continue
        for sender in (link.endpoint_a, link.endpoint_b):
            stats = link.stats(sender)
            out[f"{link.name}:{sender.name}"] = (
                stats.tx_packets,
                stats.tx_bytes,
                stats.dropped_packets,
                stats.dropped_bytes,
                stats.queued_high_water,
            )
    return out


def _gateway_counters(topology: EdgeTopology) -> Tuple[int, int, int]:
    gateway = topology.gateway
    return (gateway.packets_routed_upstream, gateway.packets_routed_downstream, gateway.packets_dropped)


# --------------------------------------------------------------------------
# When the pipe is on
# --------------------------------------------------------------------------


def test_pipe_is_on_for_one_server_in_packet_mode():
    topology = EdgeTopology(Simulator())
    assert topology.core_pipe
    assert topology.core_switch.pipe and topology.server("server-1").pipe


def test_pipe_is_off_with_two_servers():
    topology = EdgeTopology(Simulator(), TopologyConfig(server_count=2))
    assert not topology.core_pipe
    assert not topology.core_switch.pipe
    assert not any(server.pipe for server in topology.servers.values())


def test_adding_a_server_turns_the_pipe_off():
    topology = EdgeTopology(Simulator())
    topology.add_server("server-2")
    assert not topology.core_pipe


def test_pipe_is_off_in_hybrid_mode():
    assert GNFTestbed(TestbedConfig(station_count=1)).topology.core_pipe
    hybrid = GNFTestbed(TestbedConfig(station_count=1, simulation_mode="hybrid"))
    assert not hybrid.topology.core_pipe


def test_pipe_changes_only_while_the_core_is_idle():
    simulator = Simulator()
    topology = EdgeTopology(simulator)
    server = topology.server("server-1")
    packet = pkt.make_udp_packet(CLIENT_IP, server.ip, 1, 9000, payload_bytes=100)
    topology.gateway.receive_packet(packet, topology.gateway.station_interfaces["station-1"])
    # The upstream hops already ran as of their due times: the packet is in
    # flight on the server link, so the core cannot leave the pipe now.
    with pytest.raises(SimulationError):
        topology.add_server("server-2")
    simulator.run()
    assert server.udp_packets_echoed == 1


def test_a_per_hop_core_takes_a_server_mid_flight():
    simulator = Simulator()
    topology = EdgeTopology(simulator, TopologyConfig(server_count=2))
    server = topology.server("server-1")
    packet = pkt.make_udp_packet(CLIENT_IP, server.ip, 1, 9000, payload_bytes=100)
    topology.gateway.receive_packet(packet, topology.gateway.station_interfaces["station-1"])
    simulator.run(until=0.005)
    topology.add_server("server-3")
    assert not topology.core_pipe
    simulator.run()
    assert server.udp_packets_echoed == 1


# --------------------------------------------------------------------------
# Exactness: pipe on vs the per-hop path
# --------------------------------------------------------------------------


def _round_trip(bursts: List[Tuple[float, List[int]]], pipe: bool, max_queue: int):
    """Send UDP bursts from station-1 through gateway and server and back."""
    simulator = Simulator()
    topology = EdgeTopology(simulator)
    if not pipe:
        topology.allow_fluid()  # the per-hop twin of the same topology
    assert topology.core_pipe is pipe
    for link in topology.links:
        link.max_queue_packets = max_queue
    server = topology.server("server-1")
    topology.register_client(CLIENT_IP, CLIENT_MAC, "station-1")

    at_server: List[Tuple[float, int]] = []
    handle = server.handle_packet

    def record_server(packet, interface):
        at_server.append((simulator.now, packet.size_bytes))
        handle(packet, interface)

    server.handle_packet = record_server  # type: ignore[method-assign]
    back: List[Tuple[float, int, float]] = []
    uplink = topology.station("station-1").switch.ports[topology.station("station-1").uplink_port]
    uplink.interface.delivery_override = lambda packet, _: back.append(
        (simulator.now, packet.size_bytes, packet.metadata["request_created_at"])
    )

    gateway_side = topology.gateway.station_interfaces["station-1"]
    at = 0.0
    port = 1
    for gap_s, sizes in bursts:
        at += gap_s
        for size in sizes:
            packet = pkt.make_udp_packet(
                CLIENT_IP, server.ip, port, 9000, payload_bytes=size - UDP_HEADERS, created_at=at
            )
            port += 1
            simulator.schedule_at(at, gateway_side.deliver, packet)
    simulator.run()
    names = {"gw-core-link", "server-1-core-link"}
    return {
        "server": at_server,
        "back": back,
        "links": _link_stats(topology, names),
        "gateway": _gateway_counters(topology),
        "events": simulator.events_processed,
    }


@settings(max_examples=40, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2e-5),
            st.lists(st.integers(min_value=64, max_value=1500), min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=12,
    ),
    max_queue=st.integers(min_value=1, max_value=4),
)
def test_pipe_matches_per_hop_path_on_random_bursts(bursts, max_queue):
    piped = _round_trip(bursts, pipe=True, max_queue=max_queue)
    per_hop = _round_trip(bursts, pipe=False, max_queue=max_queue)
    for key in ("server", "back", "links", "gateway"):
        assert piped[key] == per_hop[key], key
    assert piped["events"] <= per_hop["events"]


def test_pipe_drops_and_high_water_match_under_overload():
    bursts = [(0.0, [1500] * 8), (1e-6, [64, 1500, 700] * 3), (0.002, [900] * 6)]
    piped = _round_trip(bursts, pipe=True, max_queue=3)
    per_hop = _round_trip(bursts, pipe=False, max_queue=3)
    assert piped["links"] == per_hop["links"]
    upstream = piped["links"]["gw-core-link:gw-core"]
    assert upstream[2] > 0 and upstream[4] == 3  # drops and a full queue happened
    assert piped["back"] == per_hop["back"] and piped["back"]
    # The core hops ran inside the events that knew the packets.
    assert piped["events"] < per_hop["events"]


def test_gateway_counts_an_upstream_route_only_once_it_is_due():
    simulator = Simulator()
    topology = EdgeTopology(simulator)
    server = topology.server("server-1")
    gateway = topology.gateway
    packet = pkt.make_udp_packet(CLIENT_IP, server.ip, 1, 9000)
    simulator.schedule_at(1.0, gateway.station_interfaces["station-1"].deliver, packet)
    simulator.run(until=1.0)
    # The route ran as of 1.0 + forwarding delay; it is not counted before.
    assert gateway.packets_routed_upstream == 0
    simulator.run(until=1.0 + gateway.forwarding_delay_s)
    assert gateway.packets_routed_upstream == 1


def _spec(server_count: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="core-pipe",
        seed=3,
        duration_s=12.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0, server_count=server_count),
        fleets=[
            ClientFleetSpec(
                name="walkers",
                count=3,
                position=(10.0, 0.0),
                spread_m=20.0,
                mobility=MobilitySpec(
                    model="linear",
                    start_s=2.0,
                    params={"velocity_mps": (10.0, 0.0), "destination": (80.0, 0.0)},
                ),
                workloads=[
                    WorkloadSpec(kind="cbr", start_s=0.5, params={"rate_pps": 200.0, "payload_bytes": 200}),
                    WorkloadSpec(kind="http", start_s=1.0, params={"mean_think_time_s": 0.2}),
                    WorkloadSpec(kind="dns", start_s=1.0, params={"query_interval_s": 0.5}),
                ],
            )
        ],
    )


def test_pipe_matches_an_idle_second_server_end_to_end():
    """One server (pipe on) against one server plus an idle second one
    (pipe off by structure): the live server sees the same traffic."""
    results = {}
    for server_count in (1, 2):
        spec = _spec(server_count)
        run = ScenarioRunner(spec).start()
        run.advance(spec.duration_s)
        result = run.finalize()
        topology = result.testbed.topology
        assert topology.core_pipe is (server_count == 1)
        results[server_count] = {
            "rtts": {name: list(gen.rtts) for name, gen in sorted(run.generators.items())},
            "workloads": result.workload_stats,
            "gateway": _gateway_counters(topology),
            "links": _link_stats(topology, {"gw-core-link", "server-1-core-link"}),
            "digest": result.digest.components["gateway"],
            "events": result.events_processed,
        }
    assert any(results[1]["rtts"].values())
    for key in ("rtts", "workloads", "gateway", "links", "digest"):
        assert results[1][key] == results[2][key], key
    assert results[1]["events"] < results[2]["events"]


# --------------------------------------------------------------------------
# The core switch has no flow cache
# --------------------------------------------------------------------------


def _core_switch_counters(server_count: int, flow_cache: bool):
    spec = _spec(server_count)
    run = ScenarioRunner(spec).start()
    switch = run.testbed.topology.core_switch
    assert not switch.fastpath_enabled  # as built
    switch.fastpath_enabled = flow_cache  # the build before it lost the cache
    run.advance(spec.duration_s)
    result = run.finalize()
    summary = switch.summary()
    counters = {
        key: summary[key] for key in ("packets_forwarded", "packets_flooded", "packets_dropped", "mac_entries")
    }
    return {
        "counters": counters,
        "ports": {number: vars(stats) for number, stats in switch.port_stats().items()},
        "links": _link_stats(result.testbed.topology, {"gw-core-link", "server-1-core-link", "server-2-core-link"}),
        "digest": result.digest.hexdigest,
        "cache": (summary["fastpath_hits"], summary["fastpath_misses"]),
    }


@pytest.mark.parametrize("server_count", [1, 2])
def test_core_switch_without_a_flow_cache_forwards_and_floods_as_before(server_count):
    cached = _core_switch_counters(server_count, flow_cache=True)
    uncached = _core_switch_counters(server_count, flow_cache=False)
    for key in ("counters", "ports", "links", "digest"):
        assert uncached[key] == cached[key], key
    assert cached["counters"]["packets_forwarded"] > 0 and cached["counters"]["packets_flooded"] > 0
    # No rule is ever installed there, so the cache never stored a verdict.
    hits, misses = cached["cache"]
    assert hits == 0 and misses == sum(stats["rx_packets"] for stats in cached["ports"].values())
    assert uncached["cache"] == (0, 0)
