"""Unit tests for links, interfaces, hosts, veth pairs and the core server."""

from __future__ import annotations

import pytest

from repro.netem import packet as pkt
from repro.netem.host import Host, Interface, Server, VethPair
from repro.netem.link import Link
from repro.netem.simulator import SimulationError, Simulator


class RecordingHost(Host):
    """Test helper that records every packet it receives."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.received = []

    def handle_packet(self, packet, interface):
        self.received.append((packet, interface.name, self.simulator.now))


def make_pair(simulator, bandwidth=1e9, delay=0.001, loss=0.0, queue=1000):
    a_host = RecordingHost(simulator, "host-a")
    b_host = RecordingHost(simulator, "host-b")
    a_iface = Interface("a-eth0", mac="02:00:00:00:00:01", ip="10.0.0.1")
    b_iface = Interface("b-eth0", mac="02:00:00:00:00:02", ip="10.0.0.2")
    a_host.add_interface(a_iface)
    b_host.add_interface(b_iface)
    link = Link(simulator, bandwidth_bps=bandwidth, delay_s=delay, loss_rate=loss, max_queue_packets=queue)
    link.attach(a_iface, b_iface)
    return a_host, b_host, link


def test_link_delivers_packet_to_peer(simulator):
    a, b, link = make_pair(simulator)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=100)
    a.send(packet)
    simulator.run()
    assert len(b.received) == 1
    assert b.received[0][0] is packet


def test_link_latency_includes_serialization_and_propagation(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e6, delay=0.01)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    expected = packet.size_bytes * 8 / 1e6 + 0.01
    a.send(packet)
    simulator.run()
    assert b.received[0][2] == pytest.approx(expected)


def test_back_to_back_packets_queue_behind_each_other(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e6, delay=0.0)
    p1 = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    p2 = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    a.send(p1)
    a.send(p2)
    simulator.run()
    t1 = b.received[0][2]
    t2 = b.received[1][2]
    assert t2 == pytest.approx(2 * t1)


def test_link_down_drops_packets(simulator):
    a, b, link = make_pair(simulator)
    link.set_up(False)
    accepted = a.primary_interface.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert not accepted
    assert b.received == []
    assert link.total_stats.dropped_packets == 1


def test_full_queue_drops_packets(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e3, queue=2)
    for _ in range(5):
        a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=500))
    simulator.run()
    assert len(b.received) == 2
    assert link.total_stats.dropped_packets == 3


def test_lossy_link_drops_a_fraction(simulator):
    a, b, link = make_pair(simulator, loss=0.5)
    for _ in range(200):
        a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert 40 < len(b.received) < 160
    assert link.total_stats.dropped_packets + len(b.received) == 200


def test_link_stats_track_bytes(simulator):
    a, b, link = make_pair(simulator)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=200)
    a.send(packet)
    simulator.run()
    stats = link.stats(a.primary_interface)
    assert stats.tx_packets == 1
    assert stats.tx_bytes == packet.size_bytes


def test_link_is_full_duplex(simulator):
    a, b, link = make_pair(simulator)
    a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    b.send(pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1))
    simulator.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_link_invalid_parameters(simulator):
    with pytest.raises(ValueError):
        Link(simulator, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(simulator, delay_s=-1)
    with pytest.raises(ValueError):
        Link(simulator, loss_rate=1.5)


def test_link_double_attach_rejected(simulator):
    a, b, link = make_pair(simulator)
    with pytest.raises(RuntimeError):
        link.attach(a.primary_interface, b.primary_interface)


def test_peer_of_unknown_interface_rejected(simulator):
    a, b, link = make_pair(simulator)
    stranger = Interface("x", mac="02:00:00:00:00:99")
    with pytest.raises(ValueError):
        link.peer_of(stranger)


def test_host_duplicate_interface_name_rejected(simulator):
    host = Host(simulator, "h")
    host.add_interface(Interface("eth0", mac="02:00:00:00:00:01"))
    with pytest.raises(ValueError):
        host.add_interface(Interface("eth0", mac="02:00:00:00:00:02"))


def test_host_primary_interface_requires_one(simulator):
    host = Host(simulator, "empty")
    with pytest.raises(RuntimeError):
        _ = host.primary_interface
    assert host.ip is None


def test_interface_down_refuses_traffic(simulator):
    a, b, link = make_pair(simulator)
    b.primary_interface.up = False
    a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert b.received == []


def test_packet_handler_override(simulator):
    host = Host(simulator, "h")
    iface = host.add_interface(Interface("eth0", mac="02:00:00:00:00:01"))
    seen = []
    host.packet_handler = lambda packet, interface: seen.append(packet)
    iface.deliver(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    assert len(seen) == 1


def test_veth_pair_crosses_between_ends(simulator):
    pair = VethPair(simulator, "veth0", "02:aa:00:00:00:01", "02:aa:00:00:00:02")
    seen = []
    pair.end_b.delivery_override = lambda packet, iface: seen.append(packet)
    pair.end_a.send(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    simulator.run()
    assert len(seen) == 1


def test_veth_pair_with_crossing_delay(simulator):
    pair = VethPair(simulator, "veth1", "02:aa:00:00:00:03", "02:aa:00:00:00:04", crossing_delay_s=0.01)
    times = []
    pair.end_b.delivery_override = lambda packet, iface: times.append(simulator.now)
    pair.end_a.send(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    simulator.run()
    assert times == [pytest.approx(0.01)]


def _connect_server(simulator, server):
    client = RecordingHost(simulator, "probe")
    client_iface = client.add_interface(Interface("probe-eth0", mac="02:00:00:00:01:01", ip="10.0.0.1"))
    server_iface = server.add_interface(Interface("srv-eth0", mac="02:00:00:00:01:02", ip="10.0.0.9"))
    link = Link(simulator, bandwidth_bps=1e9, delay_s=0.001)
    link.attach(client_iface, server_iface)
    return client


def test_server_answers_http_requests(simulator):
    server = Server(simulator, "web", http_body_bytes=2048)
    client = _connect_server(simulator, server)
    client.send(pkt.make_http_request("10.0.0.1", "10.0.0.9", host="example.com"))
    simulator.run()
    assert server.requests_served == 1
    response = client.received[0][0]
    assert isinstance(response.app, pkt.HTTPResponse)
    assert response.app.body_bytes == 2048


def test_server_answers_dns_from_zone(simulator):
    server = Server(simulator, "dns", dns_zone={"cdn.example.com": ["9.9.9.9"]})
    client = _connect_server(simulator, server)
    client.send(pkt.make_dns_query("10.0.0.1", "10.0.0.9", name="cdn.example.com"))
    simulator.run()
    response = client.received[0][0]
    assert response.app.addresses == ("9.9.9.9",)


def test_server_echoes_udp_and_icmp(simulator):
    server = Server(simulator, "echo")
    client = _connect_server(simulator, server)
    client.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.9", 4000, 9000, payload_bytes=64))
    client.send(pkt.make_icmp_echo("10.0.0.1", "10.0.0.9"))
    simulator.run()
    assert server.udp_packets_echoed == 1
    assert server.icmp_echoes_served == 1
    assert len(client.received) == 2


def test_server_ignores_traffic_for_other_destinations(simulator):
    server = Server(simulator, "web")
    client = _connect_server(simulator, server)
    client.send(pkt.make_http_request("10.0.0.1", "10.0.0.200", host="example.com"))
    simulator.run()
    assert server.requests_served == 0
    assert client.received == []


# --------------------------------------------------------------------------
# Per-direction accounting of the link hop
# --------------------------------------------------------------------------


def test_link_accounts_each_direction_and_delivers_to_the_peer(simulator):
    a, b, link = make_pair(simulator)
    a_iface, b_iface = a.primary_interface, b.primary_interface
    up = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=100)
    down = [pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1, payload_bytes=300) for _ in range(2)]
    assert link.transmit(up, a_iface)
    for packet in down:
        assert link.transmit(packet, b_iface)
    simulator.run()
    assert [(packet, name) for packet, name, _ in b.received] == [(up, "b-eth0")]
    assert [(packet, name) for packet, name, _ in a.received] == [(down[0], "a-eth0"), (down[1], "a-eth0")]
    assert up.hops == 1 and down[0].hops == 1
    a_to_b, b_to_a = link.stats(a_iface), link.stats(b_iface)
    assert (a_to_b.tx_packets, a_to_b.tx_bytes) == (1, up.size_bytes)
    assert (b_to_a.tx_packets, b_to_a.tx_bytes) == (2, 2 * down[0].size_bytes)
    assert a_to_b.queued_high_water == 1
    assert b_to_a.queued_high_water == 2
    assert a_to_b.dropped_packets == b_to_a.dropped_packets == 0
    total = link.total_stats
    assert (total.tx_packets, total.tx_bytes) == (3, up.size_bytes + 2 * down[0].size_bytes)


def test_link_down_drops_count_against_the_sending_direction(simulator):
    a, b, link = make_pair(simulator)
    link.set_up(False)
    packet = pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1, payload_bytes=50)
    assert not link.transmit(packet, b.primary_interface)
    simulator.run()
    dropped = link.stats(b.primary_interface)
    assert (dropped.dropped_packets, dropped.dropped_bytes) == (1, packet.size_bytes)
    assert dropped.queued_high_water == 0
    assert link.stats(a.primary_interface).dropped_packets == 0


def test_link_going_down_in_flight_drops_on_delivery(simulator):
    a, b, link = make_pair(simulator, delay=0.01)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    assert link.transmit(packet, a.primary_interface)
    simulator.schedule(0.005, link.set_up, False)
    simulator.run()
    stats = link.stats(a.primary_interface)
    assert b.received == []
    assert (stats.tx_packets, stats.dropped_packets, stats.dropped_bytes) == (0, 1, packet.size_bytes)
    assert packet.hops == 0


def test_full_queue_drops_and_high_water_per_direction(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e3, queue=3)
    packets = [pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=500) for _ in range(5)]
    accepted = [link.transmit(packet, a.primary_interface) for packet in packets]
    assert accepted == [True, True, True, False, False]
    stats = link.stats(a.primary_interface)
    assert stats.queued_high_water == 3
    assert (stats.dropped_packets, stats.dropped_bytes) == (2, 2 * packets[0].size_bytes)
    simulator.run()
    assert [packet for packet, _, _ in b.received] == packets[:3]
    assert stats.tx_packets == 3
    # The queue drained, so the next packet is accepted again.
    assert link.transmit(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), a.primary_interface)
    assert link.stats(b.primary_interface).queued_high_water == 0


def test_link_arrival_time_is_the_exact_serialization_expression(simulator):
    bandwidth, delay = 7e6, 0.0013
    a, b, link = make_pair(simulator, bandwidth=bandwidth, delay=delay)
    simulator.schedule(0.1, lambda: None)
    simulator.run()
    first = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=999)
    second = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=333)
    link.transmit(first, a.primary_interface)
    link.transmit(second, a.primary_interface)
    simulator.run()
    busy = 0.1 + (first.size_bytes * 8) / bandwidth
    assert b.received[0][2] == busy + delay
    busy = busy + (second.size_bytes * 8) / bandwidth
    assert b.received[1][2] == busy + delay


def test_fluid_load_inflates_serialization_on_the_packet_path(simulator):
    bandwidth, delay = 1e6, 0.0
    a, b, link = make_pair(simulator, bandwidth=bandwidth, delay=delay)
    link.set_fluid_load("a_to_b", 0.75 * bandwidth)
    up = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    down = pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1, payload_bytes=1000)
    link.transmit(up, a.primary_interface)
    link.transmit(down, b.primary_interface)
    simulator.run()
    bare = (up.size_bytes * 8) / bandwidth
    assert b.received[0][2] == pytest.approx(4 * bare)  # a quarter of the rate is left
    assert a.received[0][2] == bare  # the other direction carries no fluid load


def test_transmit_from_a_foreign_interface_is_rejected(simulator):
    a, b, link = make_pair(simulator)
    stranger = Interface("x", mac="02:00:00:00:00:99")
    with pytest.raises(ValueError):
        link.transmit(pkt.make_udp_packet("10.0.0.9", "10.0.0.2", 1, 2), stranger)
    with pytest.raises(ValueError):
        link.transmit_batch([pkt.make_udp_packet("10.0.0.9", "10.0.0.2", 1, 2)], stranger)
    assert simulator.pending_events == 0


# --------------------------------------------------------------------------
# Pipe directions (sends run as of their send time)
# --------------------------------------------------------------------------


def _piped_sends(pipe, cut_through=False):
    """Batches and singles sent at fixed times, either from events (per-hop)
    or as of those times from one earlier call (pipe)."""
    simulator = Simulator()
    a_host, b_host, link = make_pair(simulator, bandwidth=1e6, delay=0.01, queue=4)
    a = a_host.primary_interface
    if pipe:
        link.set_pipe(a, True, cut_through=cut_through)
    plan = [(0.0, [500, 500, 500]), (0.001, [1500]), (0.002, [300, 300, 300]), (0.05, [100])]

    def send(sizes):
        packets = [pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=s) for s in sizes]
        if len(packets) == 1:
            link.transmit(packets[0], a)
        else:
            link.transmit_batch(packets, a)

    for at, sizes in plan:
        if pipe:
            simulator.call_as_of(at, send, sizes)
        else:
            simulator.schedule_at(at, send, sizes)
    simulator.run()
    stats = link.stats(a)
    arrivals = [(packet.size_bytes, at) for packet, _, at in b_host.received]
    return arrivals, (stats.tx_packets, stats.dropped_packets, stats.queued_high_water)


@pytest.mark.parametrize("cut_through", [False, True])
def test_pipe_direction_matches_per_hop_sends(cut_through):
    per_hop = _piped_sends(pipe=False)
    piped = _piped_sends(pipe=True, cut_through=cut_through)
    assert piped == per_hop
    assert per_hop[1][1] > 0 and per_hop[1][2] == 4  # the queue filled and dropped


def test_pipe_rejects_sends_out_of_time_order(simulator):
    a_host, _, link = make_pair(simulator)
    a = a_host.primary_interface
    link.set_pipe(a, True)
    simulator.call_as_of(1.0, link.transmit, pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), a)
    with pytest.raises(SimulationError):
        simulator.call_as_of(0.5, link.transmit, pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), a)


def test_pipe_mode_changes_only_while_the_direction_is_idle(simulator):
    a_host, _, link = make_pair(simulator)
    a = a_host.primary_interface
    link.transmit(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), a)
    with pytest.raises(SimulationError):
        link.set_pipe(a, True)
    simulator.run()
    link.set_pipe(a, True)
    simulator.call_as_of(simulator.now + 1.0, link.transmit, pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), a)
    with pytest.raises(SimulationError):
        link.set_pipe(a, False)
