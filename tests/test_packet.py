"""Unit tests for the packet model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.netem import packet as pkt
from repro.netem.host import Interface, Server
from repro.netem.simulator import Simulator
from repro.nfs.base import Direction, ProcessingContext
from repro.nfs.cache import EdgeCache
from repro.nfs.http_filter import HTTPFilter


def test_tcp_packet_has_sane_size():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 80, payload_bytes=100)
    assert packet.size_bytes == 14 + 20 + 20 + 100


def test_minimum_frame_size_is_64_bytes():
    packet = pkt.Packet(eth=pkt.EthernetHeader("a", "b"))
    assert packet.size_bytes == 64


def test_udp_packet_protocol_number():
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 5000, 53)
    assert packet.ip.protocol == pkt.PROTO_UDP
    assert packet.is_udp and not packet.is_tcp


def test_icmp_echo_and_reply():
    echo = pkt.make_icmp_echo("10.0.0.1", "10.0.0.2", identifier=7, sequence=3)
    assert echo.is_icmp
    reply = echo.l4.reply()
    assert reply.icmp_type == 0
    assert reply.identifier == 7
    assert reply.sequence == 3


def test_flow_key_extraction():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1111, 80)
    key = packet.flow_key
    assert key == pkt.FlowKey("10.0.0.1", "10.0.0.2", pkt.PROTO_TCP, 1111, 80)


def test_flow_key_reversed_and_canonical():
    key = pkt.FlowKey("10.0.0.2", "10.0.0.1", pkt.PROTO_TCP, 80, 1111)
    reverse = key.reversed()
    assert reverse.src_ip == "10.0.0.1"
    assert reverse.dst_port == 80
    assert key.canonical() == reverse.canonical()


def test_non_ip_packet_has_no_flow_key():
    packet = pkt.Packet(eth=pkt.EthernetHeader("a", "b"))
    assert packet.flow_key is None


def test_packet_copy_is_independent():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    packet.metadata["tag"] = "original"
    clone = packet.copy()
    clone.ip.src = "10.9.9.9"
    clone.metadata["tag"] = "copy"
    assert packet.ip.src == "10.0.0.1"
    assert packet.metadata["tag"] == "original"
    assert clone.packet_id != packet.packet_id


def test_ttl_decrement_drops_at_zero():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    packet.ip.ttl = 1
    assert not packet.decrement_ttl()


def test_ethernet_swapped():
    header = pkt.EthernetHeader(src="aa", dst="bb")
    swapped = header.swapped()
    assert (swapped.src, swapped.dst) == ("bb", "aa")


def test_ip_swapped_resets_ttl():
    header = pkt.IPv4Header(src="1.1.1.1", dst="2.2.2.2", ttl=3)
    swapped = header.swapped()
    assert swapped.src == "2.2.2.2"
    assert swapped.ttl == 64


def test_http_request_url():
    request = pkt.HTTPRequest(method="GET", host="example.com", path="/index.html")
    assert request.url == "http://example.com/index.html"


def test_http_response_builder_swaps_endpoints():
    request = pkt.make_http_request("10.0.0.1", "10.0.0.9", host="example.com", path="/a")
    response = pkt.make_http_response(request, status=200, body_bytes=5000)
    assert response.ip.src == "10.0.0.9"
    assert response.ip.dst == "10.0.0.1"
    assert response.app.status == 200
    assert response.app.request_url == "http://example.com/a"
    assert response.size_bytes > 5000


def test_http_response_requires_request_payload():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(ValueError):
        pkt.make_http_response(packet)


def test_dns_query_and_response_builders():
    query = pkt.make_dns_query("10.0.0.1", "10.0.0.8", name="cdn.example.com", query_id=11)
    assert query.l4.dst_port == 53
    response = pkt.make_dns_response(query, addresses=("1.2.3.4", "5.6.7.8"))
    assert response.app.addresses == ("1.2.3.4", "5.6.7.8")
    assert response.app.query_id == 11
    assert response.ip.dst == "10.0.0.1"


def test_dns_response_requires_query_payload():
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(ValueError):
        pkt.make_dns_response(packet, addresses=("1.1.1.1",))


def test_tcp_header_swapped_sets_ack_flag():
    header = pkt.TCPHeader(src_port=1000, dst_port=80, seq=5, ack=9)
    swapped = header.swapped()
    assert swapped.src_port == 80
    assert swapped.dst_port == 1000
    assert swapped.ack_flag


def test_packet_ids_are_unique_and_increasing():
    first = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    second = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    assert second.packet_id > first.packet_id


def test_app_payload_contributes_to_size():
    bare = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    with_http = pkt.make_http_request("1.1.1.1", "2.2.2.2", host="x.com")
    assert with_http.size_bytes > bare.size_bytes


def test_packet_copy_clones_every_header_and_keeps_payload_fields_shallow():
    packet = pkt.make_http_request("10.0.0.1", "10.0.0.2", host="example.org", path="/a")
    packet.app.headers["cookie"] = "abc"
    packet.metadata["tag"] = "original"
    packet.hops = 3
    size = packet.size_bytes
    clone = packet.copy()
    for name in ("eth", "ip", "l4", "app"):
        original, copied = getattr(packet, name), getattr(clone, name)
        assert copied is not original
        assert type(copied) is type(original)
        assert copied == original
    # Below the headers the copy is shallow, as dataclasses.replace is.
    assert clone.app.headers is packet.app.headers
    clone.l4.dst_port = 8080
    clone.eth.dst = "02:00:00:00:00:99"
    clone.app.path = "/b"
    assert (packet.l4.dst_port, packet.eth.dst, packet.app.path) == (80, "00:00:00:00:00:02", "/a")
    assert clone.metadata == {"tag": "original"} and clone.metadata is not packet.metadata
    assert (clone.hops, clone.created_at, clone.payload_bytes) == (3, packet.created_at, packet.payload_bytes)
    assert clone.size_bytes == size


def test_packet_copy_of_partial_packet_keeps_missing_headers_missing():
    packet = pkt.Packet(eth=pkt.EthernetHeader("a", "b"), payload_bytes=10)
    clone = packet.copy()
    assert clone.ip is None and clone.l4 is None and clone.app is None
    assert clone.eth is not packet.eth and clone.eth == packet.eth
    assert clone.size_bytes == packet.size_bytes == 64
    # The size field carried over, and the setters still recompute it.
    clone.payload_bytes = 100
    assert clone.size_bytes == 114
    assert packet.size_bytes == 64


# --------------------------------------------------------------------------
# ``size_bytes`` is a field: it must always equal a from-scratch computation.
# --------------------------------------------------------------------------

_L4_BYTES = {pkt.TCPHeader: 20, pkt.UDPHeader: 8, pkt.ICMPHeader: 8}


def wire_size(packet):
    """The on-the-wire size recomputed from the packet's current contents."""
    size = packet.payload_bytes
    size += 14 if packet.eth is not None else 0
    size += 20 if packet.ip is not None else 0
    size += _L4_BYTES.get(type(packet.l4), 0)
    if isinstance(packet.app, (pkt.HTTPRequest, pkt.HTTPResponse)):
        size += 200 + packet.app.body_bytes
    elif isinstance(packet.app, (pkt.DNSQuery, pkt.DNSResponse)):
        size += 48
    return max(size, 64)


_bodies = st.integers(min_value=0, max_value=20_000)
_apps = st.one_of(
    st.none(),
    _bodies.map(lambda body: pkt.HTTPRequest("POST", "example.org", "/", body_bytes=body)),
    _bodies.map(lambda body: pkt.HTTPResponse(200, body_bytes=body)),
    st.just(pkt.DNSQuery("example.org")),
    st.just(pkt.DNSResponse("example.org", ("10.0.0.9",))),
)
_l4s = st.sampled_from(
    [None, pkt.TCPHeader(1, 2), pkt.UDPHeader(1, 2), pkt.ICMPHeader()]
)
_payloads = st.integers(min_value=0, max_value=3_000)


@settings(max_examples=100, deadline=None)
@given(
    with_eth=st.booleans(),
    with_ip=st.booleans(),
    l4=_l4s,
    app=_apps,
    payload=_payloads,
    new_app=_apps,
    new_payload=_payloads,
)
def test_size_field_matches_a_recomputation_through_every_mutation(
    with_eth, with_ip, l4, app, payload, new_app, new_payload
):
    packet = pkt.Packet(
        eth=pkt.EthernetHeader("a", "b") if with_eth else None,
        ip=pkt.IPv4Header("10.0.0.1", "10.0.0.2") if with_ip else None,
        l4=l4,
        app=app,
        payload_bytes=payload,
    )
    assert packet.size_bytes == wire_size(packet)
    clone = packet.copy()
    assert clone.size_bytes == wire_size(clone) == packet.size_bytes
    clone.app = new_app
    assert clone.size_bytes == wire_size(clone)
    clone.payload_bytes = new_payload
    assert clone.size_bytes == wire_size(clone)
    assert packet.size_bytes == wire_size(packet)


def _server_response(request):
    """What a core server sends back for ``request`` (captured, not wired)."""
    simulator = Simulator()
    server = Server(simulator, "server", processing_delay_s=0.0)
    interface = Interface("server-eth0", mac="02:00:00:00:00:09", ip=request.ip.dst)
    server.add_interface(interface)
    sent = []
    server.send = lambda packet, out=None: sent.append(packet)
    server.handle_packet(request, interface)
    simulator.run()
    (response,) = sent
    return response


@settings(max_examples=30, deadline=None)
@given(body=_bodies, payload=_payloads)
def test_size_field_matches_a_recomputation_on_every_response_builder(body, payload):
    client, server = "10.10.0.5", "10.30.0.2"
    request = pkt.make_http_request(client, server, host="blocked.example", path="/x")
    responses = [
        pkt.make_http_response(request, body_bytes=body),
        pkt.make_dns_response(pkt.make_dns_query(client, server, "example.org"), ("10.0.0.9",)),
        _server_response(pkt.make_udp_packet(client, server, 5000, 7, payload_bytes=payload)),
        _server_response(pkt.make_icmp_echo(client, server)),
    ]
    upstream = ProcessingContext(now=1.0, direction=Direction.UPSTREAM, client_ip=client)
    downstream = ProcessingContext(now=1.0, direction=Direction.DOWNSTREAM, client_ip=client)
    cache = EdgeCache(name="cache")
    cache.process(request, upstream)  # a miss
    cache.process(pkt.make_http_response(request, body_bytes=body), downstream)
    (hit,) = cache.process(pkt.make_http_request(client, server, host="blocked.example", path="/x"), upstream)
    assert hit.app.headers.get("X-Cache") == "HIT"
    responses.append(hit)
    (forbidden,) = HTTPFilter(name="filter", blocked_hosts=["blocked.example"]).process(request, upstream)
    assert isinstance(forbidden.app, pkt.HTTPResponse) and forbidden.app.status == 403
    responses.append(forbidden)
    for response in responses:
        assert response.size_bytes == wire_size(response)
