"""Point-to-point links with bandwidth, propagation delay, loss and queueing.

Links connect two :class:`~repro.netem.host.Interface` objects.  Transmission
models the usual store-and-forward pipeline: a packet waits behind packets
already queued on the same direction, is serialized at the link rate and then
propagates for the configured delay.  Each direction keeps independent state
so full-duplex behaviour matches an Ethernet or Wi-Fi backhaul link.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Tuple

from repro.netem.simulator import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netem.host import Interface
    from repro.netem.packet import Packet


@dataclass
class LinkStats:
    """Per-direction link counters."""

    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    queued_high_water: int = 0
    #: Bytes moved across this direction by the fluid model (hybrid mode);
    #: they never appear as packets, so they are counted separately.
    fluid_bytes: float = 0.0

    def record_tx(self, size_bytes: int) -> None:
        self.tx_packets += 1
        self.tx_bytes += size_bytes

    def record_drop(self, size_bytes: int) -> None:
        self.dropped_packets += 1
        self.dropped_bytes += size_bytes


class _Direction:
    """State for one direction of a link."""

    __slots__ = ("busy_until", "queue_depth", "stats", "fluid_load_bps", "ledger", "cut_through", "sent_as_of")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.queue_depth = 0
        self.stats = LinkStats()
        #: Aggregate fluid-flow rate currently occupying this direction.
        #: Packet serialization only sees the residual bandwidth while this
        #: is non-zero; at zero the arithmetic is bit-identical to the
        #: fluid-free link (the packet/hybrid digest-equivalence contract).
        self.fluid_load_bps = 0.0
        #: ``None`` on the per-hop path.  On a pipe direction (see
        #: :meth:`Link.set_pipe`) transmits run early, as of their send time,
        #: so the drop-tail depth is read from this deque of committed
        #: arrival times instead of a counter the deliver event lowers.
        self.ledger: Optional[Deque[float]] = None
        #: Pipe only: hand each packet to the receiver as of its arrival
        #: instead of scheduling a deliver event.
        self.cut_through = False
        #: Pipe only: the latest send time; sends must come in time order.
        self.sent_as_of = 0.0


class Link:
    """Full-duplex point-to-point link.

    Parameters
    ----------
    simulator:
        The shared simulation kernel.
    bandwidth_bps:
        Link rate in bits per second (e.g. ``100e6`` for the paper's
        home-router class devices, ``1e9`` for the backhaul).
    delay_s:
        One-way propagation delay in seconds.
    loss_rate:
        Independent per-packet loss probability in ``[0, 1)``.
    max_queue_packets:
        Drop-tail queue limit per direction.
    name:
        Human-readable label used by telemetry and debugging output.
    """

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_bps: float = 1e9,
        delay_s: float = 0.001,
        loss_rate: float = 0.0,
        max_queue_packets: int = 1000,
        name: str = "",
        rng: Optional[random.Random] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.simulator = simulator
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_rate = loss_rate
        self.max_queue_packets = max_queue_packets
        self.name = name or "link"
        self._rng = rng or random.Random(0)
        self.endpoint_a: Optional["Interface"] = None
        self.endpoint_b: Optional["Interface"] = None
        self._a_to_b = _Direction()
        self._b_to_a = _Direction()
        #: The fluid API names a direction by key; the packet path resolves
        #: it by interface identity instead.
        self._directions: Dict[str, _Direction] = {"a_to_b": self._a_to_b, "b_to_a": self._b_to_a}
        self.up = True

    # ----------------------------------------------------------- wiring

    def attach(self, a: "Interface", b: "Interface") -> "Link":
        """Connect the two endpoints of the link."""
        if self.endpoint_a is not None or self.endpoint_b is not None:
            raise RuntimeError(f"link {self.name} is already attached")
        self.endpoint_a = a
        self.endpoint_b = b
        a.link = self
        b.link = self
        return self

    def peer_of(self, interface: "Interface") -> "Interface":
        """Return the interface at the other end of the link."""
        return self._route(interface)[1]

    def _route(self, from_interface: "Interface") -> Tuple[_Direction, "Interface"]:
        """Direction state and destination for packets sent by ``from_interface``."""
        if from_interface is self.endpoint_a:
            return self._a_to_b, self.endpoint_b  # type: ignore[return-value]
        if from_interface is self.endpoint_b:
            return self._b_to_a, self.endpoint_a  # type: ignore[return-value]
        raise ValueError(f"interface {from_interface!r} is not attached to link {self.name}")

    def set_pipe(self, from_interface: "Interface", enabled: bool, cut_through: bool = False) -> None:
        """Put the direction sent by ``from_interface`` on the pipe, or take it off.

        On the pipe, :meth:`transmit` may be called *as of* a future send
        time (:meth:`Simulator.call_as_of`).  The Lindley recursion
        ``busy = max(busy, now) + size/rate`` is then computed when the sender
        knows the packet, which is exact as long as sends come in time order
        and nothing else changes the direction meanwhile (no fluid load, no
        fault, no loss).  With ``cut_through`` the receiver also gets the
        packet as of its arrival, so the direction costs no event at all.
        Only an idle direction can change mode.
        """
        direction = self._route(from_interface)[0]
        now = self.simulator.now
        if direction.queue_depth or (direction.ledger and direction.ledger[-1] > now):
            raise SimulationError(f"link {self.name}: a direction changes pipe mode only while idle")
        direction.ledger = deque() if enabled else None
        direction.cut_through = enabled and cut_through
        direction.sent_as_of = now

    def _pipe_depth(self, direction: _Direction) -> int:
        """Packets of a pipe direction still queued or in flight as of now."""
        now = self.simulator.now
        if now < direction.sent_as_of:
            raise SimulationError(
                f"link {self.name}: pipe send as of t={now} after one as of t={direction.sent_as_of}"
            )
        direction.sent_as_of = now
        ledger = direction.ledger
        assert ledger is not None
        while ledger and ledger[0] <= now:
            ledger.popleft()
        return len(ledger)

    # ----------------------------------------------------- transmission

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire at the link rate."""
        return (size_bytes * 8) / self.bandwidth_bps

    #: Fluid background load can squeeze packet bandwidth down to this
    #: fraction of the link rate, but never below it (mirrors fair-share:
    #: the packets themselves are also contenders on the real link).
    _MIN_RESIDUAL_FRACTION = 0.05

    def _packet_serialization_delay(self, size_bytes: int, direction: _Direction) -> float:
        """Serialization delay as seen by packets, inflated by fluid load."""
        fluid = direction.fluid_load_bps
        if fluid <= 0.0:
            return (size_bytes * 8) / self.bandwidth_bps
        residual = max(
            self.bandwidth_bps - fluid, self.bandwidth_bps * self._MIN_RESIDUAL_FRACTION
        )
        return (size_bytes * 8) / residual

    # ------------------------------------------------------ fluid occupancy

    def set_fluid_load(self, direction_key: str, load_bps: float) -> None:
        """Install the aggregate fluid rate for one direction (hybrid mode)."""
        self._directions[direction_key].fluid_load_bps = max(0.0, load_bps)

    def fluid_load(self, direction_key: str) -> float:
        return self._directions[direction_key].fluid_load_bps

    def add_fluid_bytes(self, direction_key: str, size_bytes: float) -> None:
        """Account bytes the fluid solver moved across one direction."""
        self._directions[direction_key].stats.fluid_bytes += size_bytes

    def transmit(self, packet: "Packet", from_interface: "Interface") -> bool:
        """Send ``packet`` out of ``from_interface`` towards the peer.

        Returns ``True`` if the packet was accepted for transmission (it may
        still be lost in flight), ``False`` if it was dropped immediately
        (link down or full queue).
        """
        # The per-hop hot path: direction by identity, comparisons instead
        # of max(), counters inline.  The float expressions keep the order
        # of serialization_delay() so results match it bit for bit.
        if from_interface is self.endpoint_a:
            direction = self._a_to_b
            destination = self.endpoint_b
        elif from_interface is self.endpoint_b:
            direction = self._b_to_a
            destination = self.endpoint_a
        else:
            direction, destination = self._route(from_interface)  # raises
        if direction.ledger is not None:
            return self._transmit_piped(packet, direction, destination)
        size = packet.size_bytes
        stats = direction.stats

        if not self.up or direction.queue_depth >= self.max_queue_packets:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return False

        now = self.simulator.now
        busy = direction.busy_until
        start = busy if busy > now else now
        if direction.fluid_load_bps <= 0.0:
            busy = direction.busy_until = start + (size * 8) / self.bandwidth_bps
        else:
            busy = direction.busy_until = start + self._packet_serialization_delay(size, direction)
        arrival = busy + self.delay_s

        depth = direction.queue_depth = direction.queue_depth + 1
        if depth > stats.queued_high_water:
            stats.queued_high_water = depth

        lost = self.loss_rate > 0.0 and self._rng.random() < self.loss_rate
        self.simulator.schedule_at(arrival, self._deliver, packet, destination, direction, lost)
        return True

    def _transmit_piped(self, packet: "Packet", direction: _Direction, destination: "Interface") -> bool:
        """:meth:`transmit` on a pipe direction: the same arithmetic, the depth
        from the ledger, and the receiver reached as of the arrival time."""
        depth = self._pipe_depth(direction)
        size = packet.size_bytes
        stats = direction.stats
        if not self.up or depth >= self.max_queue_packets:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return False
        simulator = self.simulator
        now = simulator.now
        busy = direction.busy_until
        start = busy if busy > now else now
        if direction.fluid_load_bps <= 0.0:
            busy = direction.busy_until = start + (size * 8) / self.bandwidth_bps
        else:
            busy = direction.busy_until = start + self._packet_serialization_delay(size, direction)
        arrival = busy + self.delay_s
        direction.ledger.append(arrival)  # type: ignore[union-attr]
        if depth >= stats.queued_high_water:
            stats.queued_high_water = depth + 1
        lost = self.loss_rate > 0.0 and self._rng.random() < self.loss_rate
        if direction.cut_through:
            simulator.call_as_of(arrival, self._hand_on, packet, destination, stats, lost)
        else:
            simulator.schedule_at(arrival, self._hand_on, packet, destination, stats, lost)
        return True

    def transmit_batch(self, packets: Iterable["Packet"], from_interface: "Interface") -> int:
        """Send a batch towards the peer under a **single** deliver event.

        The batch is serialized back to back at the link rate and the whole
        burst arrives when its last bit has propagated -- one heap entry
        instead of one per packet, which is where the slow path burns most of
        its time at line rate.  Per-packet loss and drop-tail accounting are
        unchanged.  Returns the number of packets accepted.
        """
        packets = list(packets)
        if not packets:
            return 0
        direction, destination = self._route(from_interface)

        if not self.up:
            for packet in packets:
                direction.stats.record_drop(packet.size_bytes)
            return 0

        ledger = direction.ledger
        depth = direction.queue_depth if ledger is None else self._pipe_depth(direction)
        now = self.simulator.now
        start = max(now, direction.busy_until)
        lossy = self.loss_rate > 0.0
        accepted: List[Tuple["Packet", bool]] = []
        for packet in packets:
            if depth >= self.max_queue_packets:
                direction.stats.record_drop(packet.size_bytes)
                continue
            start += self._packet_serialization_delay(packet.size_bytes, direction)
            depth += 1
            lost = lossy and self._rng.random() < self.loss_rate
            accepted.append((packet, lost))
        if not accepted:
            return 0

        direction.busy_until = start
        direction.stats.queued_high_water = max(direction.stats.queued_high_water, depth)
        arrival = direction.busy_until + self.delay_s
        if ledger is None:
            direction.queue_depth = depth
            self.simulator.schedule_at(arrival, self._deliver_batch, accepted, destination, direction)
        else:
            ledger.extend([arrival] * len(accepted))
            hand_on = self.simulator.call_as_of if direction.cut_through else self.simulator.schedule_at
            hand_on(arrival, self._hand_on_batch, accepted, destination, direction.stats)
        return len(accepted)

    def _deliver(
        self,
        packet: "Packet",
        destination: "Interface",
        direction: _Direction,
        lost: bool,
    ) -> None:
        # The body of _hand_on, inline: this is the per-hop hot path.
        direction.queue_depth -= 1
        stats = direction.stats
        size = packet.size_bytes
        if lost or not self.up:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return
        stats.tx_packets += 1
        stats.tx_bytes += size
        packet.hops += 1
        destination.deliver(packet)

    def _hand_on(self, packet: "Packet", destination: "Interface", stats: LinkStats, lost: bool) -> None:
        """Count the packet out of the link and hand it to the receiver.

        On the pipe this is the whole delivery: the ledger, not this call,
        retires the packet from the queue.
        """
        size = packet.size_bytes
        if lost or not self.up:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return
        stats.tx_packets += 1
        stats.tx_bytes += size
        packet.hops += 1
        destination.deliver(packet)

    def _deliver_batch(
        self,
        accepted: List[Tuple["Packet", bool]],
        destination: "Interface",
        direction: _Direction,
    ) -> None:
        direction.queue_depth -= len(accepted)
        self._hand_on_batch(accepted, destination, direction.stats)

    def _hand_on_batch(
        self,
        accepted: List[Tuple["Packet", bool]],
        destination: "Interface",
        stats: LinkStats,
    ) -> None:
        survivors: List["Packet"] = []
        for packet, lost in accepted:
            if lost or not self.up:
                stats.record_drop(packet.size_bytes)
                continue
            stats.record_tx(packet.size_bytes)
            packet.hops += 1
            survivors.append(packet)
        if survivors:
            destination.deliver_batch(survivors)

    # --------------------------------------------------------- management

    def set_up(self, up: bool) -> None:
        """Administratively enable or disable the link (failure injection)."""
        self.up = up

    def stats(self, from_interface: "Interface") -> LinkStats:
        """Counters for the direction whose transmissions originate at ``from_interface``."""
        return (self._a_to_b if from_interface is self.endpoint_a else self._b_to_a).stats

    @property
    def total_stats(self) -> LinkStats:
        """Aggregated counters across both directions."""
        combined = LinkStats()
        for direction in self._directions.values():
            combined.tx_packets += direction.stats.tx_packets
            combined.tx_bytes += direction.stats.tx_bytes
            combined.dropped_packets += direction.stats.dropped_packets
            combined.dropped_bytes += direction.stats.dropped_bytes
            combined.queued_high_water = max(
                combined.queued_high_water, direction.stats.queued_high_water
            )
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Link({self.name!r}, {self.bandwidth_bps / 1e6:.0f} Mbps, "
            f"{self.delay_s * 1e3:.2f} ms, up={self.up})"
        )
