"""Signature/anomaly intrusion detector.

Section 3: "individual NFs can relay notifications through their local Agent
to the Manager, informing the provider about ... an intrusion attempt or
detected malware."  This NF is the reproduction's source of such events:

* payloads tagged with a known malware signature raise a ``malware`` alert,
* a source contacting many distinct destination ports in a short window
  raises a ``port-scan`` alert,
* an excessive TCP SYN rate raises a ``syn-flood`` alert.

Traffic is always forwarded (detection, not prevention); alerts travel the
Agent -> Manager notification path measured by benchmark E8.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.netem.packet import Packet, TCPHeader
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class IntrusionDetector(NetworkFunction):
    """Detects malware signatures, port scans and SYN floods."""

    nf_type = "ids"
    per_packet_cpu_us = 25.0
    base_state_mb = 1.5

    def __init__(
        self,
        name: str = "",
        malware_signatures: Sequence[str] = ("EICAR", "evil-payload"),
        port_scan_threshold: int = 20,
        port_scan_window_s: float = 5.0,
        syn_flood_threshold: int = 100,
        syn_flood_window_s: float = 1.0,
    ) -> None:
        super().__init__(name=name)
        self.malware_signatures: Set[str] = set(malware_signatures)
        self.port_scan_threshold = port_scan_threshold
        self.port_scan_window_s = port_scan_window_s
        self.syn_flood_threshold = syn_flood_threshold
        self.syn_flood_window_s = syn_flood_window_s
        # src ip -> deque of (time, dst_port) inside the port-scan window
        self._port_history: Dict[str, Deque[Tuple[float, int]]] = defaultdict(deque)
        # src ip -> {dst_port: occurrences in that window}; its key count is
        # the number of distinct ports, kept up to date per packet instead of
        # rebuilding a set over the whole window.
        self._port_counts: Dict[str, Dict[int, int]] = defaultdict(dict)
        # src ip -> deque of SYN times
        self._syn_history: Dict[str, Deque[float]] = defaultdict(deque)
        self.alerts_raised = 0
        self.malware_detections = 0
        self.port_scan_detections = 0
        self.syn_flood_detections = 0
        self._alerted_scanners: Set[str] = set()
        self._alerted_flooders: Set[str] = set()

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if packet.ip is None:
            return [packet]
        self._check_malware(packet, context)
        self._check_port_scan(packet, context)
        self._check_syn_flood(packet, context)
        return [packet]

    def _check_malware(self, packet: Packet, context: ProcessingContext) -> None:
        signature = packet.metadata.get("payload_signature")
        if isinstance(signature, str) and signature in self.malware_signatures:
            self.malware_detections += 1
            self.alerts_raised += 1
            self.emit_notification(
                context.now,
                severity="critical",
                message=f"malware signature {signature!r} detected",
                details={"src": packet.ip.src, "dst": packet.ip.dst, "signature": signature},  # type: ignore[union-attr]
            )

    def _check_port_scan(self, packet: Packet, context: ProcessingContext) -> None:
        if not isinstance(packet.l4, TCPHeader) or packet.ip is None:
            return
        src = packet.ip.src
        history = self._port_history[src]
        counts = self._port_counts[src]
        port = packet.l4.dst_port
        history.append((context.now, port))
        counts[port] = counts.get(port, 0) + 1
        cutoff = context.now - self.port_scan_window_s
        while history and history[0][0] < cutoff:
            _, old_port = history.popleft()
            remaining = counts[old_port] - 1
            if remaining:
                counts[old_port] = remaining
            else:
                del counts[old_port]
        distinct_ports = len(counts)
        if distinct_ports >= self.port_scan_threshold and src not in self._alerted_scanners:
            self._alerted_scanners.add(src)
            self.port_scan_detections += 1
            self.alerts_raised += 1
            self.emit_notification(
                context.now,
                severity="warning",
                message=f"port scan from {src}",
                details={"src": src, "distinct_ports": distinct_ports},
            )

    def _check_syn_flood(self, packet: Packet, context: ProcessingContext) -> None:
        if not isinstance(packet.l4, TCPHeader) or not packet.l4.syn or packet.ip is None:
            return
        history = self._syn_history[packet.ip.src]
        history.append(context.now)
        cutoff = context.now - self.syn_flood_window_s
        while history and history[0] < cutoff:
            history.popleft()
        if len(history) >= self.syn_flood_threshold and packet.ip.src not in self._alerted_flooders:
            self._alerted_flooders.add(packet.ip.src)
            self.syn_flood_detections += 1
            self.alerts_raised += 1
            self.emit_notification(
                context.now,
                severity="critical",
                message=f"SYN flood from {packet.ip.src}",
                details={"src": packet.ip.src, "syn_rate": len(history) / self.syn_flood_window_s},
            )

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "malware_signatures": sorted(self.malware_signatures),
                "alerted_scanners": sorted(self._alerted_scanners),
                "alerted_flooders": sorted(self._alerted_flooders),
                "alerts_raised": self.alerts_raised,
                "malware_detections": self.malware_detections,
                "port_scan_detections": self.port_scan_detections,
                "syn_flood_detections": self.syn_flood_detections,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        signatures = state.get("malware_signatures")
        if isinstance(signatures, list):
            self.malware_signatures = set(str(s) for s in signatures)
        scanners = state.get("alerted_scanners")
        if isinstance(scanners, list):
            self._alerted_scanners = set(str(s) for s in scanners)
        flooders = state.get("alerted_flooders")
        if isinstance(flooders, list):
            self._alerted_flooders = set(str(s) for s in flooders)
        self.alerts_raised = int(state.get("alerts_raised", self.alerts_raised))
        self.malware_detections = int(state.get("malware_detections", self.malware_detections))
        self.port_scan_detections = int(state.get("port_scan_detections", self.port_scan_detections))
        self.syn_flood_detections = int(state.get("syn_flood_detections", self.syn_flood_detections))

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(
            {
                "alerts_raised": self.alerts_raised,
                "malware_detections": self.malware_detections,
                "port_scan_detections": self.port_scan_detections,
                "syn_flood_detections": self.syn_flood_detections,
            }
        )
        return description
