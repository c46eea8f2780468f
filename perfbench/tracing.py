"""Span tracing for the traced benchmark run, from outside ``src/``.

:meth:`Tracer.install` wraps, before the testbed is built:

* ``Simulator.schedule_at`` -- every callback handed to it becomes a
  *top-level span*, one per simulator event, named by the layer of the
  module that defined the callback (``PeriodicTask`` and ``Process``
  wrappers are looked through to the code they drive);
* ``Simulator.run`` -- its wall time minus the top-level spans inside it is
  the kernel's own time;
* the public entry points of each layer (``ENTRY_POINTS``) -- *child spans*
  nested inside whichever event called them.

All spans of one event belong to that event (its id is the count of
top-level spans so far).  Spans are folded as they close instead of being
kept: a span's self time is its duration minus the time its children cover,
and single-threaded spans nest, so the children's durations are summed on a
stack.  This keeps memory flat on runs of a million events;
``check_perfbench.py`` checks the folding against the interval definition
on a synthetic nested span set.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


#: ``src/repro`` module -> layer of the simulator events it schedules.  The
#: longest matching prefix wins; anything unmatched is ``other``.
MODULE_LAYERS: Dict[str, str] = {
    "repro.netem.simulator": "kernel",
    "repro.netem.link": "link",
    "repro.netem.fluid": "link",
    "repro.netem.switch": "switch",
    "repro.netem.fastpath": "switch",
    "repro.netem.flowtable": "switch",
    "repro.netem.host": "host",
    "repro.netem.packet": "host",
    "repro.netem.addressing": "host",
    "repro.netem.routing": "host",
    "repro.netem.topology": "host",
    "repro.netem.trafficgen": "trafficgen",
    "repro.netem.flows": "nf",
    "repro.nfs": "nf",
    "repro.core.agent": "agent",
    "repro.containers": "containers",
    "repro.wireless": "wireless",
    "repro.wireless.mobility": "wireless.mobility",
    "repro.core": "control",
    "repro.core.placement": "placement",
    "repro.core.migration": "migration",
    "repro.core.roaming": "migration",
    "repro.telemetry": "telemetry",
    "repro.scenarios": "scenario",
}


def layer_of_module(module: Optional[str]) -> str:
    name = module or ""
    while name:
        if name in MODULE_LAYERS:
            return MODULE_LAYERS[name]
        name = name.rpartition(".")[0]
    return "other"


#: (module, class, method, layer): the public entry points wrapped as child
#: spans; their calls are counted per ``layer:method``.
ENTRY_POINTS: List[Tuple[str, str, str, str]] = [
    ("repro.netem.link", "Link", "transmit", "link"),
    ("repro.netem.link", "Link", "transmit_batch", "link"),
    ("repro.netem.switch", "SoftwareSwitch", "receive_packet", "switch"),
    ("repro.netem.switch", "SoftwareSwitch", "receive_batch", "switch"),
    ("repro.netem.host", "Interface", "deliver", "host"),
    ("repro.netem.host", "Interface", "deliver_batch", "host"),
    ("repro.netem.host", "Interface", "send", "host"),
    ("repro.netem.host", "Interface", "send_batch", "host"),
    ("repro.netem.host", "Host", "receive_packet", "host"),
    ("repro.nfs.base", "NetworkFunction", "process", "nf"),
    ("repro.nfs.base", "NetworkFunction", "process_batch", "nf"),
    ("repro.core.agent", "GNFAgent", "deploy_chain", "agent.deploy"),
    ("repro.containers.runtime", "ContainerRuntime", "create", "containers"),
    ("repro.containers.runtime", "ContainerRuntime", "start", "containers"),
    ("repro.containers.runtime", "ContainerRuntime", "stop", "containers"),
    ("repro.containers.runtime", "ContainerRuntime", "checkpoint", "containers"),
    ("repro.containers.runtime", "ContainerRuntime", "restore", "containers"),
    ("repro.wireless.handover", "HandoverManager", "scan", "wireless.scan"),
    ("repro.core.placement", "PlacementEngine", "place", "placement"),
    ("repro.core.migration", "MigrationEngine", "client_disconnected", "migration"),
    ("repro.core.migration", "MigrationEngine", "client_connected", "migration"),
    ("repro.core.migration", "MigrationEngine", "client_reconnected", "migration"),
    ("repro.core.migration", "MigrationEngine", "finalize", "migration"),
    ("repro.core.migration", "StateTransferService", "transfer", "migration"),
    ("repro.telemetry.collector", "ResourceCollector", "sample_once", "telemetry"),
    ("repro.telemetry.rollup", "HealthRollup", "record", "telemetry"),
    ("repro.telemetry.rollup", "HotspotRollup", "record", "telemetry"),
    ("repro.scenarios.digest", "MetricsDigest", "compute", "scenario"),
]

#: Entry points only counted, never timed (too small for a span of their own).
COUNTED: List[Tuple[str, str, str]] = [("repro.netem.packet", "Packet", "copy")]

#: The manager tiers' control entry points (a tier without one is skipped).
ENTRY_POINTS += [
    (module, class_name, method, "control")
    for module, class_name in (
        ("repro.core.manager", "GNFManager"),
        ("repro.core.sharding", "ShardedManager"),
        ("repro.core.federation", "FederatedManager"),
    )
    for method in (
        "receive_heartbeat",
        "receive_heartbeat_batch",
        "receive_client_event",
        "receive_notification",
        "receive_notification_batch",
        "attach_chain",
        "detach",
        "release_assignment",
        "adopt_assignment",
        "assignment_station_changed",
    )
]


class Tracer:
    """Collects per-layer self time, event counts and entry-point calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Summed self time per layer.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Top-level spans inside ``Simulator.run`` (simulator events) per layer.
        self.events: Counter = Counter()
        #: Entry-point calls per ``layer:method`` (and ``Class.method`` if counted).
        self.calls: Counter = Counter()
        #: Packets handed to the switch and to IDS instances.
        self.packets: Counter = Counter()
        #: Top-level spans so far; the open event's id is this plus one.
        self.event_count = 0
        self.scheduled = 0
        self.peak_queue = 0
        self.run_s = 0.0
        #: Top-level span time inside ``Simulator.run``; the rest of ``run_s``
        #: is kernel time.
        self.inside_s = 0.0
        #: Top-level span time of a named layer (anything but ``other``).
        self.named_s = 0.0
        self._in_run = False
        #: One entry per open span: the time its closed children took.
        self._children: List[float] = []
        self._layer_cache: Dict[object, str] = {}
        self._periodic_task: Optional[type] = None
        self._process: Optional[type] = None

    def span(self, layer: str, function: Callable, args: tuple, kwargs: dict):
        """Call ``function`` inside a span of ``layer``."""
        children = self._children
        children.append(0.0)
        start = self.clock()
        try:
            return function(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.self_s[layer] += duration - children.pop()
            if children:
                children[-1] += duration
            else:
                self.event_count += 1
                if self._in_run:
                    self.inside_s += duration
                    self.events[layer] += 1
                if layer != "other":
                    self.named_s += duration

    # ------------------------------------------------------- event layers

    def layer_of_callback(self, callback: Callable) -> str:
        """Layer of the code a scheduled callback runs."""
        owner = getattr(callback, "__self__", None)
        if type(owner) is self._periodic_task:
            return self.layer_of_callback(owner.callback)
        if type(owner) is self._process:
            frame = owner.generator.gi_frame
            return layer_of_module(frame.f_globals.get("__name__") if frame else None)
        if isinstance(callback, functools.partial):
            return self.layer_of_callback(callback.func)
        key = getattr(callback, "__func__", callback)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = layer_of_module(getattr(key, "__module__", None))
            if layer == "agent" and getattr(key, "__qualname__", "").startswith("DeployedNF."):
                layer = "agent.ingress"
            self._layer_cache[key] = layer
        return layer

    # ------------------------------------------------------------ install

    def install(self) -> "Tracer":
        """Wrap the kernel and every entry point, for the rest of the process."""
        import importlib

        from repro.netem.simulator import PeriodicTask, Process, Simulator

        self._periodic_task, self._process = PeriodicTask, Process
        tracer = self
        span = self.span
        schedule_at = Simulator.schedule_at
        run = Simulator.run

        def traced_schedule_at(sim, at, callback, *args, **kwargs):
            layer = tracer.layer_of_callback(callback)

            def event(*cb_args, **cb_kwargs):
                return span(layer, callback, cb_args, cb_kwargs)

            handle = schedule_at(sim, at, event, *args, **kwargs)
            tracer.scheduled += 1
            tracer.peak_queue = max(tracer.peak_queue, sim.queued_events)
            return handle

        def traced_run(sim, *args, **kwargs):
            tracer._in_run = True
            start = tracer.clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.run_s += tracer.clock() - start
                tracer._in_run = False

        Simulator.schedule_at = traced_schedule_at
        Simulator.run = traced_run
        ids = importlib.import_module("repro.nfs.ids").IntrusionDetector
        for module, class_name, method, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), class_name)
            if method not in cls.__dict__:
                continue  # this manager tier has no such method
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._entry_point(raw.__func__, layer, method, ids))
            else:
                wrapped = self._entry_point(raw, layer, method, ids)
            setattr(cls, method, wrapped)
        for module, class_name, method in COUNTED:
            cls = getattr(importlib.import_module(module), class_name)
            setattr(cls, method, self._counter(cls.__dict__[method], f"{class_name}.{method}"))
        return self

    def _entry_point(self, function: Callable, layer: str, method: str, ids: type) -> Callable:
        span = self.span
        calls = self.calls
        packets = self.packets
        key = f"{layer}:{method}"
        batch = method.endswith("_batch")

        if layer == "nf":

            @functools.wraps(function)
            def nf_wrapper(nf, items, *args, **kwargs):
                calls[key] += 1
                if isinstance(nf, ids):
                    packets["nf.ids"] += len(items) if batch else 1
                    return span("nf.ids", function, (nf, items) + args, kwargs)
                return span("nf", function, (nf, items) + args, kwargs)

            return nf_wrapper

        if layer == "switch":

            @functools.wraps(function)
            def switch_wrapper(switch, items, *args, **kwargs):
                calls[key] += 1
                packets["switch"] += len(items) if batch else 1
                return span("switch", function, (switch, items) + args, kwargs)

            return switch_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return span(layer, function, args, kwargs)

        return wrapper

    def _counter(self, function: Callable, key: str) -> Callable:
        calls = self.calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ results

    @property
    def kernel_self_s(self) -> float:
        """``Simulator.run`` wall time not inside a top-level span."""
        return self.run_s - self.inside_s

    def calls_for(self, layer: str) -> int:
        return sum(count for key, count in self.calls.items() if key.startswith(layer + ":"))
