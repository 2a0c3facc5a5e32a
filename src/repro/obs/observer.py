"""The enabled observer: hooks -> tracer spans, registry, probe samples.

:class:`Observer` implements the hook surface defined by
:class:`~repro.engine.observer.NullObserver`.  Pass one to
``Prototype(config, obs=Observer(...))`` (or ``Simulator(obs=...)``) and
every component constructed against that simulator wires itself up:
stat groups bind into the :class:`~repro.obs.registry.MetricRegistry`
under hierarchical dotted names, links register occupancy probes, and
the per-subsystem hooks start feeding the tracer.

Category filters pick which subsystems trace (``noc``, ``cache``,
``axi``, ``pcie``, ``bridge``, ``mem``, ``link``, ``kernel``); the
membership test happens once at construction, so a disabled category
costs one boolean load per hook.  Sampling is activity-driven (see
:mod:`repro.obs.probes`): hooks nudge the probe clock, nothing is ever
scheduled into the simulation, and architectural results stay
bit-identical to an unobserved run.

Probe series exist only when something consumes them: a tracer (which
draws them as Perfetto counter tracks) or an instrumentation plane
(which selects them, streams them, or arms triggers on metrics).  A
metrics-only ``Observer(tracing=False)`` registers no probe sources at
all — it still binds every counter and gauge into the registry and
reads the gauges at :meth:`Observer.export_metrics`, which is all a
sweep worker or an archived ``repro stats`` run keeps.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from ..engine.observer import NullObserver
from .probes import ProbeSet, link_utilization_probe
from .registry import MetricRegistry
from .trace import Tracer

#: Every category the instrumentation emits.
TRACE_CATEGORIES = ("noc", "cache", "axi", "pcie", "bridge", "mem",
                    "link", "kernel", "probe")

_SEGMENT_EXPANSIONS = (
    (re.compile(r"^n(\d+)$"), r"node\1"),
    (re.compile(r"^t(\d+)$"), r"tile\1"),
    (re.compile(r"^r(\d+)$"), r"router\1"),
)


def metric_path(component_name: str) -> str:
    """A component's ``/``-separated name as a dotted metric path.

    ``n0/t3/bpc`` becomes ``node0.tile3.bpc`` — the hierarchy the paper's
    users think in, and the prefix every bound counter hangs off.  Dots
    already present (gauge suffixes, per-direction link names) also
    delimit segments.
    """
    segments = []
    for segment in component_name.replace("/", ".").split("."):
        for pattern, repl in _SEGMENT_EXPANSIONS:
            expanded = pattern.sub(repl, segment)
            if expanded != segment:
                segment = expanded
                break
        segments.append(segment)
    return ".".join(segments)


class _TracedChannel:
    """Kernel-category shim around a ConstLatencyChannel.

    Installed by :meth:`Observer.wrap_channel` only when the ``kernel``
    category is traced, so the un-traced fast path keeps its original
    object (and its original performance) untouched.
    """

    __slots__ = ("_channel", "_tracer", "_sim", "_comp", "delay", "sink")

    def __init__(self, sim, channel, tracer: Tracer):
        self._channel = channel
        self._tracer = tracer
        self._sim = sim
        sink = channel.sink
        self._comp = "kernel/" + getattr(sink, "__qualname__",
                                         repr(sink))
        self.delay = channel.delay
        self.sink = sink

    def send(self, payload):
        self._tracer.instant("kernel", self._comp, "send", self._sim.now)
        return self._channel.send(payload)

    def send_after(self, delay, payload):
        self._tracer.instant("kernel", self._comp, "send_after",
                             self._sim.now)
        return self._channel.send_after(delay, payload)

    def send_many(self, payloads):
        # One instant per burst: batched sends are one scheduling action.
        self._tracer.instant("kernel", self._comp, "send_many",
                             self._sim.now)
        return self._channel.send_many(payloads)

    def send_after_many(self, delay, payloads):
        self._tracer.instant("kernel", self._comp, "send_after_many",
                             self._sim.now)
        return self._channel.send_after_many(delay, payloads)


class Observer(NullObserver):
    """Live observer: metrics registry + tracer + sampling probes.

    ``tracer`` injects a pre-built recording backend — typically a
    :class:`~repro.obs.trace.StreamingTracer` for runs too long for ring
    buffers; the default builds a ring :class:`Tracer` (or none with
    ``tracing=False``).  ``sample_intervals`` sets per-category probe
    sampling intervals (``{"noc": 64, "mem": 256}``); categories not
    listed use ``sample_interval``.

    ``plane`` applies a declarative
    :class:`~repro.obs.plane.InstrumentationPlane` (or its spec dict):
    it fills every setting the caller left at its default (explicit
    keyword arguments win), prunes metric/probe registration to the
    plane's glob selection, wraps the tracer in a
    :class:`~repro.obs.plane.GatedTracer` when triggers are declared,
    and — with ``stream_series`` — stops materializing probe series in
    memory (they then live in the tracer's JSONL stream).  ``plane=None``
    leaves every code path exactly as before.
    """

    enabled = True

    def __init__(self, categories: Optional[Sequence[str]] = None,
                 ring_capacity: Optional[int] = 65536,
                 sample_interval: int = 1000,
                 sample_intervals: Optional[dict] = None,
                 tracing: bool = True,
                 tracer=None,
                 plane=None) -> None:
        from .plane import GatedTracer, as_plane
        plane = as_plane(plane)
        self.plane = plane
        if plane is not None:
            if categories is None:
                categories = plane.trace_categories
            if ring_capacity == 65536:
                ring_capacity = plane.ring_capacity
            if sample_interval == 1000:
                sample_interval = plane.sample_interval
            if sample_intervals is None and plane.sample_intervals:
                sample_intervals = dict(plane.sample_intervals)
            tracing = tracing and plane.tracing
        self._select = plane.metric_filter() if plane is not None else None
        self.registry = MetricRegistry()
        if tracer is None and tracing:
            tracer = Tracer(categories=categories,
                            ring_capacity=ring_capacity)
        if tracer is not None and plane is not None and plane.gated:
            tracer = GatedTracer(tracer, plane)
        self.tracer = tracer
        # Series are built only for a consumer: the tracer's counter
        # tracks, or a plane's selection, streaming and triggers.
        self._sampling = tracer is not None or plane is not None
        materialize = not (plane is not None and plane.stream_series)
        self.probes = ProbeSet(
            tracer=self.tracer, interval=sample_interval,
            intervals=sample_intervals,
            by_owner=plane is not None and plane.sampling == "component",
            materialize=materialize)
        self._nudge = self._hook_clock(plane, tracer, sample_interval)
        tracing = tracer is not None
        self._want_noc = tracing and tracer.wants("noc")
        self._want_cache = tracing and tracer.wants("cache")
        self._want_axi = tracing and tracer.wants("axi")
        self._want_pcie = tracing and tracer.wants("pcie")
        self._want_bridge = tracing and tracer.wants("bridge")
        self._want_mem = tracing and tracer.wants("mem")
        self._want_link = tracing and tracer.wants("link")
        self._want_kernel = tracing and tracer.wants("kernel")

    def _hook_clock(self, plane, tracer, interval):
        """What the hooks call on instrumented activity: ``(owner, now)``.

        That is the probe clock alone unless the plane declares
        ``arm_on_metric`` triggers on a live tracer.  Then the metric
        check rides along on its own clock: the first activity past
        each ``interval`` boundary reads the named metrics from the
        registry, whether or not any probe source was selected, until
        every trigger has fired.
        """
        probe_nudge = self.probes.nudge
        if plane is None or tracer is None or not plane.metric_triggers:
            return probe_nudge
        pending = list(plane.metric_triggers)
        registry = self.registry
        next_at = interval

        def nudge(owner: str, now: int) -> None:
            nonlocal next_at
            probe_nudge(owner, now)
            if now < next_at:
                return
            next_at = now - now % interval + interval
            for trigger in list(pending):
                value = registry.value(trigger.metric)
                if value is not None and value >= trigger.above:
                    pending.remove(trigger)
                    tracer.open_at(now)
            if not pending:
                next_at = float("inf")

        return nudge

    # ------------------------------------------------------------------
    # Construction-time registration
    # ------------------------------------------------------------------
    def register_gauge(self, name, fn, category="gauge"):
        path = metric_path(name)
        if self._select is not None and not self._select(path):
            return
        self.registry.gauge(path, fn)
        if not self._sampling:
            return
        # The owning component's name is the gauge name minus its final
        # ``.suffix`` segment — the key the component's hooks nudge with
        # in owner-mode sampling.
        self.probes.add(path, fn, category=category,
                        owner=name.rsplit(".", 1)[0])

    def register_link(self, link):
        path = metric_path(link.name)
        if self._select is not None \
                and not self._select(f"{path}.utilization"):
            return
        # Lifetime average occupancy for the metrics dump...
        stats, cpu = link.stats, link.cycles_per_unit

        def lifetime_utilization() -> float:
            now = link.sim.now
            if not now:
                return 0.0
            return min(1.0, stats.get("units") * cpu / now)

        self.registry.gauge(f"{path}.utilization", lifetime_utilization)
        if not self._sampling:
            return
        # ...and a windowed series for the heatmap/time-series charts,
        # sampled on the link's own category interval (noc/axi/pcie).
        self.probes.add(f"{path}.utilization", link_utilization_probe(link),
                        category=link.category, owner=link.name)

    def bind_stats(self, prefix, group):
        self.registry.bind_group(metric_path(prefix), group)

    def wrap_channel(self, sim, channel):
        if self._want_kernel:
            return _TracedChannel(sim, channel, self.tracer)
        return channel

    # ------------------------------------------------------------------
    # Export / lifecycle
    # ------------------------------------------------------------------
    def export_metrics(self):
        """The registry dump plus the obs layer's own accounting.

        This is what run archives persist and sweep workers return:
        :meth:`MetricRegistry.to_dict` extended with ``obs.trace.dropped``
        (total ring evictions) and one ``obs.trace.dropped.<component>``
        counter per truncated ring, so a partial trace is visible in the
        archive instead of silently passing for a complete one; plus
        ``obs.probes.failed`` (sources disabled after raising) and — for
        planes with triggers — ``obs.plane.triggers.armed`` /
        ``obs.plane.triggers.fired`` and ``obs.plane.trace.suppressed``.

        A plane's metric globs filter the registry dump here too, so the
        archive records exactly the selection (``obs.*`` accounting is
        always kept).  Trigger counters are exported as floats on
        purpose: every sweep shard runs the same plane, so per-shard
        values are identical for cycle triggers and
        :func:`~repro.obs.archive.merge_metric_shards`'s float-mean
        preserves them, while the suppressed-event count is an int
        (each shard suppresses its own events, so the sum is exact).
        """
        out = self.registry.to_dict()
        select = self._select
        if select is not None:
            out = {name: value for name, value in out.items()
                   if name.startswith("obs.") or select(name)}
        out["obs.probes.failed"] = self.probes.failed
        tracer = self.tracer
        if tracer is not None:
            out["obs.trace.dropped"] = tracer.dropped
            for component, count in sorted(
                    tracer.dropped_by_component().items()):
                out[f"obs.trace.dropped.{metric_path(component)}"] = count
        plane = self.plane
        if plane is not None and plane.gated:
            gate = tracer
            out["obs.plane.triggers.armed"] = (
                float(gate.armed) if gate is not None
                else float(len(plane.triggers)))
            out["obs.plane.triggers.fired"] = (
                float(gate.fired) if gate is not None else 0.0)
            if gate is not None:
                out["obs.plane.trace.suppressed"] = gate.suppressed
        return out

    def flush(self):
        """Push buffered trace chunks to disk (streaming backends)."""
        if self.tracer is not None:
            self.tracer.flush()

    def close(self):
        if self.tracer is not None:
            self.tracer.close()

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def link_transfer(self, link, units, depart, arrival):
        self._nudge(link.name, link.sim.now)
        if self._want_link or (self._want_axi and link.category == "axi") \
                or (self._want_pcie and link.category == "pcie") \
                or (self._want_noc and link.category == "noc"):
            self.tracer.complete(link.category, link.name, "xfer",
                                 depart, max(arrival - depart, 1),
                                 {"units": units})

    def noc_inject(self, router, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "inject",
                                router.sim.now,
                                {"dst": str(packet.dst),
                                 "ch": packet.channel.name})

    def noc_hop(self, router, packet, from_direction):
        now = router.sim.now
        self._nudge(router.name, now)
        if self._want_noc:
            self.tracer.instant("noc", router.name, "hop", now,
                                {"from": from_direction.value,
                                 "ch": packet.channel.name})

    def noc_eject(self, router, packet):
        now = router.sim.now
        self._nudge(router.name, now)
        if self._want_noc:
            born = packet.created_at
            self.tracer.complete(
                "noc", router.name, f"pkt.{packet.channel.name}",
                born, now - born,
                {"hops": packet.hops, "src": str(packet.src)})

    def noc_offchip(self, router, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "offchip",
                                router.sim.now, {"dst": str(packet.dst)})

    def noc_credit_stall(self, router, direction, packet):
        if self._want_noc:
            self.tracer.instant("noc", router.name, "credit_stall",
                                router.sim.now,
                                {"dir": direction.value,
                                 "ch": packet.channel.name})

    def cache_op(self, cache, op):
        now = cache.sim.now
        self._nudge(cache.name, now)
        if self._want_cache:
            self.tracer.complete("cache", cache.name, op.kind.name.lower(),
                                 op.issued_at, now - op.issued_at,
                                 {"addr": f"{op.addr:#x}"})

    def cache_miss(self, cache, line):
        if self._want_cache:
            self.tracer.instant("cache", cache.name, "miss",
                                cache.sim.now, {"line": f"{line:#x}"})

    def llc_txn(self, llc, line, started_at):
        now = llc.sim.now
        self._nudge(llc.name, now)
        if self._want_cache:
            self.tracer.complete("cache", llc.name, "txn", started_at,
                                 now - started_at, {"line": f"{line:#x}"})

    def axi_txn(self, port, kind, txn):
        now = port.sim.now
        self._nudge(port.name, now)
        if self._want_axi:
            self.tracer.instant("axi", port.name, kind, now,
                                {"addr": f"{txn.addr:#x}"})

    def axi_route(self, crossbar, kind, txn, region):
        if self._want_axi:
            self.tracer.instant(
                "axi", crossbar.name, f"route.{kind}", crossbar.sim.now,
                {"region": region if region is not None else "DECERR"})

    def pcie_transfer(self, fabric, src_node, dst_node, kind, units):
        now = fabric.sim.now
        self._nudge(fabric.name, now)
        if self._want_pcie:
            self.tracer.instant("pcie", fabric.name, kind, now,
                                {"src": src_node, "dst": dst_node,
                                 "units": units})

    def bridge_packet(self, bridge, packet):
        if self._want_bridge:
            self.tracer.instant("bridge", bridge.name, "tunnel",
                                bridge.sim.now,
                                {"dst": str(packet.dst),
                                 "ch": packet.channel.name})

    def bridge_credit_stall(self, bridge, key):
        if self._want_bridge:
            peer, channel = key
            self.tracer.instant("bridge", bridge.name, "credit_stall",
                                bridge.sim.now,
                                {"peer": peer, "ch": channel.name})

    def mem_retire(self, controller, kind, latency):
        now = controller.sim.now
        self._nudge(controller.name, now)
        if self._want_mem:
            self.tracer.complete("mem", controller.name, kind,
                                 now - latency, latency)

    def mem_id_stall(self, controller, kind):
        if self._want_mem:
            self.tracer.instant("mem", controller.name, f"id_stall.{kind}",
                                controller.sim.now)

    def dram_access(self, dram, kind, delay, beats):
        if self._want_mem:
            self.tracer.complete("mem", dram.name, kind, dram.sim.now,
                                 max(delay, 1), {"beats": beats})
