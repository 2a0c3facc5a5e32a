"""Mesh router with credit-based flow control.

Every tile has one router serving the three physical NoCs.  Packets move
whole-packet-at-a-time (virtual cut-through at packet granularity): a hop
costs the router pipeline latency plus link serialization (one cycle per
flit) plus link latency.

Flow control is credit-based, as the paper requires for deadlock freedom of
the inter-node bridge (Sec. 3.1, stage 3): a router may only send toward a
neighbor when it holds a credit for that (port, channel); the credit returns
once the neighbor has forwarded the packet onward.

All routing state is bound at wiring time, which
:class:`~repro.noc.network.NodeNetwork` finishes before any traffic: a
per-destination route row holds the :class:`_OutputPort` for each channel
(indexed by the channel's enum value), every ``(router, direction)`` input
has one receive function that is its links' sink, and the hop stage
returns a credit by sending the upstream port object itself.  A hop thus
does no lookup the wiring already answered.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from ..engine import Component, Link, Simulator
from ..errors import ProtocolError, SimulationError
from .packet import NocChannel, Packet
from .topology import Direction, Mesh, OPPOSITE

EndpointHandler = Callable[[Packet], None]

#: Route-table markers for destinations that leave the mesh: this tile's
#: own endpoints, and (tile 0 only) the off-chip port.
_EJECT = "eject"
_OFFCHIP = "offchip"

#: Route rows and local-handler rows are indexed by ``NocChannel`` value.
_ROW_SIZE = 1 + max(channel.value for channel in NocChannel)


class _OutputPort:
    """Credit counter plus waiting queue for one (direction, channel)."""

    __slots__ = ("link", "send", "direction", "credits", "max_credits",
                 "waiting")

    def __init__(self, link: Link, direction: Direction, credits: int):
        self.link = link
        self.send = link.send
        self.direction = direction
        self.credits = credits
        self.max_credits = credits
        self.waiting: deque = deque()


class Router(Component):
    """One tile's router.  Wired up by :class:`~repro.noc.network.NodeNetwork`."""

    def __init__(self, sim: Simulator, name: str, node_id: int, tile: int,
                 mesh: Mesh, hop_latency: int = 2, credits: int = 4,
                 link_latency: int = 1, cycles_per_flit: float = 1.0):
        super().__init__(sim, name)
        self.node_id = node_id
        self.tile = tile
        self.mesh = mesh
        self.hop_latency = hop_latency
        self.credit_count = credits
        self.link_latency = link_latency
        self.cycles_per_flit = cycles_per_flit
        self._ports: List[_OutputPort] = []
        self._local_handlers: List[Optional[EndpointHandler]] = \
            [None] * _ROW_SIZE
        self._offchip_handler: Optional[EndpointHandler] = None
        self._counters = self.stats.counters
        # Per-packet hooks run only under an enabled observer.
        self._obs_on = sim.obs.enabled
        # _routes[dest] is the route row toward tile ``dest``; the extra
        # last entry (index CHIPSET == -1) serves every off-node packet.
        # connect_neighbor fills the rows; None marks a direction that
        # was never wired.
        self._steps = mesh.step_table[tile]
        self._routes: list = [None] * (mesh.n_tiles + 1)
        self._routes[tile] = _EJECT
        if tile == 0:
            self._routes[-1] = _OFFCHIP
        # Injected packets go straight to the routing stage.
        self._inject_lane = sim.channel(hop_latency, self._dispatch)
        self._inject_send = self._inject_lane.send
        sim.obs.register_gauge(f"{name}.credit_wait", self._credit_wait_depth,
                               category="noc")

    def _credit_wait_depth(self) -> int:
        """Packets parked across all ports waiting for a credit (gauge)."""
        return sum(len(port.waiting) for port in self._ports)

    # ------------------------------------------------------------------
    # Wiring (done once at network construction)
    # ------------------------------------------------------------------
    def connect_neighbor(self, direction: Direction, other: "Router") -> None:
        """Wire the one-way path toward ``other``: this router's three
        per-channel output ports and ``other``'s matching input stage."""
        row: list = [None] * _ROW_SIZE
        receive = other._input_stage(OPPOSITE[direction], self, row)
        for channel in NocChannel:
            link = Link(self.sim, f"{self.name}.{direction.value}.{channel.name}",
                        receive, latency=self.link_latency,
                        cycles_per_unit=self.cycles_per_flit, category="noc")
            port = _OutputPort(link, direction, self.credit_count)
            row[channel.value] = port
            self._ports.append(port)
        routes = self._routes
        for dest, step in enumerate(self._steps):
            if step is direction:
                routes[dest] = row
        if self.tile != 0 and self._steps[0] is direction:
            routes[-1] = row

    def _input_stage(self, from_direction: Direction, upstream: "Router",
                     upstream_row: list) -> Callable[[Packet], None]:
        """Build the receive function for packets arriving from
        ``from_direction`` (the sink of ``upstream``'s links toward us).

        After the pipeline latency the hop stage returns the credit by
        sending the upstream port itself, then routes the packet.
        """
        credit_send = self.sim.channel(1, upstream._credit_arrive).send

        def hop(packet: Packet, _credit_send=credit_send, _row=upstream_row,
                _dispatch=self._dispatch) -> None:
            _credit_send(_row[packet.channel._value_])
            _dispatch(packet)

        hop_send = self.sim.channel(self.hop_latency, hop).send

        def receive(packet: Packet, _counters=self._counters,
                    _hop_send=hop_send, _obs_on=self._obs_on,
                    _obs=self.obs) -> None:
            _counters["received"] = _counters.get("received", 0) + 1
            packet.hops += 1
            if _obs_on:
                _obs.noc_hop(self, packet, from_direction)
            _hop_send(packet)

        return receive

    def connect_local(self, channel: NocChannel,
                      handler: EndpointHandler) -> None:
        """Attach the tile's network interface for one channel."""
        self._local_handlers[channel.value] = handler

    def connect_offchip(self, handler: EndpointHandler) -> None:
        """Attach the node-edge (chipset / inter-node bridge) demux.

        Only tile 0 gets an off-chip port, mirroring OpenPiton.
        """
        if self.tile != 0:
            raise ProtocolError(
                f"{self.name}: off-chip port only exists on tile 0")
        self._offchip_handler = handler

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Entry point for packets born at this tile (or arriving off-chip)."""
        counters = self._counters
        counters["injected"] = counters.get("injected", 0) + 1
        if self._obs_on:
            self.obs.noc_inject(self, packet)
        self._inject_send(packet)

    def inject_many(self, packets) -> None:
        """Batch entry point for a same-cycle burst of packets born here.

        Packet-for-packet identical to ``for p in packets: inject(p)``,
        riding one batched calendar insert into the routing stage.
        """
        self.stats.inc("injected", len(packets))
        if self._obs_on:
            obs = self.obs
            for packet in packets:
                obs.noc_inject(self, packet)
        self._inject_lane.send_many(packets)

    def _dispatch(self, packet: Packet) -> None:
        """Routing stage: XY within the node, tile 0's off-chip port
        beyond it; then eject, hand off-chip, or forward.

        Reached through the inject lane or a hop stage (which has already
        returned the upstream credit).
        """
        dst = packet.dst
        row = self._routes[dst.tile if dst.node == self.node_id else -1]
        if row is _EJECT:
            handler = self._local_handlers[packet.channel._value_]
            if handler is None:
                raise ProtocolError(
                    f"{self.name}: no local handler for {packet.channel} "
                    f"({packet})")
            counters = self._counters
            counters["ejected"] = counters.get("ejected", 0) + 1
            if self._obs_on:
                self.obs.noc_eject(self, packet)
            handler(packet)
            return
        if row is _OFFCHIP:
            if self._offchip_handler is None:
                raise ProtocolError(
                    f"{self.name}: packet {packet} needs off-chip port")
            counters = self._counters
            counters["offchip"] = counters.get("offchip", 0) + 1
            if self._obs_on:
                self.obs.noc_offchip(self, packet)
            self._offchip_handler(packet)
            return
        if row is None:
            raise SimulationError(f"{self.name}: no port toward {packet}")
        port = row[packet.channel._value_]
        counters = self._counters
        if port.credits:
            port.credits -= 1
            port.send(packet, packet.flits)
            counters["forwarded"] = counters.get("forwarded", 0) + 1
        else:
            port.waiting.append(packet)
            counters["credit_stalls"] = counters.get("credit_stalls", 0) + 1
            if self._obs_on:
                self.obs.noc_credit_stall(self, port.direction, packet)

    def _credit_arrive(self, port: _OutputPort) -> None:
        """A credit for ``port`` came back: forward a waiter or bank it."""
        if port.waiting:
            packet = port.waiting.popleft()
            port.send(packet, packet.flits)
            counters = self._counters
            counters["forwarded"] = counters.get("forwarded", 0) + 1
        else:
            port.credits += 1
            if port.credits > port.max_credits:
                raise ProtocolError(
                    f"{self.name}: credit overflow on {port.link.name}")
