"""Inter-node bridge: NoC packets tunneled through AXI4/PCIe.

One bridge per node.  Outbound NoC packets (handed over by tile 0's
off-chip port) are encapsulated into AXI4 writes addressed at the
destination node's bridge window; inbound writes are decoded and injected
into the local NoC at tile 0 (paper Fig. 4, stages 3 and 9).

Flow control is credit-based per (destination node, NoC channel), keeping
the three-network deadlock freedom across node boundaries.  Credits are
returned the way the paper describes: the *sending* side periodically
issues an AXI4 read to the receiving side, which answers with the number
of packets it has consumed since the last poll.

A traffic shaper (extra latency + bandwidth cap) can be layered on the
outbound path to model slower inter-node links (paper Sec. 3.5), e.g. an
Ampere-Altra-style socket interconnect.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Tuple

from ..axi.messages import (AxiRead, AxiReadResp, AxiResp, AxiWrite,
                            AxiWriteResp)
from ..engine import Component, Link, Simulator
from ..errors import ProtocolError
from ..noc import NocChannel, NodeNetwork, Packet
from .encoding import (decode_addr, encode_credit_addr, encode_write_addr,
                       pack_packet)
from .pcie import PcieFabric

#: Receive buffer depth (and so sender credits) per (source, channel).
DEFAULT_CREDITS = 16

#: Bridge pipeline depths (cycles): encode and decode each add to both
#: legs of the inter-FPGA tunnel round trip that ``PCIE_ONE_WAY_CYCLES``
#: is calibrated against.
DEFAULT_ENCODE_LATENCY = 2
DEFAULT_DECODE_LATENCY = 2

FlowKey = Tuple[int, NocChannel]   # (peer node, channel)


class InterNodeBridge(Component):
    """Bridges one node's NoC onto the AXI/PCIe fabric."""

    def __init__(self, sim: Simulator, name: str, node_id: int,
                 fabric: PcieFabric, network: NodeNetwork,
                 credits: int = DEFAULT_CREDITS,
                 encode_latency: int = DEFAULT_ENCODE_LATENCY,
                 decode_latency: int = DEFAULT_DECODE_LATENCY,
                 shaper_latency: int = 0,
                 shaper_cycles_per_flit: float = 0.0):
        super().__init__(sim, name)
        self.node_id = node_id
        self.fabric = fabric
        self.network = network
        self.max_credits = credits
        self.encode_latency = encode_latency
        self.decode_latency = decode_latency
        self._credits: Dict[FlowKey, int] = {}
        self._waiting: Dict[FlowKey, deque] = {}
        self._poll_pending: Dict[FlowKey, bool] = {}
        self._consumed: Dict[FlowKey, int] = {}   # credits owed to peers
        self._shaper: Optional[Link] = None
        if shaper_latency or shaper_cycles_per_flit:
            self._shaper = Link(sim, f"{name}.shaper", self._encode,
                                latency=shaper_latency,
                                cycles_per_unit=shaper_cycles_per_flit,
                                category="bridge")
        network.set_bridge_sink(self.send_packet)
        fabric.register(node_id, self)
        sim.obs.register_gauge(f"{name}.queued_packets",
                               lambda: self.queued_packets,
                               category="bridge")

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Entry point for packets leaving this node."""
        if packet.dst.node == self.node_id:
            raise ProtocolError(f"{self.name}: local packet {packet}")
        self.stats.inc("sent_packets")
        if self._shaper is not None:
            self._shaper.send(packet, units=packet.flits)
        else:
            self.schedule(self.encode_latency, self._encode, packet)

    def _encode(self, packet: Packet) -> None:
        key = (packet.dst.node, packet.channel)
        credits = self._credits.setdefault(key, self.max_credits)
        if credits <= 0:
            self._waiting.setdefault(key, deque()).append(packet)
            self.stats.inc("credit_stalls")
            self.obs.bridge_credit_stall(self, key)
            self._maybe_poll(key)
            return
        self._transmit(key, packet)

    def _transmit(self, key: FlowKey, packet: Packet) -> None:
        self._credits[key] -= 1
        self.obs.bridge_packet(self, packet)
        txn = AxiWrite(
            addr=encode_write_addr(packet.dst.node, self.node_id,
                                   packet.channel, packet.flits),
            data=pack_packet(packet),
            user=packet)
        self.fabric.send_write(self.node_id, packet.dst.node, txn,
                               self._write_acked)
        self.stats.inc("axi_writes")
        if self._credits[key] <= self.max_credits // 2:
            self._maybe_poll(key)

    def _write_acked(self, resp: AxiWriteResp) -> None:
        if resp.resp is not AxiResp.OKAY:
            raise ProtocolError(f"{self.name}: AXI error on tunnel write")
        self.stats.inc("write_acks")

    # ------------------------------------------------------------------
    # Credit polling (AR/R path, paper Fig. 4 stage 3)
    # ------------------------------------------------------------------
    def _maybe_poll(self, key: FlowKey) -> None:
        if self._poll_pending.get(key):
            return
        self._poll_pending[key] = True
        peer, channel = key
        txn = AxiRead(addr=encode_credit_addr(peer, self.node_id, channel),
                      length=8)
        self.stats.inc("credit_polls")
        self.fabric.send_read(self.node_id, peer, txn,
                              lambda resp: self._credits_returned(key, resp))

    def _credits_returned(self, key: FlowKey, resp: AxiReadResp) -> None:
        self._poll_pending[key] = False
        returned = int.from_bytes(resp.data, "little")
        if returned:
            self._credits[key] = self._credits.get(key, 0) + returned
            if self._credits[key] > self.max_credits:
                raise ProtocolError(f"{self.name}: credit overflow on {key}")
            self.stats.inc("credits_recovered", returned)
        queue = self._waiting.get(key)
        while queue and self._credits[key] > 0:
            self._transmit(key, queue.popleft())
        if queue:
            # Still starved: poll again (the peer will have consumed more).
            self._maybe_poll(key)

    # ------------------------------------------------------------------
    # Inbound path (fabric endpoint interface)
    # ------------------------------------------------------------------
    def recv_write(self, txn: AxiWrite, reply) -> None:
        decoded = decode_addr(txn.addr)
        if decoded.dst_node != self.node_id:
            raise ProtocolError(
                f"{self.name}: write for node {decoded.dst_node}")
        packet = txn.user
        if not isinstance(packet, Packet):
            raise ProtocolError(f"{self.name}: tunnel write without packet")
        reply(AxiWriteResp(axi_id=txn.axi_id))
        self.stats.inc("recv_packets")
        self.schedule(self.decode_latency, self._inject, packet,
                      (decoded.src_node, decoded.channel))

    def _inject(self, packet: Packet, key: FlowKey) -> None:
        self.network.inject_from_edge(packet)
        # The buffer slot is free once the packet enters the node's NoC.
        self._consumed[key] = self._consumed.get(key, 0) + 1

    def recv_read(self, txn: AxiRead, reply) -> None:
        decoded = decode_addr(txn.addr)
        if not decoded.is_credit:
            raise ProtocolError(f"{self.name}: non-credit read")
        key = (decoded.src_node, decoded.channel)
        count = self._consumed.pop(key, 0)
        self.stats.inc("credits_returned", count)
        reply(AxiReadResp(axi_id=txn.axi_id,
                          data=count.to_bytes(8, "little")))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def credits_available(self, peer: int, channel: NocChannel) -> int:
        return self._credits.get((peer, channel), self.max_credits)

    @property
    def queued_packets(self) -> int:
        return sum(len(q) for q in self._waiting.values())
