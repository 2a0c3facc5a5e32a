"""The partitioned fabric: one shard's view of the PCIe interconnect.

Each partition builds a :class:`PartitionFabric` instead of the plain
:class:`~repro.interconnect.pcie.PcieFabric`.  Links whose *source* FPGA
lives in this partition are built exactly as in the monolithic fabric —
same names, same serialization, same sender-side stats and obs hooks —
but the delivery channel of any link whose *destination* FPGA belongs to
another partition is replaced by a capture object that records the burst
(with its exact arrival cycle) into a per-partition outbox instead of
scheduling a local delivery.  The coordinator routes outboxes to the
destination partitions between quanta, where they are re-scheduled at
the recorded arrival cycle; because the quantum is bounded by the
lookahead window (< the link latency), the arrival is always in the
receiver's future.

Response callbacks cannot cross a process boundary, so a request headed
for a remote partition parks its ``on_resp`` in a token registry and
ships the integer token instead; the remote side threads the token
through its reply untouched (the base fabric's ``reply`` closure already
forwards the ``on_resp`` slot verbatim), and delivery of the response
back here pops the waiter.  The burst payload itself is already in wire
form — ``txn.data`` carries the ``interconnect.encoding.pack_packet``
image built by the sending bridge — and the live payload object rides
alongside exactly as it does through the monolithic fabric's ``user``
field.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..engine import Link, Simulator
from ..interconnect.pcie import PcieFabric

#: One captured boundary burst: (send_time, arrival, seq, dst_partition,
#: message).  ``seq`` restores the sender's program order for bursts
#: leaving in the same cycle; the coordinator orders a receiver's inbox
#: by (send_time, src_partition, seq) so delivery order is a pure
#: function of the traffic, not of scheduling races.
OutboxEntry = Tuple[int, int, int, int, tuple]

#: What the coordinator hands the receiving shard: (send_time,
#: src_partition, seq, arrival, message).
InboxEntry = Tuple[int, int, int, int, tuple]


class _BoundaryCapture:
    """Stands in for a boundary link's delivery channel.

    Mimics the ``ConstLatencyChannel`` surface the :class:`Link` send
    paths use (``send_after`` / ``send_after_many``), but instead of
    scheduling ``fabric._deliver`` locally it records the message and
    its arrival cycle into the fabric's outbox.  Sender-side link
    behaviour (serialization, occupancy, stats, obs) is untouched.
    """

    __slots__ = ("_fabric", "_dst_partition", "delay", "sink")

    def __init__(self, fabric: "PartitionFabric", dst_partition: int,
                 link: Link):
        self._fabric = fabric
        self._dst_partition = dst_partition
        self.delay = link.latency
        self.sink = fabric._deliver

    def send(self, message):
        self._fabric._capture(self._dst_partition, self.delay, message)

    def send_after(self, delay, message):
        self._fabric._capture(self._dst_partition, delay, message)

    def send_many(self, messages):
        capture = self._fabric._capture
        for message in messages:
            capture(self._dst_partition, self.delay, message)

    def send_after_many(self, delay, messages):
        capture = self._fabric._capture
        for message in messages:
            capture(self._dst_partition, delay, message)


class PartitionFabric(PcieFabric):
    """A :class:`PcieFabric` cut along partition boundaries."""

    def __init__(self, sim: Simulator, name: str, placement: Dict[int, int],
                 local_fpgas: Iterable[int], fpga_partition: Dict[int, int],
                 **kwargs):
        # _build_link runs from the base constructor, so the partition
        # topology must be in place first.
        self._local_fpgas = frozenset(local_fpgas)
        self._fpga_partition = dict(fpga_partition)
        self._outbox: List[OutboxEntry] = []
        self._seq = 0
        self._resp_waiters: Dict[int, object] = {}
        self._next_token = 0
        super().__init__(sim, name, placement, **kwargs)

    # ------------------------------------------------------------------
    # Boundary construction
    # ------------------------------------------------------------------
    def _build_link(self, src: int, dst: int) -> Optional[Link]:
        if src not in self._local_fpgas:
            # Directions sourced by another partition are materialized
            # (and serialized) there; arrivals come in via the inbox.
            return None
        link = super()._build_link(src, dst)
        if dst not in self._local_fpgas:
            link.redirect(_BoundaryCapture(
                self, self._fpga_partition[dst], link))
        return link

    def is_local_node(self, node_id: int) -> bool:
        return self.placement[node_id] in self._local_fpgas

    # ------------------------------------------------------------------
    # Boundary traffic
    # ------------------------------------------------------------------
    def _capture(self, dst_partition: int, delay: int, message) -> None:
        now = self.sim.now
        self._outbox.append(
            (now, now + delay, self._seq, dst_partition, message))
        self._seq += 1

    def take_outbox(self) -> List[OutboxEntry]:
        out, self._outbox = self._outbox, []
        return out

    def inject(self, records: Iterable[InboxEntry]) -> None:
        """Schedule routed boundary arrivals (called between quanta).

        ``records`` must already be ordered by (send_time,
        src_partition, seq); same-cycle arrivals then enter the calendar
        bucket in that deterministic order.
        """
        schedule_at = self.sim.schedule_at
        deliver = self._deliver
        for _send_time, _src, _seq, arrival, message in records:
            schedule_at(arrival, deliver, message)

    def pending_responses(self) -> int:
        return len(self._resp_waiters)

    # ------------------------------------------------------------------
    # Sender / delivery overrides
    # ------------------------------------------------------------------
    def _send(self, src_node: int, dst_node: int, item, units: int) -> None:
        if self.is_local_node(dst_node):
            super()._send(src_node, dst_node, item, units)
            return
        # The destination bridge lives in another partition: park the
        # response callback under a token and ship the token in its
        # place.  The endpoint-existence check happens remotely.
        kind, txn, on_resp = item
        token = self._next_token
        self._next_token += 1
        self._resp_waiters[token] = on_resp
        self.obs.pcie_transfer(self, src_node, dst_node, kind, units)
        self._link(src_node, dst_node).send(
            (kind, txn, token, src_node, dst_node), units=units)

    def _deliver(self, item) -> None:
        if item[0] == "resp":
            on_resp = item[2]
            if not callable(on_resp):
                # A token coming home: resolve the parked waiter.
                self._resp_waiters.pop(on_resp)(item[1])
                return
        # Requests forward their on_resp slot (callable or remote token)
        # into the reply verbatim, so the base delivery path handles
        # both local traffic and remote-origin requests unchanged.
        super()._deliver(item)
