"""Unit tests for the NoC: topology, routing, delivery, credits."""

import hashlib

import pytest

from repro.engine import Simulator
from repro.errors import ConfigError, ProtocolError
from repro.noc import (CHIPSET, Direction, Mesh, MsgClass, NocChannel,
                       NodeNetwork, Packet, TileAddr, data_flits)


def make_packet(src, dst, channel=NocChannel.REQ, payload=None, flits=0):
    return Packet(src=src, dst=dst, channel=channel,
                  msg_class=MsgClass.PING, payload=payload,
                  payload_flits=flits)


class TestMesh:
    def test_for_tiles_near_square(self):
        assert Mesh.for_tiles(12).width == 4
        assert Mesh.for_tiles(12).height == 3
        assert Mesh.for_tiles(2).width == 2
        assert Mesh.for_tiles(1).width == 1

    def test_coords_roundtrip(self):
        mesh = Mesh.for_tiles(12)
        for tile in mesh.all_tiles():
            x, y = mesh.coords(tile)
            assert mesh.tile_at(x, y) == tile

    def test_ragged_last_row(self):
        mesh = Mesh.for_tiles(10)  # 4 wide, 3 tall, last row has 2
        assert mesh.height == 3
        assert mesh.has_tile(1, 2)
        assert not mesh.has_tile(2, 2)

    def test_neighbors_of_corner(self):
        mesh = Mesh.for_tiles(12)
        neighbors = dict(mesh.neighbors(0))
        assert neighbors == {Direction.EAST: 1, Direction.SOUTH: 4}

    def test_route_step_x_then_y(self):
        mesh = Mesh.for_tiles(12)  # 4x3
        # tile 0 at (0,0), tile 11 at (3,2): go east first
        assert mesh.route_step(0, 11) == Direction.EAST
        assert mesh.route_step(3, 11) == Direction.SOUTH
        assert mesh.route_step(11, 11) == Direction.LOCAL

    def test_hop_count_manhattan(self):
        mesh = Mesh.for_tiles(12)
        assert mesh.hop_count(0, 11) == 5
        assert mesh.hop_count(0, 0) == 0

    def test_invalid_tile_rejected(self):
        with pytest.raises(ConfigError):
            Mesh.for_tiles(0)
        with pytest.raises(ConfigError):
            Mesh.for_tiles(4).coords(4)

    def test_data_flits(self):
        assert data_flits(0) == 0
        assert data_flits(1) == 1
        assert data_flits(8) == 1
        assert data_flits(64) == 8


def build_network(n_tiles=12, node_id=0):
    sim = Simulator()
    net = NodeNetwork(sim, f"n{node_id}", node_id, n_tiles)
    received = []

    def make_handler(tile):
        def handler(packet):
            received.append((sim.now, tile, packet))
        return handler

    for tile in range(n_tiles):
        for channel in NocChannel:
            net.register_endpoint(tile, channel, make_handler(tile))
    return sim, net, received


class TestNodeNetwork:
    def test_delivery_same_tile_adjacent(self):
        sim, net, received = build_network()
        pkt = make_packet(TileAddr(0, 0), TileAddr(0, 1))
        net.inject(pkt, 0)
        sim.run()
        assert len(received) == 1
        _, tile, got = received[0]
        assert tile == 1 and got is pkt
        assert got.hops == 1

    def test_all_pairs_delivery(self):
        sim, net, received = build_network(n_tiles=12)
        count = 0
        for src in range(12):
            for dst in range(12):
                if src == dst:
                    continue
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, dst)), src)
                count += 1
        sim.run()
        assert len(received) == count
        # every packet landed at its own destination
        for _, tile, pkt in received:
            assert pkt.dst.tile == tile

    def test_latency_grows_with_distance(self):
        sim, net, received = build_network(n_tiles=12)
        net.inject(make_packet(TileAddr(0, 1), TileAddr(0, 2)), 1)
        sim.run()
        near = received[-1][0]
        start = sim.now
        net.inject(make_packet(TileAddr(0, 1), TileAddr(0, 11)), 1)
        sim.run()
        far = sim.now - start
        assert far > near

    def test_hops_match_manhattan_distance(self):
        sim, net, received = build_network(n_tiles=12)
        net.inject(make_packet(TileAddr(0, 0), TileAddr(0, 11)), 0)
        sim.run()
        assert received[0][2].hops == net.hop_count(0, 11)

    def test_chipset_packets_reach_chipset_sink(self):
        sim, net, _ = build_network()
        chipset_got = []
        net.set_chipset_sink(chipset_got.append)
        pkt = make_packet(TileAddr(0, 5), TileAddr(0, CHIPSET))
        net.inject(pkt, 5)
        sim.run()
        assert chipset_got == [pkt]

    def test_inter_node_packets_reach_bridge_sink(self):
        sim, net, _ = build_network()
        bridge_got = []
        net.set_bridge_sink(bridge_got.append)
        pkt = make_packet(TileAddr(0, 5), TileAddr(3, 2))
        net.inject(pkt, 5)
        sim.run()
        assert bridge_got == [pkt]

    def test_edge_injection_reaches_destination_tile(self):
        sim, net, received = build_network()
        pkt = make_packet(TileAddr(3, 2), TileAddr(0, 7), NocChannel.RESP)
        net.inject_from_edge(pkt)
        sim.run()
        assert [(t, p) for _, t, p in received] == [(7, pkt)]

    def test_missing_bridge_raises(self):
        sim, net, _ = build_network()
        net.inject(make_packet(TileAddr(0, 1), TileAddr(2, 0)), 1)
        with pytest.raises(ProtocolError):
            sim.run()

    def test_inject_from_wrong_node_rejected(self):
        sim, net, _ = build_network()
        pkt = make_packet(TileAddr(9, 0), TileAddr(0, 1))
        with pytest.raises(ProtocolError):
            net.inject(pkt, 0)

    def test_single_tile_node_chipset_path(self):
        sim = Simulator()
        net = NodeNetwork(sim, "n0", 0, 1)
        got = []
        net.set_chipset_sink(got.append)
        for channel in NocChannel:
            net.register_endpoint(0, channel, lambda p: None)
        pkt = make_packet(TileAddr(0, 0), TileAddr(0, CHIPSET))
        net.inject(pkt, 0)
        sim.run()
        assert got == [pkt]

    def test_heavy_fanin_still_delivers_everything(self):
        # 11 tiles hammer tile 0 with multi-flit packets; credits must not
        # deadlock or drop anything.
        sim, net, received = build_network(n_tiles=12)
        total = 0
        for src in range(1, 12):
            for _ in range(20):
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, 0),
                                       flits=8), src)
                total += 1
        sim.run()
        assert len(received) == total

    def test_credit_stalls_counted_under_contention(self):
        sim, net, _ = build_network(n_tiles=12)
        for src in range(1, 12):
            for _ in range(50):
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, 0),
                                       flits=8), src)
        sim.run()
        stats = net.router_stats()
        assert stats.get("credit_stalls", 0) > 0


#: Golden records of NoC contention on 12 tiles: the SHA-256 of every
#: delivery as ``(cycle, src tile, per-source seq, channel)`` and the
#: merged router counters in first-use order.  ``fanin`` is 11 sources x
#: 50 eight-flit REQ packets into tile 0 (4 credits); ``tight`` sends
#: 11 x 50 packets of 0-8 flits over all three channels into tile 5 with
#: a single credit per port, so credit-return timing reaches the output.
CONTENTION_GOLDEN = {
    "fanin": (dict(credits=4, dst=0, mixed=False),
              "733749f5827bde2c143d7123d410fd9a67108cf74adc5b7c1b3adcd71a33d12e",
              [("received", 1500), ("ejected", 550), ("injected", 550),
               ("forwarded", 1500), ("credit_stalls", 1456)]),
    "tight": (dict(credits=1, dst=5, mixed=True),
              "355076c7be250ca8abab074ec2ade42a92d9e4dc74f27e33ebf85a5e18aa1f1e",
              [("injected", 550), ("forwarded", 1000),
               ("credit_stalls", 967), ("received", 1000),
               ("ejected", 550)]),
}


class TestContentionGolden:
    @pytest.mark.parametrize("kernel", ["python", "accel"])
    @pytest.mark.parametrize("fast_path", [True, False])
    @pytest.mark.parametrize("workload", sorted(CONTENTION_GOLDEN))
    def test_contention_matches_golden(self, workload, fast_path, kernel):
        shape, sha256, router_stats = CONTENTION_GOLDEN[workload]
        dst, mixed = shape["dst"], shape["mixed"]
        sim = Simulator(fast_path=fast_path, kernel=kernel)
        net = NodeNetwork(sim, "n0", 0, 12, credits=shape["credits"])
        deliveries = []

        def handler(packet):
            src, seq = packet.payload
            deliveries.append((sim.now, src, seq, packet.channel.name))

        for tile in range(12):
            for channel in NocChannel:
                net.register_endpoint(tile, channel, handler)
        channels = list(NocChannel)
        for src in range(12):
            if src == dst:
                continue
            for seq in range(50):
                channel = channels[(src + seq) % 3] if mixed \
                    else NocChannel.REQ
                net.inject(make_packet(TileAddr(0, src), TileAddr(0, dst),
                                       channel, payload=(src, seq),
                                       flits=seq % 9 if mixed else 8), src)
        sim.run()
        assert len(deliveries) == 550
        digest = hashlib.sha256(repr(deliveries).encode()).hexdigest()
        assert digest == sha256
        assert list(net.router_stats().items()) == router_stats
        # Every credit came home and nothing is left parked.
        for router in net.routers:
            for port in router._ports:
                assert port.credits == port.max_credits
                assert not port.waiting


class TestRaggedRouting:
    """Boundary-aware XY routing on meshes with a partial last row."""

    def _walk(self, mesh, src, dst):
        """Follow route_step hop by hop; return the path of tile indices."""
        path = [src]
        here = src
        while here != dst:
            step = mesh.route_step(here, dst)
            assert step != Direction.LOCAL
            moves = dict(mesh.neighbors(here))
            # The chosen direction must point at a tile that exists —
            # this is exactly what broke on ragged meshes.
            assert step in moves, \
                f"route {src}->{dst} stepped {step} off tile {here}"
            here = moves[step]
            path.append(here)
            assert len(path) <= mesh.width + mesh.height + 1
        return path

    def test_all_pairs_reach_destination_on_ragged_meshes(self):
        for n_tiles in (3, 5, 7, 8, 11, 13):
            mesh = Mesh.for_tiles(n_tiles)
            assert mesh.width * mesh.height > n_tiles  # really ragged
            for src in range(n_tiles):
                for dst in range(n_tiles):
                    path = self._walk(mesh, src, dst)
                    assert path[-1] == dst

    def test_detour_stays_minimal(self):
        # The NORTH detour around a hole must not lengthen the path:
        # hop count stays the Manhattan distance.
        for n_tiles in (5, 7, 8, 11):
            mesh = Mesh.for_tiles(n_tiles)
            for src in range(n_tiles):
                for dst in range(n_tiles):
                    path = self._walk(mesh, src, dst)
                    assert len(path) - 1 == mesh.hop_count(src, dst)

    def test_step_table_matches_route_step(self):
        mesh = Mesh.for_tiles(8)
        for here in range(8):
            for dest in range(8):
                assert mesh.step_table[here][dest] == \
                    mesh.route_step(here, dest)

    def test_ragged_node_delivers_all_pairs(self):
        # 8 tiles on a 3-wide mesh: tile 8 (position (2, 2)) is a hole.
        sim = Simulator()
        net = NodeNetwork(sim, "n0", 0, 8)
        got = []
        for tile in range(8):
            net.register_endpoint(tile, NocChannel.REQ,
                                  lambda p, t=tile: got.append((t, p.payload)))
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    net.inject(make_packet(TileAddr(0, src),
                                           TileAddr(0, dst),
                                           payload=(src, dst)), src)
        sim.run()
        assert sorted(p for _t, p in got) == sorted(
            (s, d) for s in range(8) for d in range(8) if s != d)

    def test_ragged_prototype_pair_latency(self):
        # End-to-end regression: this exact call crashed with
        # "no port Direction.EAST" before boundary-aware routing.
        from repro import build

        proto = build("1x1x8")
        assert proto.measure_pair_latency(5, 6) > 0
        assert proto.measure_pair_latency(6, 5) > 0
