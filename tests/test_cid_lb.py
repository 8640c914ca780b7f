"""Tests for connection IDs and the QUIC-LB load balancer."""

import random

import pytest

from repro.lb import ConsistentHashRing, QuicLbRouter
from repro.quic.cid import (CID_LENGTH, SERVER_ID_OFFSET, CidRegistry,
                            ConnectionId, generate_cid)
from repro.quic.errors import ProtocolViolation, TransportErrorCode


class TestConnectionId:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            ConnectionId(cid=b"short", sequence_number=0)

    def test_server_id_byte(self):
        """The load balancer reads the server ID from the CID's byte."""
        cid = ConnectionId(cid=b"\x07" + b"\x00" * 7, sequence_number=0)
        router = QuicLbRouter({7: "server-7", 8: "server-8"})
        assert router.route(cid.cid) == "server-7"

    def test_generate_embeds_server_id(self):
        rng = random.Random(1)
        cid = generate_cid(rng, 3, server_id=42)
        assert cid.cid[SERVER_ID_OFFSET] == 42
        assert cid.sequence_number == 3
        assert len(cid.cid) == CID_LENGTH

    def test_generate_rejects_bad_server_id(self):
        with pytest.raises(ValueError):
            generate_cid(random.Random(1), 0, server_id=300)


class TestCidRegistry:
    def test_issue_sequential(self):
        reg = CidRegistry(random.Random(1))
        a, b = reg.issue(), reg.issue()
        assert (a.sequence_number, b.sequence_number) == (0, 1)
        assert a.cid != b.cid

    def test_register_and_use_peer_cids(self):
        reg = CidRegistry(random.Random(1))
        peer = ConnectionId(cid=b"\x01" * 8, sequence_number=0)
        reg.register_peer(peer)
        assert reg.peer_cids == {0: peer}

    def test_reregister_same_cid_ok(self):
        reg = CidRegistry(random.Random(1))
        peer = ConnectionId(cid=b"\x01" * 8, sequence_number=0)
        reg.register_peer(peer)
        reg.register_peer(peer)

    def test_reissue_conflict_rejected(self):
        reg = CidRegistry(random.Random(1))
        reg.register_peer(ConnectionId(cid=b"\x01" * 8, sequence_number=0))
        with pytest.raises(ProtocolViolation):
            reg.register_peer(
                ConnectionId(cid=b"\x02" * 8, sequence_number=0))

    def test_lookup_issued(self):
        reg = CidRegistry(random.Random(1))
        cid = reg.issue()
        assert reg.lookup_issued(cid.cid) == cid
        assert reg.lookup_issued(b"\xff" * 8) is None


class TestConsistentHashRing:
    def test_deterministic_routing(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        key = b"\x01" * 8
        assert ring.node_for(key) == ring.node_for(key)

    def test_distributes_keys(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        rng = random.Random(0)
        hits = {"a": 0, "b": 0, "c": 0}
        for _ in range(3000):
            key = bytes(rng.getrandbits(8) for _ in range(8))
            hits[ring.node_for(key)] += 1
        for count in hits.values():
            assert count > 3000 / 3 / 3  # no node starved

    def test_remove_node_moves_only_its_keys(self):
        """Consistent hashing: a ring without a node sends every other
        node's keys where the full ring does."""
        ring = ConsistentHashRing(["a", "b", "c"])
        without_c = ConsistentHashRing(["a", "b"])
        rng = random.Random(0)
        keys = [bytes(rng.getrandbits(8) for _ in range(8))
                for _ in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        moved = 0
        for k in keys:
            after = without_c.node_for(k)
            if before[k] != after:
                moved += 1
                assert before[k] == "c"  # only c's keys may move
        assert moved > 0

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])


class TestQuicLbRouter:
    def test_routes_by_embedded_server_id(self):
        """Sec. 6: a real server encodes its ID in issued CIDs, so every
        path of one connection reaches the same backend."""
        router = QuicLbRouter({1: "server-1", 2: "server-2"})
        rng = random.Random(7)
        cids = [generate_cid(rng, seq, server_id=2) for seq in range(4)]
        backends = {router.route(c.cid) for c in cids}
        assert backends == {"server-2"}
        assert router.routed_by_id == 4

    def test_unknown_id_falls_back_to_hash(self):
        router = QuicLbRouter({1: "server-1", 2: "server-2"})
        cid = b"\xee" * 8  # server id 0xee not registered
        backend = router.route(cid)
        assert backend in ("server-1", "server-2")
        assert router.routed_by_hash == 1

    def test_multipath_cids_stick_to_one_backend(self):
        """All CIDs a backend issues route back to it -- the property
        that makes multipath work behind the LB."""
        router = QuicLbRouter({i: f"s{i}" for i in range(1, 9)})
        rng = random.Random(3)
        for conn in range(20):
            sid = rng.randint(1, 8)
            cids = [generate_cid(rng, seq, server_id=sid)
                    for seq in range(5)]
            assert {router.route(c.cid) for c in cids} == {f"s{sid}"}

    def test_requires_backends(self):
        with pytest.raises(ValueError):
            QuicLbRouter({})
