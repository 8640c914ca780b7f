"""Tests for the connection's events and the qlog-style tracer."""

import ast
import json
import random
from pathlib import Path as FilePath

import pytest

import repro
from repro.core import MinRttScheduler, ThresholdConfig, XlinkScheduler
from repro.netem import Datagram, MultipathNetwork, OutageSchedule
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic import trace
from repro.quic.trace import EVENTS, ConnectionTracer, TraceEvent
from repro.sim import EventLoop


def traced_session(server_scheduler=None, outage=False, listener=None,
                   path1_loss=0.0):
    """A small traced transfer; returns (tracer, client, server, loop).
    ``listener`` joins the tracer on the server's events; path 1 drops
    ``path1_loss`` of its datagrams (seeded)."""
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(
        0, 8e6, 0.02,
        outages=OutageSchedule(windows=[(0.15, 3.0)]) if outage else None)
    net.add_simple_path(1, 8e6, 0.05, loss_rate=path1_loss,
                        rng=random.Random(3) if path1_loss else None)
    client = Connection(loop, ConnectionConfig(is_client=True),
                        transmit=lambda pid, d: net.client.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=MinRttScheduler(),
                        connection_name="traced")
    server = Connection(loop, ConnectionConfig(is_client=False),
                        transmit=lambda pid, d: net.server.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=server_scheduler or MinRttScheduler(),
                        connection_name="traced")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)

    tracer = ConnectionTracer()
    tracer.install(server)
    if listener is not None:
        server.listeners.append(listener)

    def on_established():
        client.open_path(1, 1)
        sid = client.create_stream()
        client.stream_send(sid, b"GET", fin=True)

    def on_server_data(sid):
        stream = server.recv_streams[sid]
        served = getattr(server, "_served", set())
        if stream.is_complete and sid not in served:
            served.add(sid)
            server._served = served
            server.stream_read(sid)
            server.stream_send(sid, b"D" * 300_000, fin=True)

    client.on_established = on_established
    server.on_stream_data = on_server_data
    client.connect()
    loop.run(until=20.0)
    return tracer, client, server, loop


class TestTracer:
    def test_records_sends_and_receives(self):
        tracer, _c, server, _l = traced_session()
        assert tracer.count("datagram_sent") > 100
        assert tracer.count("datagram_received") > 10
        assert tracer.count("datagram_sent") == server.stats.packets_sent

    def test_events_time_ordered(self):
        tracer, *_ = traced_session()
        times = [e.time for e in tracer.events]
        assert times == sorted(times)

    def test_bytes_by_path_matches_connection(self):
        tracer, _c, server, _l = traced_session()
        by_path = {}
        for e in tracer.events:
            if e.name == "datagram_sent":
                net_id = e.data["net_path"]
                by_path[net_id] = by_path.get(net_id, 0) + e.data["size"]
        for pid, path in server.paths.items():
            net_id = server.net_path_of[pid]
            assert by_path.get(net_id, 0) == path.bytes_sent

    def test_records_qoe_feedback(self):
        tracer, client, server, loop = traced_session()
        from repro.quic.frames import QoeSignals
        client.qoe_provider = lambda: QoeSignals(1, 2, 3, 4)
        sid = client.create_stream()
        client.stream_send(sid, b"GET2", fin=True)
        loop.run(until=25.0)
        feedback = [e for e in tracer.events
                    if e.name == "feedback_received"]
        assert feedback
        assert feedback[-1].data["cached_bytes"] == 1

    def test_records_reinjections_under_outage(self):
        sched = XlinkScheduler(thresholds=ThresholdConfig(always_on=True))
        tracer, _c, server, _l = traced_session(server_scheduler=sched,
                                                outage=True)
        reinjections = [e for e in tracer.events if e.name == "reinjection"]
        assert reinjections
        assert {e.category for e in reinjections} == {"recovery"}
        assert all(e.data["length"] > 0 for e in reinjections)
        # Every sent duplicate was first enqueued (some enqueued chunks
        # may be dropped unsent if their range is acked meanwhile).
        assert sum(e.data["length"] for e in reinjections) \
            >= server.stats.stream_bytes_reinjected

    def test_filter_by_category(self):
        tracer, *_ = traced_session()
        packets = [e for e in tracer.events if e.category == "packet"]
        assert len(packets) == tracer.count("datagram_sent") + \
            tracer.count("datagram_received")

    def test_jsonl_roundtrip(self, tmp_path):
        tracer, *_ = traced_session()
        path = tmp_path / "trace.jsonl"
        tracer.save(path)
        loaded = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert len(loaded) == len(tracer.events)
        assert loaded[0]["name"] == tracer.events[0].name
        assert loaded[-1]["data"] == tracer.events[-1].data

    def test_acks_and_losses_add_up_to_the_loss_detectors(self):
        """Every ACK_MP and loss-timer firing is an event: per path, the
        packets they report acked or lost plus those still tracked are
        the 1-RTT packets the path sent, each counted exactly once."""
        # the handshake takes packet numbers on path 0 that the loss
        # detector never tracks; its packets carry the long header
        long_headers = []

        def on_event(kind, fields):
            if kind == "datagram_sent" and fields["payload"][0] & 0x80:
                long_headers.append(fields["net_path"])

        tracer, _c, server, _l = traced_session(outage=True,
                                                listener=on_event,
                                                path1_loss=0.05)
        handshakes = len(long_headers)
        assert handshakes > 0 and set(long_headers) == {0}
        assert any(e.data["lost"] for e in tracer.events
                   if e.name == "loss_timer")
        lost_on = {}
        for pid, path in server.paths.items():
            acks = [e.data for e in tracer.events
                    if e.name == "ack_received" and e.data["path_id"] == pid]
            timers = [e.data for e in tracer.events
                      if e.name == "loss_timer" and e.data["path_id"] == pid]
            acked = sum(a["acked"] for a in acks)
            lost_on[pid] = sum(a["lost"] for a in acks + timers)
            assert acked + lost_on[pid] + len(path.loss.sent) \
                == path.next_pn - (handshakes if pid == 0 else 0)
        assert lost_on[0] > 0
        assert tracer.count("pto") > 0

    def test_records_path_changes_on_both_ends(self):
        tracer, client, server, loop = traced_session()
        changes = [(e.data["path_id"], e.data["state"], e.data["cause"])
                   for e in tracer.events if e.category == "path"]
        assert changes == [(0, "active", "handshake"), (1, "active", "accept")]
        client_tracer = ConnectionTracer()
        client_tracer.install(client)
        # the client retires path 1; PATH_STATUS tells the server
        client.abandon_path(1)
        loop.run(until=loop.now + 1.0)
        [mine] = [e.data for e in client_tracer.events
                  if e.name == "path_updated"]
        peer = [e.data for e in tracer.events
                if e.name == "path_updated"][-1]
        for data in (mine, peer):
            assert data == {"path_id": 1, "state": "abandoned",
                            "bytes_in_flight": data["bytes_in_flight"],
                            "cause": "abandon"}
        assert server.paths[1].loss.bytes_in_flight == 0

    def test_max_events_cap(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_TRACE_EVENTS", 5)
        tracer = ConnectionTracer()
        for i in range(10):
            tracer.record(float(i), "packet", "datagram_sent", size=1)
        assert [e.time for e in tracer.events] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_double_install_rejected(self):
        tracer, *_ = traced_session()
        with pytest.raises(RuntimeError):
            tracer.install(object())

    def test_event_json_stable(self):
        event = TraceEvent(time=1.5, category="packet", name="x",
                           data={"b": 2, "a": 1})
        assert event.to_json() == \
            '{"category": "packet", "data": {"a": 1, "b": 2}, ' \
            '"name": "x", "time": 1.5}'


def test_every_emitted_kind_is_in_the_catalogue():
    """``EVENTS`` is the type of ``Connection.emit``: each literal kind
    emitted anywhere under ``src/repro`` is listed, and each listed kind
    is emitted somewhere."""
    kinds = set()
    for path in FilePath(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "emit":
                kinds.add(node.args[0].value)
    assert kinds == set(EVENTS)
