"""What a server holds for a range it is sending.

A response is a value cut from the catalog a packet at a time
(``repro.video.http.RangeResponse``), and the send stream keeps that
value, uncopied, until the peer has acked every byte.  So between
serving a range and the first ACK the server holds the datagrams it
has in flight, which the congestion window bounds, plus a small
constant; never the range itself.
"""

import gc
import tracemalloc

from repro.video import MediaServer, RangeRequest, make_video
from tests import test_one_pass

RANGE_BYTES = 256 * 1024
ONE_WAY_DELAY_S = 0.005

#: traced growth the server may add beyond its in-flight datagrams.
#: It reads 11.2-11.6 KB (the tests run before it in the process move
#: it by a few hundred bytes): sent-packet records, queued network
#: events, the response's 1.5 KB period block.  The tree that built the
#: response as ``bytes`` read ~270 KB here: the 256 KB body, held
#: until acked, plus what its copies left behind.
HELD_BYTES = 16 * 1024


def test_a_served_range_is_held_as_a_value_until_acked():
    loop, client, server = test_one_pass.established_pair(
        lambda net: net.add_simple_path(0, 10e6, ONE_WAY_DELAY_S))
    video = make_video(duration_s=4.0, bitrate_bps=1_200_000, seed=1)
    assert video.total_bytes > RANGE_BYTES
    media = MediaServer(server, {video.name: video})
    request = RangeRequest(video.name, 0, RANGE_BYTES).encode()
    stream_id = client.create_stream()
    acks = []
    server.listeners.append(
        lambda kind, fields: kind == "ack_received" and acks.append(fields))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        t0 = loop.now
        client.stream_send(stream_id, request, fin=True)
        base = tracemalloc.get_traced_memory()[0]
        # The request lands at t0 + d; no ACK can be back before t0 + 3d.
        loop.run(until=t0 + 1.5 * ONE_WAY_DELAY_S)
        assert gc.collect() == 0, "serving a range left cyclic garbage"
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert server.send_streams[stream_id].length > 0  # it answered
    assert acks == [], "an ACK came back"
    in_flight = server.paths[0].loss.bytes_in_flight
    assert 0 < in_flight < RANGE_BYTES // 4
    assert grown - in_flight < HELD_BYTES, (grown, in_flight)
