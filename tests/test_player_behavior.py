"""Behavioural tests for the video player over the real transport."""

import pytest

from repro.core import MinRttScheduler, SinglePathScheduler
from repro.netem import Datagram, MultipathNetwork, OutageSchedule
from repro.quic.connection import Connection, ConnectionConfig
from repro.sim import EventLoop
from repro.video import (MediaServer, PlayerConfig, VideoPlayer, make_video)


def session(video, player_config=None, rate=10e6, outage=None,
            timeout=60.0):
    loop = EventLoop()
    net = MultipathNetwork(loop)
    net.add_simple_path(0, rate, 0.015, outages=outage)
    client = Connection(loop, ConnectionConfig(is_client=True,
                                               enable_multipath=False),
                        transmit=lambda pid, d: net.client.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=SinglePathScheduler(),
                        connection_name="player")
    server = Connection(loop, ConnectionConfig(is_client=False,
                                               enable_multipath=False),
                        transmit=lambda pid, d: net.server.send(
                            Datagram(payload=d, path_id=pid)),
                        scheduler=SinglePathScheduler(),
                        connection_name="player")
    net.client.on_receive(lambda d: client.datagram_received(d.payload,
                                                             d.path_id))
    net.server.on_receive(lambda d: server.datagram_received(d.payload,
                                                             d.path_id))
    client.add_local_path(0, 0)
    server.add_local_path(0, 0)
    MediaServer(server, {video.name: video})
    player = VideoPlayer(loop, client, video, config=player_config)
    client.on_established = player.start
    client.connect()
    while not player.finished and loop.now < timeout:
        if not loop.step():
            break
    return player, loop


class TestPlaybackAccounting:
    def test_play_time_equals_video_duration(self):
        video = make_video(duration_s=4.0, seed=1)
        player, _ = session(video)
        assert player.finished
        assert player.stats.play_time == pytest.approx(video.duration_s,
                                                       abs=0.2)

    def test_rct_count_matches_chunks(self):
        video = make_video(duration_s=4.0, seed=1, chunk_size=64 * 1024)
        player, _ = session(video)
        assert len(player.stats.request_completion_times) == \
            len(video.chunks())

    def test_no_rebuffer_on_fast_network(self):
        video = make_video(duration_s=4.0, seed=1)
        player, _ = session(video, rate=50e6)
        assert player.stats.rebuffer_time == 0.0
        assert player.stats.rebuffer_events == []

    def test_outage_causes_measured_stall(self):
        video = make_video(duration_s=8.0, bitrate_bps=2e6, seed=2)
        player, loop = session(
            video, player_config=PlayerConfig(max_buffer_s=1.5),
            rate=4e6, outage=OutageSchedule(windows=[(1.0, 4.0)]),
            timeout=60.0)
        assert player.finished
        stats = player.stats
        assert stats.rebuffer_events
        assert stats.rebuffer_time > 0.5
        # Stalls are well-formed: every event closed, positive length.
        for event in stats.rebuffer_events:
            assert event.end is not None
            assert event.duration >= 0

    def test_rebuffer_rate_definition(self):
        """rebuffer_rate == sum(rebuffer)/sum(play) (Sec. 7.2)."""
        video = make_video(duration_s=6.0, bitrate_bps=2e6, seed=3)
        player, _ = session(
            video, player_config=PlayerConfig(max_buffer_s=1.5),
            rate=4e6, outage=OutageSchedule(windows=[(1.0, 3.5)]))
        stats = player.stats
        assert stats.rebuffer_rate == pytest.approx(
            stats.rebuffer_time / stats.play_time)

    def test_buffer_never_exceeds_cap_by_much(self):
        video = make_video(duration_s=6.0, bitrate_bps=2e6, seed=4,
                           chunk_size=64 * 1024)
        cap = 2.0
        player, _ = session(video,
                            player_config=PlayerConfig(max_buffer_s=cap),
                            rate=50e6)
        # Sampled buffered play-time stays near the cap (one chunk of
        # slack is allowed: requests in flight when the cap is hit).
        overshoot = max(s[2] for s in player.stats.buffer_level_samples)
        chunk_playtime = 64 * 1024 * 8 / 2e6
        assert overshoot <= cap + 2 * chunk_playtime + 0.5

    def test_first_frame_latency_before_first_rct(self):
        video = make_video(duration_s=4.0, seed=5, chunk_size=512 * 1024)
        player, _ = session(video)
        stats = player.stats
        assert stats.first_frame_latency is not None
        # First frame needs less data than the whole first chunk.
        assert stats.first_frame_latency <= \
            stats.request_completion_times[0] + 1e-9

    def test_started_and_finished_timestamps(self):
        video = make_video(duration_s=3.0, seed=6)
        player, loop = session(video)
        stats = player.stats
        assert stats.started_at is not None
        assert player.finished
        assert stats.started_at < loop.now
