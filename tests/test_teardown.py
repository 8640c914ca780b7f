"""A finished session frees itself.

Every world-building driver tears its world down before it returns
(``SessionRuntime.teardown``), so the world is a tree that plain
refcounting frees the moment the caller drops the result.  The checks run with the
cyclic collector disabled, so a reference cycle left behind shows up as
a live loop and as traced memory that grows run after run.
"""

import gc
import itertools
import tracemalloc
import weakref

import pytest

from repro.experiments.chaos import run_chaos_scenario
from repro.experiments.contention import ContentionConfig, run_contention
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     MobilityPopulationDriver)
from repro.experiments.harness import (SCHEMES, PathSpec, run_bulk_download,
                                       run_video_session)
from repro.experiments import mobility
from repro.experiments.mobility import (extreme_mobility_trace_pairs,
                                        run_scheme_on_trace)
from repro.experiments.parallel import execute_shard
from repro.quic.path import Path
from repro.sim import EventLoop
from repro.traces.radio_profiles import RadioType
from repro.video import make_video

#: back-to-back runs after one warm-up, and the traced growth they may
#: add: a dead ``ab_day`` session held 90-120 KB before teardown, so one
#: leaked world per run would be ten times this.  With a full collection
#: before each read (it empties CPython's tuple free lists, which
#: otherwise keep ~200 B of ACK-range tuples per run) every case grows
#: 0-192 B, so the bound sits well above the spread and far below a leak.
#: Five runs are enough to catch 1.9 KB kept per world (the residue a
#: torn-down ``ab_day`` session was measured at): a mutant that keeps
#: that much fails every case at 5 runs (9.7 KB) and 10 of 13 pass at 4.
RUNS = 5
GROWTH_BYTES = 8 * 1024

PATHS = [PathSpec(0, RadioType.WIFI, 0.015, rate_bps=8e6, loss_rate=0.01),
         PathSpec(1, RadioType.LTE, 0.035, rate_bps=6e6, loss_rate=0.01)]
VIDEO = make_video(duration_s=1.0, bitrate_bps=1_500_000, seed=3)


def _video(scheme):
    return lambda: run_video_session(scheme, PATHS, video=VIDEO, seed=4)


def _bulk(scheme):
    return lambda: run_bulk_download(scheme, PATHS, 150_000, seed=4)


def _contention():
    return run_contention(ContentionConfig(sessions=2, seed=4,
                                           video_duration_s=1.0))


def _ab_shard():
    tasks = ABPopulationDriver(FleetConfig(users=2, seed=5)).task_iter()
    return execute_shard(list(itertools.islice(tasks, 2)))


def _mobility_cell():
    tasks = MobilityPopulationDriver(traces=1, repeats=1, seed=5,
                                     duration_s=8.0, schemes=("xlink",))
    return execute_shard(list(tasks.task_iter()))


def _mobility_mptcp():
    pair = extreme_mobility_trace_pairs(8.0, 1)[0]
    return run_scheme_on_trace(pair, "mptcp", seed=5)


def _chaos():
    return run_chaos_scenario(0, seed=7)


DRIVERS = {
    **{f"video-{name}": _video(name) for name in SCHEMES},
    "bulk-xlink": _bulk("xlink"),
    "bulk-mptcp": _bulk("mptcp"),
    "contention": _contention,
    "ab-shard": _ab_shard,
    "mobility-cell": _mobility_cell,
    "mobility-mptcp": _mobility_mptcp,
    "chaos": _chaos,
}

#: the cases cheap enough to repeat RUNS + 1 times under tracemalloc
FLAT = [name for name in DRIVERS if name != "chaos"]


@pytest.fixture(autouse=True)
def one_chunk_mobility(monkeypatch):
    """A mobility cell's world with one 512 KB chunk instead of six."""
    monkeypatch.setattr(mobility, "CHUNKS_PER_TRACE", 1)


@pytest.fixture()
def loops(monkeypatch):
    """A weak reference to every EventLoop built while the test runs."""
    made = []
    init = EventLoop.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(EventLoop, "__init__", tracked_init)
    return made


@pytest.fixture()
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_the_loop_dies_with_the_result(name, loops, no_collector):
    DRIVERS[name]()
    assert loops, "the driver built no event loop"
    assert [ref() for ref in loops] == [None] * len(loops)


@pytest.mark.parametrize("name", FLAT)
def test_back_to_back_runs_hold_no_memory(name, no_collector):
    driver = DRIVERS[name]
    tracemalloc.start()
    try:
        driver()
        assert gc.collect() == 0, "the warm-up run left cyclic garbage"
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(RUNS):
            driver()
        assert gc.collect() == 0, f"{RUNS} runs left cyclic garbage"
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < GROWTH_BYTES, f"{RUNS} runs kept {grown} B"


def _read_like_the_cli(result):
    """What the CLI, energy experiment and examples read after a run."""
    assert result.completed and result.download_time_s > 0
    # player stats and the metrics derived from them
    assert result.player.finished
    assert result.player.stats.request_completion_times \
        == result.metrics.request_completion_times
    # client and server ConnectionStats
    for conn in (result.client, result.server):
        assert conn.stats.packets_sent > 0
        assert conn.stats.packets_received > 0
        assert conn.stats.robustness_dict()
    assert result.server.stats.stream_bytes_new >= 150_000
    # per-path RTT and bytes, keyed through net_path_of
    assert len(result.server.paths) == 2
    for pid, path in result.server.paths.items():
        assert isinstance(path, Path)
        assert result.server.net_path_of[pid] in (0, 1)
        assert path.rtt.smoothed > 0
        assert path.bytes_sent > 0
    # the emulated network's link stats
    assert sum(p.down_bytes_out for p in result.net.paths.values()) \
        > 150_000
    assert result.redundancy_percent >= 0.0


def test_a_torn_down_result_stays_readable(no_collector):
    result = run_bulk_download("xlink", PATHS, 150_000, seed=4)
    loop = weakref.ref(result.client.loop)
    _read_like_the_cli(result)
    # the world cannot run on, and goes with the result
    assert not result.client.loop._heap
    del result
    assert loop() is None
