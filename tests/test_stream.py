"""Tests for stream send/receive halves and the range-set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.errors import FinalSizeError, StreamStateError
from repro.quic.stream import (DEFAULT_FRAME_PRIORITY, FIRST_FRAME_PRIORITY,
                               ReceiveStream, SendStream, _RangeSet)
from repro.video import RangeResponse, RangeResponseMeta


class TestSendStream:
    def test_write_accumulates(self):
        s = SendStream(0)
        s.write(b"hello")
        s.write(b"world", fin=True)
        assert s.length == 10
        assert s.fin_offset == 10

    def test_write_after_fin_rejected(self):
        s = SendStream(0)
        s.write(b"x", fin=True)
        with pytest.raises(StreamStateError):
            s.write(b"y")

    def test_data_for_range(self):
        s = SendStream(0)
        s.write(b"abcdefgh")
        assert s.data_for(2, 3) == b"cde"

    def test_data_for_out_of_range(self):
        s = SendStream(0)
        s.write(b"abc")
        with pytest.raises(StreamStateError):
            s.data_for(1, 10)

    def test_frame_priority_ranges(self):
        s = SendStream(0)
        s.write(b"A" * 100, frame_priority=FIRST_FRAME_PRIORITY,
                position=0, size=40)
        assert s.frame_priority_at(0) == FIRST_FRAME_PRIORITY
        assert s.frame_priority_at(39) == FIRST_FRAME_PRIORITY
        assert s.frame_priority_at(40) == DEFAULT_FRAME_PRIORITY

    def test_priority_range_end(self):
        s = SendStream(0)
        s.write(b"A" * 100, frame_priority=FIRST_FRAME_PRIORITY,
                position=10, size=20)
        assert s.priority_range_end(FIRST_FRAME_PRIORITY) == 30
        assert s.priority_range_end(99) is None

    def test_implicit_priority_range_covers_write(self):
        s = SendStream(0)
        s.write(b"x" * 10)
        s.write(b"y" * 10, frame_priority=1)
        assert s.frame_priority_at(5) == DEFAULT_FRAME_PRIORITY
        assert s.frame_priority_at(15) == 1

    def test_fin_range_detection(self):
        s = SendStream(0)
        s.write(b"abcdef", fin=True)
        assert s.is_fin_range(3, 3)
        assert not s.is_fin_range(0, 3)

    def test_fully_acked_requires_data_and_fin(self):
        s = SendStream(0)
        s.write(b"abcdef", fin=True)
        s.on_acked(0, 6, fin=False)
        assert not s.fully_acked
        s.on_acked(6, 0, fin=True)
        assert s.fully_acked

    def test_fully_acked_partial_data(self):
        s = SendStream(0)
        s.write(b"abcdef", fin=True)
        s.on_acked(0, 3, fin=True)
        assert not s.fully_acked
        s.on_acked(3, 3, fin=False)
        assert s.fully_acked

    def test_acked_data_is_released_only_when_all_of_it_is(self):
        """A finished session sits in reference cycles until the next
        full GC pass; its acked stream buffers must not sit there too."""
        s = SendStream(0)
        s.write(b"abcdef", fin=True)
        s.on_acked(0, 3, fin=True)          # FIN acked, data not yet
        assert s.data_for(3, 3) == b"def"   # still retransmittable
        s.on_acked(3, 3, fin=False)
        assert s.fully_acked
        assert len(s._buffer) == 0
        assert s.length == 6 and s.fin_offset == 6
        assert not s.acked_ranges.missing_within(0, 6)
        unfinished = SendStream(4)
        unfinished.write(b"abcdef")         # no FIN: more may follow
        unfinished.on_acked(0, 6, fin=False)
        assert unfinished.data_for(0, 6) == b"abcdef"

    def test_a_response_is_held_uncopied_until_fully_acked(self):
        response = RangeResponse(RangeResponseMeta(50_000, 1_000, 41_000),
                                 "clip")
        s = SendStream(0)
        s.write(response, fin=True)
        assert s._buffer is response and s.length == len(response)
        assert s.data_for(10, 1_200) == response[10:1_210]
        s.on_acked(0, 30_000, fin=True)
        assert s._buffer is response        # the tail may be resent
        s.on_acked(30_000, len(response) - 30_000, fin=False)
        assert s.fully_acked and s._buffer == b""

    def test_a_second_write_joins_what_is_held(self):
        response = RangeResponse(RangeResponseMeta(500, 0, 100), "clip")
        s = SendStream(0)
        s.write(response)
        s.write(b"tail", fin=True)
        assert s.data_for(0, s.length) == response[:] + b"tail"

    def test_a_mutable_write_is_copied(self):
        data = bytearray(b"abcdef")
        s = SendStream(0)
        s.write(data, fin=True)
        data[0:3] = b"xyz"
        assert s.data_for(0, 6) == b"abcdef"


class TestReceiveStream:
    def test_in_order_read(self):
        r = ReceiveStream(0)
        r.on_data(0, b"abc", fin=False)
        assert r.read_available() == b"abc"
        assert r.read_available() == b""

    def test_one_ready_segment_is_read_uncopied(self):
        r = ReceiveStream(0)
        r.on_data(0, b"abc" * 400, fin=False)
        segment = r._segments[0]
        assert r.read_available() is segment
        r.on_data(1_200, b"d", fin=False)
        r.on_data(1_201, b"ef", fin=True)
        assert r.read_available() == b"def" and r.fully_read

    def test_out_of_order_reassembly(self):
        r = ReceiveStream(0)
        r.on_data(3, b"def", fin=True)
        assert r.read_available() == b""
        r.on_data(0, b"abc", fin=False)
        assert r.read_available() == b"abcdef"
        assert r.is_complete
        assert r.fully_read

    def test_duplicate_data_ignored(self):
        """Re-injection produces duplicates; they must be harmless."""
        r = ReceiveStream(0)
        r.on_data(0, b"abc", fin=False)
        r.on_data(0, b"abc", fin=False)
        assert r.read_available() == b"abc"
        r.on_data(1, b"bc", fin=False)
        assert r.read_available() == b""

    def test_partial_overlap_deduplicated(self):
        r = ReceiveStream(0)
        r.on_data(0, b"abcd", fin=False)
        r.on_data(2, b"cdef", fin=False)
        assert r.read_available() == b"abcdef"

    def test_overlap_spanning_hole(self):
        r = ReceiveStream(0)
        r.on_data(0, b"ab", fin=False)
        r.on_data(4, b"ef", fin=False)
        r.on_data(0, b"abcdef", fin=False)
        assert r.read_available() == b"abcdef"

    def test_conflicting_final_size_rejected(self):
        r = ReceiveStream(0)
        r.on_data(0, b"abc", fin=True)
        with pytest.raises(FinalSizeError):
            r.on_data(0, b"abcd", fin=True)

    def test_data_beyond_final_size_rejected(self):
        r = ReceiveStream(0)
        r.on_data(0, b"abc", fin=True)
        with pytest.raises(FinalSizeError):
            r.on_data(3, b"x", fin=False)

    def test_is_complete_needs_all_bytes(self):
        r = ReceiveStream(0)
        r.on_data(4, b"ef", fin=True)
        assert not r.is_complete
        r.on_data(0, b"abcd", fin=False)
        assert r.is_complete

    @given(st.permutations(list(range(10))))
    @settings(max_examples=50)
    def test_any_arrival_order_reassembles(self, order):
        """Property: arrival order never changes the reassembled bytes."""
        payload = bytes(range(100, 110))
        r = ReceiveStream(0)
        for i in order:
            r.on_data(i, payload[i:i + 1], fin=(i == 9))
        assert r.read_available() == payload
        assert r.is_complete


class TestRangeSet:
    def test_add_and_covers(self):
        rs = _RangeSet()
        rs.add(0, 10)
        assert rs.covers(0, 10)
        assert rs.covers(3, 7)
        assert not rs.covers(5, 15)

    def test_merge_adjacent(self):
        rs = _RangeSet()
        rs.add(0, 5)
        rs.add(5, 10)
        assert rs.covers(0, 10)
        assert len(rs) == 1

    def test_merge_overlapping(self):
        rs = _RangeSet()
        rs.add(0, 6)
        rs.add(4, 10)
        assert rs.covers(0, 10)
        assert len(rs) == 1

    def test_disjoint_ranges(self):
        rs = _RangeSet()
        rs.add(0, 3)
        rs.add(7, 9)
        assert len(rs) == 2
        assert not rs.covers(0, 9)

    def test_missing_within(self):
        rs = _RangeSet()
        rs.add(2, 4)
        rs.add(6, 8)
        assert rs.missing_within(0, 10) == [(0, 2), (4, 6), (8, 10)]

    def test_missing_within_fully_covered(self):
        rs = _RangeSet()
        rs.add(0, 10)
        assert rs.missing_within(2, 8) == []

    def test_missing_within_empty_set(self):
        rs = _RangeSet()
        assert rs.missing_within(3, 7) == [(3, 7)]

    def test_empty_add_ignored(self):
        rs = _RangeSet()
        rs.add(5, 5)
        assert len(rs) == 0

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                    max_size=30))
    @settings(max_examples=100)
    def test_rangeset_matches_reference_set(self, pairs):
        """Property: the range set equals a brute-force set of ints."""
        rs = _RangeSet()
        reference = set()
        for a, b in pairs:
            start, end = min(a, b), max(a, b)
            rs.add(start, end)
            reference.update(range(start, end))
        missing = {i for start, end in rs.missing_within(0, 101)
                   for i in range(start, end)}
        assert set(range(101)) - missing == reference
        for start in range(0, 100, 13):
            end = start + 9
            covered = all(i in reference for i in range(start, end))
            assert rs.covers(start, end) == covered
