"""Connection- and stream-level flow control.

Receivers advertise limits via MAX_DATA / MAX_STREAM_DATA; senders may
not exceed them.  Windows auto-update: when the consumed offset passes
half the window, the receiver bumps the limit by one window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quic.errors import FlowControlError


@dataclass(slots=True)
class FlowControlWindow:
    """One direction of a flow-control limit."""

    limit: int
    window: int

    @classmethod
    def with_window(cls, window: int) -> "FlowControlWindow":
        return cls(limit=window, window=window)

    # -- sender side -----------------------------------------------------

    def sendable(self, offset: int) -> int:
        """Bytes the sender may still send given the highest offset used."""
        room = self.limit - offset
        return room if room > 0 else 0

    def on_peer_update(self, new_limit: int) -> None:
        """Peer raised its advertised limit (MAX_DATA/MAX_STREAM_DATA)."""
        if new_limit > self.limit:
            self.limit = new_limit

    # -- receiver side -----------------------------------------------------

    def check_receive(self, end_offset: int) -> None:
        """Validate incoming data against our advertised limit."""
        if end_offset > self.limit:
            raise FlowControlError(
                f"peer exceeded flow control: {end_offset} > {self.limit}"
            )

    def maybe_advance(self, consumed_offset: int) -> int:
        """Advance the advertised limit when the consumer catches up.

        Returns the new limit if an update frame should be sent, else 0.
        """
        if self.limit - consumed_offset < self.window // 2:
            self.limit = consumed_offset + self.window
            return self.limit
        return 0
