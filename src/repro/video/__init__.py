"""Video substrate: media model, player, QoE pipeline, media server.

Mirrors the paper's client pipeline (Fig. 5): a MediaCacheService
requests video chunks via HTTP range requests over QUIC streams; the
Source Pipe / Decoder account for cached frames and bytes; TNET
delivers those QoE signals to the transport.  The server side is the
CDN edge serving chunk ranges.
"""

from repro.video.media import Video, VideoChunk, make_video
from repro.video.player import (PlayerConfig, PlayerStats, RebufferEvent,
                                VideoPlayer)
from repro.video.http import (RangeRequest, RangeResponse, RangeResponseMeta,
                              parse_request)
from repro.video.server import MediaServer

__all__ = [
    "Video",
    "VideoChunk",
    "make_video",
    "PlayerConfig",
    "PlayerStats",
    "RebufferEvent",
    "VideoPlayer",
    "RangeRequest",
    "RangeResponse",
    "RangeResponseMeta",
    "parse_request",
    "MediaServer",
]
