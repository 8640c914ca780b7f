"""Fig. 7: first-video-frame delivery time vs primary path choice.

Sweeps first-frame sizes from 128 KB to 2 MB and starts the multipath
connection from either the Wi-Fi or the 5G SA interface.  The paper's
shape: the 5G primary delivers the first frame faster (its path delay
is much lower), and the influence of primary selection is significant
-- which motivates wireless-aware primary path selection (Sec. 5.3).
"""

from figures.conftest import print_table
from repro.experiments.pathexp import FIG7_FRAME_SIZES, run_fig7


def test_fig7_primary_path():
    sweep = run_fig7(frame_sizes=FIG7_FRAME_SIZES)

    rows = []
    for (size, wifi_t), (_s, nr_t) in zip(sweep["wifi"], sweep["5g"]):
        label = f"{size // 1024}K" if size < 1024 ** 2 \
            else f"{size // 1024 ** 2}M"
        rows.append([label, f"{wifi_t * 1000:.0f}", f"{nr_t * 1000:.0f}"])
    print_table("Fig. 7: first-frame delivery time (ms)",
                ["frame size", "WiFi primary", "5G primary"], rows)

    # Shape: the 5G-SA primary wins at small/medium first frames where
    # the handshake + first-RTT dominates.
    for (size, wifi_t), (_s, nr_t) in zip(sweep["wifi"][:3],
                                          sweep["5g"][:3]):
        assert nr_t < wifi_t, f"5G primary should win at {size} bytes"

    # Latency grows with the first-frame size for both primaries.
    wifi_times = [t for _s, t in sweep["wifi"]]
    nr_times = [t for _s, t in sweep["5g"]]
    assert wifi_times == sorted(wifi_times)
    assert nr_times == sorted(nr_times)
