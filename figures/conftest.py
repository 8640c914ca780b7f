"""Shared figure-test helpers.

Every figure test runs its experiment once (the experiments are
deterministic simulations), prints the paper-style table/series it
regenerates and asserts the *shape* of the result (who wins, direction
of change), not absolute numbers.
"""

from __future__ import annotations


def print_table(title: str, header: list, rows: list) -> None:
    """Render an aligned text table to stdout."""
    widths = [max(len(str(header[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
