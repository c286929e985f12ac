"""Reporting helpers: paper-figure-shaped tables on stdout.

Each experiment returns rows of numbers; these helpers print them as the
series the paper plots, aligned for reading and greppable for tooling.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "format_table",
    "print_figure",
    "print_cache_stats",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
                return f"{value:.3e}"
            return f"{value:.4f}"
        return str(value)

    cells = [list(map(str, headers))] + [[fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(cells[0], widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_figure(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Print one figure's data series with a banner."""
    banner = "=" * max(len(title), 8)
    print(banner)
    print(title)
    print(banner)
    print(format_table(headers, rows))


def print_cache_stats(stats: dict, label: str = "pdf-op cache") -> None:
    """One greppable line summarising pdf-op cache effectiveness."""
    print(
        f"{label}: hits={stats['hits']} misses={stats['misses']} "
        f"size={stats['size']} hit_rate={stats['hit_rate']:.3f}"
    )
    print()
