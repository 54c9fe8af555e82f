"""ASCII reporting for benchmark output.

The benchmark files print the same rows/series the paper reports; these
helpers keep the formatting consistent, and ``PAPER_TABLE1`` records the
published numbers so speedup *shapes* can be compared side by side in
EXPERIMENTS.md.
"""

from __future__ import annotations

__all__ = ["format_table", "format_breakdown", "PAPER_TABLE1", "speedup"]


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width table with right-aligned numeric columns."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) if _numericish(cell) else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:.0f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def _numericish(cell: str) -> bool:
    return bool(cell) and (cell[0].isdigit() or cell[0] in "-+.")


def format_breakdown(stats) -> str:
    """One Fig. 10-style row: percentage split of query time."""
    total = max(stats.total_seconds, 1e-12)
    return (
        f"filter {100 * stats.filter_seconds / total:5.1f}%  "
        f"decode {100 * stats.decode_seconds / total:5.1f}%  "
        f"compute {100 * stats.compute_seconds / total:5.1f}%  "
        f"other {100 * stats.other_seconds / total:5.1f}%"
    )


def speedup(baseline: float, improved: float) -> float:
    """Baseline-over-improved ratio (>1 means improvement)."""
    return baseline / improved if improved > 0 else float("inf")


# Table 1 of the paper (seconds), for shape comparison in EXPERIMENTS.md.
# Keyed by (test_id, paradigm, accel-label); N/A cells omitted, and so
# are the GPU columns (G, P+G), which have no switch in this engine, and
# the AABB-tree column (A), whose evaluator is now a test oracle.
PAPER_TABLE1 = {
    ("INT-NN", "fr", "B"): 356.0,
    ("INT-NN", "fr", "P"): 335.7,
    ("INT-NN", "fpr", "B"): 84.8,
    ("INT-NN", "fpr", "P"): 86.4,
    ("WN-NN", "fr", "B"): 2253.7,
    ("WN-NN", "fr", "P"): 2249.0,
    ("WN-NN", "fpr", "B"): 108.2,
    ("WN-NN", "fpr", "P"): 108.5,
    ("WN-NV", "fr", "B"): 25056.8,
    ("WN-NV", "fr", "P"): 645.1,
    ("WN-NV", "fpr", "B"): 8458.8,
    ("WN-NV", "fpr", "P"): 1116.1,
    ("NN-NN", "fr", "B"): 2264.0,
    ("NN-NN", "fr", "P"): 2268.9,
    ("NN-NN", "fpr", "B"): 893.8,
    ("NN-NN", "fpr", "P"): 893.1,
    ("NN-NV", "fr", "B"): 151630.0,
    ("NN-NV", "fr", "P"): 1649.8,
    ("NN-NV", "fpr", "B"): 24968.1,
    ("NN-NV", "fpr", "P"): 422.2,
}
