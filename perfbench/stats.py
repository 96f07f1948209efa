"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

TAIL_MIN_BEYOND = 10


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest nearest-rank percentile with ``min_beyond`` samples
    above it, as ``(value, percentile, sample_count)``.

    Returns None when that percentile would be the median or below, so
    a tail figure is never just the median under another name.
    """
    n = len(values)
    rank = n - min_beyond  # 1-based rank of the reported sample
    if rank < 1:
        return None
    percentile = 100.0 * rank / n
    if percentile <= 50.0:
        return None
    return sorted(values)[rank - 1], percentile, n
