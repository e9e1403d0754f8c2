"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

import numpy as np

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(statistics.median(values))


def tail_percentile(values, *, min_beyond: int = MIN_BEYOND, cap: int = 99) -> tuple[int, float, int]:
    """The highest whole percentile, at most ``cap``, with ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, n)``.  With 1,000 or more samples this is
    the 99th percentile; with 128 samples it is the 92nd.  Fewer than
    ``2 * min_beyond`` samples support no tail figure and raise ``ValueError``.
    """
    data = np.asarray(values, dtype=np.float64)
    n = int(data.size)
    if n < 2 * min_beyond:
        raise ValueError(f"{n} samples support no tail percentile (need {2 * min_beyond})")
    percentile = min(int(cap), 100 * (n - min_beyond) // n)
    return percentile, float(np.percentile(data, percentile)), n
