"""Arithmetic of the benchmark: timing records, percentiles, span self time
and the ratios reported per layer.  Pure functions on plain numbers, so the
tests in ``test_stats.py`` can feed them synthetic input."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(values, pct: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    # round first so that e.g. 100 * 10 / 11 percent of 11 samples is rank 10
    return ordered[max(1, math.ceil(round(pct * len(ordered) / 100, 9))) - 1]


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest nearest-rank percentile with at least ``min_beyond`` of the
    ``n`` samples strictly above it, or None when there are too few."""
    if n <= min_beyond:
        return None
    return 100.0 * (n - min_beyond) / n


def timing_record(values) -> dict:
    """Median, quartiles, sample count and the tail percentile of a list of
    timings (seconds)."""
    values = list(values)
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    record = {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "tail_pct": None,
        "tail": None,
    }
    pct = tail_percentile(len(values))
    if pct is not None:
        record["tail_pct"] = pct
        record["tail"] = nearest_rank(values, pct)
    return record


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0


def collapse_ratio(lp_cols: int, cols_full: int) -> float:
    """LP columns actually solved over the columns of the uncollapsed model."""
    return ratio(lp_cols, cols_full)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the durations of its
    direct children.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the enclosing span or None.  Spans come from one thread's
    call stack, so the children of a span never overlap each other.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def outermost(names, parents, name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name,
    so a layer that calls itself is not counted twice."""
    picked = []
    for i, n in enumerate(names):
        if n != name:
            continue
        p = parents[i]
        while p is not None and names[p] != name:
            p = parents[p]
        if p is None:
            picked.append(i)
    return picked
