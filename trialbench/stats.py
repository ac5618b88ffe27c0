"""Metric arithmetic: percentiles with their sample count, span self time
and failure fractions.

Everything here is a pure function of plain numbers and span records, so
the tests can pin the arithmetic without running a campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the sample it was taken from."""

    pct: float
    value: float
    samples: int


def percentile(values: list[float], pct: float) -> Percentile:
    """The *pct*-th percentile (nearest rank) of *values*.

    Nearest rank returns a value that was actually observed, so a p50 over
    twelve trials is one trial's duration rather than an interpolation.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return Percentile(pct=pct, value=ordered[rank - 1], samples=len(ordered))


def tail_percentile(values: list[float], beyond: int = 10) -> Percentile:
    """The highest of p50/p90/p99/p99.9 with at least *beyond* samples above
    it; p50 when the sample is too small for any tail."""
    best = percentile(values, 50)
    for pct in (90, 99, 99.9):
        rank = math.ceil(pct / 100 * len(values))
        if len(values) - rank >= beyond:
            best = percentile(values, pct)
    return best


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of *interval* covered by the union of *children*.

    Children are clipped to the interval first, so a child span that
    started before its parent (clock skew between wrappers) or overlaps a
    sibling (a helper thread) is never counted twice.
    """
    lo, hi = interval
    clipped = sorted((max(lo, start), min(hi, end))
                     for start, end in children if end > lo and start < hi)
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its child spans (same process, ``parent`` pointing at it) cover.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered((span["start"], span["end"]), children.get(span["id"], []))
        for span in spans
    }


def failed_frac(attempted: int, failed: int, mismatches: int) -> float:
    """Failed trials plus correctness mismatches over attempted trials.

    A trial that ran but whose outcome disagrees with the reference counts
    the same as one that crashed.  The sum is capped at the attempts: a
    serve trial journaled twice is one attempt but can count twice.
    """
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    return min(attempted, failed + mismatches) / attempted

