"""Measurement instruments for simulations.

These are the primitives the experiment harness uses to produce the series
behind every figure: time series of throughput and moves, latency
percentiles, and per-window busy fractions (the "CPU load" of a simulated
process, used for the oracle-load experiment).
"""

from __future__ import annotations

import bisect
import math
from typing import Optional


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample. Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"non-monotonic sample at t={time} (last t={self.times[-1]})")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def last(self) -> Optional[float]:
        """Most recent value, or None when empty."""
        return self.values[-1] if self.values else None

    def window_sum(self, start: float, end: float) -> float:
        """Sum of values with ``start <= time < end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return sum(self.values[lo:hi])

    def bucketed_rate(self, bucket: float,
                      end: Optional[float] = None) -> "TimeSeries":
        """Events-per-time-unit series using fixed-width buckets.

        Each sample's *value* is treated as a count occurring at its time;
        the result has one sample per bucket at the bucket's end time.
        """
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        out = TimeSeries(f"{self.name}/rate")
        if not self.times:
            return out
        horizon = end if end is not None else self.times[-1]
        edge = bucket
        while edge <= horizon + 1e-9:
            out.record(edge, self.window_sum(edge - bucket, edge) / bucket)
            edge += bucket
        return out


class Counter:
    """A monotonically increasing named counter with an event log."""

    def __init__(self, name: str = ""):
        self.name = name
        self.total = 0
        self.events = TimeSeries(name)

    def increment(self, time: float, amount: int = 1) -> None:
        self.total += amount
        self.events.record(time, amount)


def nearest_rank(samples: list, p: float) -> float:
    """p-th percentile (0..100) of ``samples``, nearest-rank; NaN when
    empty."""
    if not samples:
        return math.nan
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class LatencyRecorder:
    """Collects latency samples and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[float] = []
        self.completions = TimeSeries(f"{name}/completions")

    def record(self, completion_time: float, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.samples.append(latency)
        self.completions.record(completion_time, latency)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        """Mean latency; NaN when no samples were recorded."""
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        return nearest_rank(self.samples, p)

    def windowed_mean(self, bucket: float,
                      end: Optional[float] = None) -> TimeSeries:
        """Mean latency per time bucket (for latency-over-time plots)."""
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        out = TimeSeries(f"{self.name}/windowed-mean")
        times = self.completions.times
        values = self.completions.values
        if not times:
            return out
        horizon = end if end is not None else times[-1]
        edge = bucket
        while edge <= horizon + 1e-9:
            lo = bisect.bisect_left(times, edge - bucket)
            hi = bisect.bisect_left(times, edge)
            window = values[lo:hi]
            out.record(edge, sum(window) / len(window) if window else math.nan)
            edge += bucket
        return out


class BusyTracker:
    """Tracks the busy fraction of a simulated process.

    Protocol code brackets work with :meth:`begin` / :meth:`end`; the
    tracker then reports the fraction of each time window spent busy, which
    is the simulated analogue of CPU load.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.intervals: list[tuple[float, float]] = []
        self._busy_since: Optional[float] = None

    def begin(self, time: float) -> None:
        if self._busy_since is not None:
            raise ValueError("begin() while already busy")
        self._busy_since = time

    def end(self, time: float) -> None:
        if self._busy_since is None:
            raise ValueError("end() while not busy")
        if time < self._busy_since:
            raise ValueError("end() before begin()")
        self.intervals.append((self._busy_since, time))
        self._busy_since = None

    def add_busy(self, start: float, duration: float) -> None:
        """Record a closed busy interval directly."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.intervals.append((start, start + duration))

    def total_busy(self) -> float:
        return sum(end - start for start, end in self.intervals)

    def busy_fraction(self, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` covered by busy intervals."""
        if end <= start:
            raise ValueError("empty window")
        busy = 0.0
        for b0, b1 in self.intervals:
            lo = max(b0, start)
            hi = min(b1, end)
            if hi > lo:
                busy += hi - lo
        return busy / (end - start)

    def load_series(self, bucket: float, end: float) -> TimeSeries:
        """Busy fraction per fixed-width window over ``[0, end)``."""
        out = TimeSeries(f"{self.name}/load")
        edge = bucket
        while edge <= end + 1e-9:
            out.record(edge, self.busy_fraction(edge - bucket, edge))
            edge += bucket
        return out
