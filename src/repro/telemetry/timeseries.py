"""Append-only time series with basic aggregation."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError
from repro.summation import left_sum


@dataclass(frozen=True)
class TimePoint:
    """One timestamped observation."""

    time_ns: float
    value: float


class TimeSeries:
    """An append-only series of (time, value) observations.

    Timestamps must be non-decreasing; the series supports range queries,
    resampling to fixed intervals, and summary statistics. This backs both
    the controller's bandwidth history and the evaluation's fleet metrics.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time_ns: float, value: float) -> None:
        """Record an observation; ``time_ns`` must not move backwards."""
        if self._times and time_ns < self._times[-1]:
            raise TelemetryError(
                f"time series {self.name!r}: timestamp {time_ns} precedes "
                f"last timestamp {self._times[-1]}")
        self._times.append(time_ns)
        self._values.append(value)

    def extend(self, points: Sequence[Tuple[float, float]]) -> None:
        """Append many (time, value) observations."""
        for time_ns, value in points:
            self.append(time_ns, value)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TimePoint]:
        return (TimePoint(t, v) for t, v in zip(self._times, self._values))

    @property
    def times(self) -> Sequence[float]:
        """All timestamps, in order."""
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        """All values, in order."""
        return tuple(self._values)

    def last(self) -> TimePoint:
        """The most recent observation."""
        if not self._times:
            raise TelemetryError(f"time series {self.name!r} is empty")
        return TimePoint(self._times[-1], self._values[-1])

    def between(self, start_ns: float, end_ns: float) -> "TimeSeries":
        """Observations with ``start_ns <= time < end_ns``."""
        lo = bisect.bisect_left(self._times, start_ns)
        hi = bisect.bisect_left(self._times, end_ns)
        out = TimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        if not self._values:
            raise TelemetryError(f"time series {self.name!r} is empty")
        return left_sum(self._values) / len(self._values)

    def maximum(self) -> float:
        """Largest value."""
        if not self._values:
            raise TelemetryError(f"time series {self.name!r} is empty")
        return max(self._values)

    def minimum(self) -> float:
        """Smallest value."""
        if not self._values:
            raise TelemetryError(f"time series {self.name!r} is empty")
        return min(self._values)

    def resample(self, interval_ns: float) -> "TimeSeries":
        """Average observations into fixed ``interval_ns`` buckets.

        Bucket timestamps are the bucket start times, anchored at the first
        observation. Empty buckets are skipped.
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        out = TimeSeries(self.name)
        if not self._times:
            return out
        anchor = self._times[0]
        bucket_index: Optional[int] = None
        bucket_sum = 0.0
        bucket_count = 0
        for time_ns, value in zip(self._times, self._values):
            index = int((time_ns - anchor) // interval_ns)
            if bucket_index is None:
                bucket_index = index
            if index != bucket_index:
                out.append(anchor + bucket_index * interval_ns,
                           bucket_sum / bucket_count)
                bucket_index = index
                bucket_sum = 0.0
                bucket_count = 0
            bucket_sum += value
            bucket_count += 1
        if bucket_count:
            out.append(anchor + bucket_index * interval_ns,
                       bucket_sum / bucket_count)
        return out
