"""Percentile computation and the P50/P90/P99 summaries the paper reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import TelemetryError
from repro.summation import left_sum


def format_relative_change(change: float, precision: int = 1) -> str:
    """Render a fractional change as a signed percentage.

    Infinite changes (a statistic appearing against a zero baseline, see
    :meth:`PercentileSummary.relative_change`) render as ``+inf``/``-inf``
    rather than the unreadable ``+inf%`` that ``format(inf, '+.1%')``
    produces. An undefined change (either operand was NaN) renders as a
    bare ``nan`` rather than the pseudo-signed ``+nan%`` of
    ``format(nan, '+.1%')``.
    """
    if math.isnan(change):
        return "nan"
    if change == float("inf"):
        return "+inf"
    if change == float("-inf"):
        return "-inf"
    return format(change, f"+.{precision}%")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Matches ``numpy.percentile``'s default method but avoids pulling numpy
    into hot simulator paths for tiny inputs.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        raise TelemetryError("cannot take a percentile of no observations")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    # The a + (b - a) * f form is exact when a == b, so the result can
    # never round outside [min, max].
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass(frozen=True)
class PercentileSummary:
    """Mean plus the standard fleet percentiles of a set of observations.

    The evaluation reports averages, P50/P90/P99, and peaks for both memory
    latency (Figure 17) and socket bandwidth (Figure 18, Table 1); this is
    the container for those rows.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    peak: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "PercentileSummary":
        """Build a summary from raw observations."""
        if not values:
            raise TelemetryError("cannot summarize zero observations")
        return cls(
            count=len(values),
            mean=left_sum(values) / len(values),
            p50=percentile(values, 50.0),
            p90=percentile(values, 90.0),
            p99=percentile(values, 99.0),
            peak=max(values),
        )

    def relative_change(self, baseline: "PercentileSummary") -> Dict[str, float]:
        """Fractional change of each statistic versus ``baseline``.

        A value of ``-0.15`` means this summary is 15% below the baseline —
        the form in which the paper quotes its reductions. A zero baseline
        with a nonzero new value is an unbounded change and is reported as
        signed infinity (previously it was silently reported as 0.0,
        masking e.g. a latency stat appearing where the baseline had
        none); zero-to-zero is genuinely "no change" and stays 0.0. A NaN
        in either operand makes the change undefined and is reported as
        NaN — notably, a NaN statistic against a zero baseline used to
        fall through ``new > 0.0`` (False for NaN) and masquerade as
        ``-inf``. Use :func:`format_relative_change` to render these
        values.
        """
        def change(new: float, old: float) -> float:
            """Fractional change of one statistic."""
            if math.isnan(new) or math.isnan(old):
                return float("nan")
            if old == 0.0:
                if new == 0.0:
                    return 0.0
                return float("inf") if new > 0.0 else float("-inf")
            return (new - old) / old

        return {
            "mean": change(self.mean, baseline.mean),
            "p50": change(self.p50, baseline.p50),
            "p90": change(self.p90, baseline.p90),
            "p99": change(self.p99, baseline.p99),
            "peak": change(self.peak, baseline.peak),
        }
