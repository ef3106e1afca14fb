"""Loaded-latency measurement — the Intel MLC stand-in (Figures 1 and 6).

MLC measures load-to-use latency with a pointer-chasing probe while a
configurable amount of background traffic loads the memory system. Here
the probe is a pointer-chase trace through the cycle-level simulator and
the background load enters as the DRAM model's constant
``external_load`` (bytes/ns). The prefetchers-on arm carries the
hardware prefetchers' traffic overhead on top of the same useful
bandwidth, which is exactly why its curve sits above the prefetchers-off
curve at high utilization — the 15% load-to-use gap of Figure 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.access.address import AddressSpace
from repro.errors import ConfigError
from repro.memsys.config import HierarchyConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.prefetchers.bank import PrefetcherBank, default_prefetcher_bank
from repro.units import MB
from repro.workloads.irregular import pointer_chase_trace

#: Fleet-average traffic overhead of enabled hardware prefetchers,
#: consistent with Table 1's 11-16% bandwidth reduction when disabled.
DEFAULT_OVERFETCH = 0.15


@dataclass(frozen=True)
class LatencyPoint:
    """One measurement: useful-bandwidth utilization -> loaded latency."""

    utilization: float
    latency_ns: float


@dataclass(frozen=True)
class LatencyCurve:
    """A measured load-to-use latency curve."""

    prefetchers_on: bool
    points: Sequence[LatencyPoint]

    def latency_at(self, utilization: float) -> float:
        """Latency at the nearest measured utilization."""
        if not self.points:
            raise ConfigError("empty latency curve")
        nearest = min(self.points,
                      key=lambda p: abs(p.utilization - utilization))
        return nearest.latency_ns

    @property
    def utilizations(self) -> List[float]:
        """The curve's measured utilization points (x-axis)."""
        return [p.utilization for p in self.points]

    @property
    def latencies(self) -> List[float]:
        """The curve's measured latencies in ns (y-axis)."""
        return [p.latency_ns for p in self.points]

    def reduction_versus(self, other: "LatencyCurve",
                         utilization: float) -> float:
        """Fractional latency change of this curve vs ``other`` at a point.

        ``curve_off.reduction_versus(curve_on, 0.9)`` ≈ -0.15 reproduces
        the paper's "disabling prefetchers reduces latency by 15%"."""
        base = other.latency_at(utilization)
        if base <= 0:
            return 0.0
        return self.latency_at(utilization) / base - 1.0


def measure_latency_curve(prefetchers_on: bool,
                          utilizations: Sequence[float] = tuple(
                              x / 20 for x in range(20)),
                          probe_hops: int = 600,
                          overfetch: float = DEFAULT_OVERFETCH,
                          config: Optional[HierarchyConfig] = None,
                          seed: int = 0) -> LatencyCurve:
    """Measure load-to-use latency across background utilizations.

    Args:
        prefetchers_on: Whether the background traffic carries hardware
            prefetch overhead (the probe itself is pointer-chasing, which
            no prefetcher covers).
        utilizations: Useful-bandwidth utilization points (x-axis).
        probe_hops: Pointer-chase length per point; more hops, less noise.
        overfetch: Traffic overhead factor applied to the background when
            prefetchers are on.
        config: Hierarchy configuration (defaults to the standard core).
        seed: Probe address randomness.
    """
    if probe_hops <= 0:
        raise ConfigError("probe_hops must be positive")
    if overfetch < 0:
        raise ConfigError("overfetch cannot be negative")
    config = config or HierarchyConfig()
    saturation = config.dram.saturation_bandwidth
    multiplier = (1.0 + overfetch) if prefetchers_on else 1.0

    # One probe shared by every point: generation is deterministic in
    # ``seed`` (the per-point regeneration always produced this exact
    # trace), each point runs it on a fresh hierarchy, and traces are
    # immutable — so hoisting also shares the compiled lowering. The
    # working set is far larger than the LLC so that every hop is a
    # demand DRAM access.
    probe = pointer_chase_trace(
        AddressSpace(), working_set_bytes=512 * MB, hops=probe_hops,
        rng=random.Random(seed), gap_cycles=4,
        function="latency_probe")

    points: List[LatencyPoint] = []
    for utilization in utilizations:
        if utilization < 0:
            raise ConfigError("utilization cannot be negative")
        background = utilization * multiplier * saturation
        bank = default_prefetcher_bank() if prefetchers_on \
            else PrefetcherBank([])
        hierarchy = MemoryHierarchy(
            config=config, prefetchers=bank,
            external_load=background)
        result = hierarchy.run(probe)
        points.append(LatencyPoint(
            utilization=utilization,
            latency_ns=result.total.average_load_to_use_ns,
        ))
    return LatencyCurve(prefetchers_on=prefetchers_on, points=tuple(points))


def limoncello_envelope(curve_on: LatencyCurve, curve_off: LatencyCurve,
                        upper_threshold: float = 0.8) -> LatencyCurve:
    """Figure 6: Limoncello rides the on-curve below the threshold (best
    cache hit rate) and the off-curve above it (best latency)."""
    if not curve_on.points or not curve_off.points:
        raise ConfigError("need non-empty curves")
    points = []
    for point in curve_on.points:
        if point.utilization <= upper_threshold:
            points.append(point)
        else:
            points.append(LatencyPoint(
                point.utilization,
                curve_off.latency_at(point.utilization)))
    return LatencyCurve(prefetchers_on=False, points=tuple(points))
