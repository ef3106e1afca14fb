"""The memcpy microbenchmark — Figure 15's measurement harness.

Each run executes a batch of equal-size memcpy calls (fresh, cold buffers)
through the cycle-level simulator, optionally with software prefetches
injected per a :class:`~repro.core.PrefetchDescriptor`, optionally with
hardware prefetchers enabled, and always under a configurable background
memory load (prefetch waste only costs anything when bandwidth is
contended — benchmarking "under load", Section 4.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.access.address import AddressSpace
from repro.access.trace import Trace
from repro.core.soft.descriptor import PrefetchDescriptor
from repro.core.soft.injector import SoftwarePrefetchInjector
from repro.errors import ConfigError
from repro.memsys.config import HierarchyConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.prefetchers.bank import PrefetcherBank, default_prefetcher_bank
from repro.summation import left_sum
from repro.units import KB
from repro.workloads.tax import memcpy_call_trace

#: The x-axis of Figures 15a/15b: 0.25 KB to 1000 KB.
PAPER_SIZES: Tuple[int, ...] = (
    256, 1 * KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB, 1000 * KB)


@dataclass(frozen=True)
class MicrobenchResult:
    """Elapsed time per memcpy size for one configuration."""

    label: str
    #: size (bytes) -> simulated ns for the whole batch at that size.
    elapsed_by_size: Dict[int, float]

    def speedup_over(self, baseline: "MicrobenchResult") -> Dict[int, float]:
        """Fractional speedup per size vs ``baseline`` (+0.10 = 10% faster)."""
        speedups = {}
        for size, elapsed in self.elapsed_by_size.items():
            base = baseline.elapsed_by_size.get(size)
            if base is None or elapsed <= 0:
                continue
            speedups[size] = base / elapsed - 1.0
        return speedups


class MemcpyMicrobenchmark:
    """Size-swept memcpy kernel under background load.

    Args:
        sizes: Copy sizes to sweep.
        bytes_per_point: Total bytes copied per size point (split into as
            many calls as fit, at least one), keeping run cost flat across
            sizes.
        background_utilization: Co-tenant bandwidth load as a fraction of
            saturation. Prefetch waste is only punished under load.
        hardware_prefetchers: Whether the hardware prefetchers run.
        seed: Buffer placement randomness (deterministic per instance).
    """

    def __init__(self, sizes: Sequence[int] = PAPER_SIZES,
                 bytes_per_point: int = 256 * KB,
                 background_utilization: float = 0.6,
                 hardware_prefetchers: bool = False,
                 config: Optional[HierarchyConfig] = None,
                 seed: int = 0) -> None:
        if not sizes or any(size <= 0 for size in sizes):
            raise ConfigError("sizes must be positive")
        if bytes_per_point <= 0:
            raise ConfigError("bytes_per_point must be positive")
        if not 0.0 <= background_utilization < 1.5:
            raise ConfigError("background utilization out of range")
        self.sizes = tuple(sizes)
        self.bytes_per_point = bytes_per_point
        self.background_utilization = background_utilization
        self.hardware_prefetchers = hardware_prefetchers
        self.config = config or HierarchyConfig()
        self.seed = seed
        # Generation is deterministic per (size, bytes_per_point, seed), so
        # every configuration of a sweep shares one base trace per size and
        # re-injects it columnar-ly; the cache holds the compiled columns.
        self._trace_cache: Dict[int, Trace] = {}
        #: size -> elapsed ns of the un-injected base trace on this
        #: instance's hierarchy (it depends on the hardware prefetchers,
        #: so unlike the trace cache it is never shared between benches).
        self._base_elapsed: Dict[int, float] = {}
        self._baseline_result: Optional[MicrobenchResult] = None

    # --- trace construction -------------------------------------------------

    def _batch_trace(self, size: int) -> Trace:
        trace = self._trace_cache.get(size)
        if trace is None:
            calls = max(1, self.bytes_per_point // size)
            space = AddressSpace(base=AddressSpace.BASE
                                 + (self.seed % 97) * (1 << 32))
            trace = self._trace_cache[size] = memcpy_call_trace(
                space, [size] * calls)
        return trace

    def _hierarchy(self) -> MemoryHierarchy:
        background = (self.background_utilization
                      * self.config.dram.saturation_bandwidth)
        bank = (default_prefetcher_bank() if self.hardware_prefetchers
                else PrefetcherBank([]))
        return MemoryHierarchy(
            config=self.config, prefetchers=bank,
            external_load=background)

    # --- measurement ------------------------------------------------------------

    def run(self, descriptor: Optional[PrefetchDescriptor] = None,
            label: Optional[str] = None) -> MicrobenchResult:
        """Measure the sweep for one configuration.

        A size point where injection inserts nothing (every stream under
        the descriptor's size gate) replays the base trace unchanged, so
        it reuses the base trace's elapsed time, which ``run(None)``
        records per size, instead of simulating it again.
        """
        injector = (SoftwarePrefetchInjector([descriptor])
                    if descriptor is not None else None)
        elapsed: Dict[int, float] = {}
        for size in self.sizes:
            trace = self._batch_trace(size)
            if injector is not None:
                trace = injector.inject(trace)
                if (not injector.last_stats.prefetches_inserted
                        and size in self._base_elapsed):
                    elapsed[size] = self._base_elapsed[size]
                    continue
            elapsed[size] = self._hierarchy().run(trace).elapsed_ns
            if injector is None:
                self._base_elapsed[size] = elapsed[size]
        if label is None:
            label = descriptor.label() if descriptor else "baseline"
        return MicrobenchResult(label=label, elapsed_by_size=elapsed)

    def speedup(self, descriptor: PrefetchDescriptor) -> Dict[int, float]:
        """Per-size speedup of ``descriptor`` over no software prefetch.

        The baseline (no software prefetch) depends only on the bench
        configuration, so a descriptor sweep — the tuner, Figure 13's
        distance/degree grid — measures it once and reuses the result.
        """
        if self._baseline_result is None:
            self._baseline_result = self.run(None)
        return self.run(descriptor).speedup_over(self._baseline_result)

    def mean_speedup(self, descriptor: PrefetchDescriptor) -> float:
        """Average speedup across the size sweep — the tuner's objective."""
        speedups = self.speedup(descriptor)
        if not speedups:
            return 0.0
        return left_sum(speedups.values()) / len(speedups)

    # --- Figure 15c: the four prefetcher states --------------------------------------

    def prefetcher_state_comparison(
            self, descriptor: PrefetchDescriptor) -> Dict[str, float]:
        """Mean speedup of each (HW, SW) state relative to (+HW, -SW).

        Reproduces Figure 15c's bars: ``-HW,-SW``, ``-HW,+SW``,
        ``+HW,+SW`` (the reference ``+HW,-SW`` is 0 by construction).
        """
        def mean_elapsed(hw: bool, sw: Optional[PrefetchDescriptor]):
            """Total simulated ns across the size sweep for one state."""
            bench = MemcpyMicrobenchmark(
                sizes=self.sizes, bytes_per_point=self.bytes_per_point,
                background_utilization=self.background_utilization,
                hardware_prefetchers=hw, config=self.config, seed=self.seed)
            # The base traces are hardware-state independent: all four
            # prefetcher states replay this instance's cached columns.
            bench._trace_cache = self._trace_cache
            result = bench.run(sw)
            return left_sum(result.elapsed_by_size.values())

        reference = mean_elapsed(True, None)
        return {
            "-HW,-SW": reference / mean_elapsed(False, None) - 1.0,
            "-HW,+SW": reference / mean_elapsed(False, descriptor) - 1.0,
            "+HW,+SW": reference / mean_elapsed(True, descriptor) - 1.0,
        }
