"""Load tests: validating prefetch candidates on realistic mixed traffic.

"Then we select the best performing parameters for load testing to
determine performance improvements." (Section 4.2.) The load test runs
the fleet-representative mix — not an isolated kernel — through the
simulator under heavy background load, with the candidate descriptor
injected, and reports the end-to-end speedup. Microbenchmark winners that
rely on overshoot or cache pollution fail here.
"""

from __future__ import annotations

from typing import Optional

from repro.core.soft.descriptor import PrefetchDescriptor
from repro.core.soft.injector import SoftwarePrefetchInjector
from repro.errors import ConfigError
from repro.memsys.config import HierarchyConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.prefetchers.bank import PrefetcherBank
from repro.workloads.memo import memoized_fleet_mix


class FleetMixLoadTest:
    """End-to-end validation of a prefetch descriptor on mixed traffic.

    Hardware prefetchers are disabled: a Soft Limoncello candidate must
    prove itself in the regime it will actually run in (Hard Limoncello
    has turned the hardware off because bandwidth is scarce).

    Args:
        background_utilization: Co-tenant load, fraction of saturation.
        scale: Trace volume multiplier.
        seed: Workload randomness.
    """

    def __init__(self, background_utilization: float = 0.7,
                 scale: float = 1.0, seed: int = 23,
                 config: Optional[HierarchyConfig] = None) -> None:
        if not 0.0 <= background_utilization < 1.5:
            raise ConfigError("background utilization out of range")
        if scale <= 0:
            raise ConfigError("scale must be positive")
        self.background_utilization = background_utilization
        self.scale = scale
        self.seed = seed
        self.config = config or HierarchyConfig()

    def _trace(self):
        # Memoized: every descriptor evaluation replays the same mix, so
        # it is generated and compiled once per (seed, scale).
        return memoized_fleet_mix(self.seed, self.scale)

    def _run(self, descriptor: Optional[PrefetchDescriptor]) -> float:
        trace = self._trace()
        if descriptor is not None:
            trace = SoftwarePrefetchInjector([descriptor]).inject(trace)
        background = (self.background_utilization
                      * self.config.dram.saturation_bandwidth)
        hierarchy = MemoryHierarchy(
            config=self.config, prefetchers=PrefetcherBank([]),
            external_load=background)
        return hierarchy.run(trace).elapsed_ns

    def speedup(self, descriptor: PrefetchDescriptor) -> float:
        """Fractional end-to-end speedup versus no software prefetching."""
        baseline = self._run(None)
        candidate = self._run(descriptor)
        if candidate <= 0:
            return 0.0
        return baseline / candidate - 1.0
