"""Configuration dataclasses for the memory-system simulator.

Defaults approximate one socket's share of a recent x86 server: a 2.5 GHz
core with 32 KiB L1D, 1 MiB L2, an 8 MiB LLC slice, and roughly 3 GB/s of
qualified DRAM bandwidth per core (the paper's Section 2.1 quotes ~3 GB/s
per core for its two platforms). The simulator models one core's trace
against its bandwidth share; co-located traffic on the socket is the
DRAM model's constant ``external_load`` (bytes/ns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import CACHE_LINE_BYTES, KB, MB


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    hit_latency_cycles: int
    line_bytes: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigError(f"cache {self.name}: size and associativity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"cache {self.name}: line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError(
                f"cache {self.name}: size {self.size_bytes} is not divisible by "
                f"associativity*line ({self.associativity}*{self.line_bytes})")
        if self.hit_latency_cycles < 0:
            raise ConfigError(f"cache {self.name}: negative hit latency")

    @property
    def num_sets(self) -> int:
        """Number of cache sets implied by the geometry."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class DRAMConfig:
    """Parameters of the DRAM queuing-latency model.

    ``unloaded_latency_ns`` is the load-to-use latency of an isolated miss;
    the loaded latency follows the queuing curve

        latency(u) = unloaded * (1 + queue_gain * u**queue_exponent / (1 - min(u, max_utilization)))

    which rises slowly at low utilization and bends sharply near
    saturation, matching the measured MLC curve in Figure 1.
    """

    #: Qualified saturation bandwidth available to this core, bytes/ns.
    saturation_bandwidth: float = 3.0
    unloaded_latency_ns: float = 90.0
    #: Tuned to Figure 1's measured MLC curve: ~1.3x at 60% utilization,
    #: ~2x at 80%, ~3.4x at 90%, ~4x at full load (with overload growth).
    queue_gain: float = 0.30
    queue_exponent: float = 2.0
    #: Utilization is clamped below 1.0 so the curve stays finite.
    max_utilization: float = 0.90
    #: Above ``max_utilization`` the latency grows linearly with the excess,
    #: modelling a saturated controller pushing back on new requests.
    overload_gain: float = 2.0
    #: Span of the sliding window used to measure achieved bandwidth, ns.
    window_ns: float = 20_000.0

    def __post_init__(self) -> None:
        if self.saturation_bandwidth <= 0:
            raise ConfigError("saturation bandwidth must be positive")
        if self.unloaded_latency_ns <= 0:
            raise ConfigError("unloaded latency must be positive")
        if not 0.0 < self.max_utilization < 1.0:
            raise ConfigError("max_utilization must be in (0, 1)")
        if self.window_ns <= 0:
            raise ConfigError("bandwidth window must be positive")
        if self.queue_gain < 0 or self.queue_exponent <= 0:
            raise ConfigError("queue curve parameters must be positive")
        if self.overload_gain < 0:
            raise ConfigError("overload gain cannot be negative")


@dataclass(frozen=True)
class HierarchyConfig:
    """Full configuration of the simulated core + memory hierarchy."""

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1D", size_bytes=32 * KB, associativity=8, hit_latency_cycles=4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", size_bytes=1 * MB, associativity=16, hit_latency_cycles=14))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        "LLC", size_bytes=8 * MB, associativity=16, hit_latency_cycles=42))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Core clock period. 0.4 ns == 2.5 GHz.
    cycle_ns: float = 0.4
    #: Issue cost of one software-prefetch instruction, cycles.
    software_prefetch_cost_cycles: int = 1
    #: Stores drain through a write buffer, so the core only sees this
    #: fraction of a store miss's latency as back-pressure.
    store_stall_fraction: float = 0.3
    #: Out-of-order cores overlap misses to consecutive lines (memory-level
    #: parallelism); a demand miss adjacent to the previous demand miss
    #: stalls for only 1/sequential_mlp of the DRAM latency.
    sequential_mlp: float = 4.0

    def __post_init__(self) -> None:
        if self.cycle_ns <= 0:
            raise ConfigError("cycle time must be positive")
        if self.software_prefetch_cost_cycles < 0:
            raise ConfigError("software prefetch cost cannot be negative")
        if not 0.0 <= self.store_stall_fraction <= 1.0:
            raise ConfigError("store_stall_fraction must be in [0, 1]")
        if self.sequential_mlp < 1.0:
            raise ConfigError("sequential_mlp must be at least 1")
        if not (self.l1.size_bytes <= self.l2.size_bytes <= self.llc.size_bytes):
            raise ConfigError("cache sizes must be non-decreasing up the hierarchy")
