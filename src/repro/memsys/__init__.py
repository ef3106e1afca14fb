"""Trace-driven memory-system timing simulator.

This package is the stand-in for the real hardware the paper runs on: a
three-level set-associative cache hierarchy with hardware prefetchers at
L1 and L2, backed by a DRAM model whose load-to-use latency grows with
bandwidth utilization (the queuing behaviour behind the paper's Figure 1).

The public entry point is :class:`MemoryHierarchy`: feed it a
:class:`repro.access.Trace` and it returns a :class:`RunResult` with
per-function cycles, MPKI, and DRAM traffic — the quantities every
experiment in the paper is expressed in.
"""

from repro.memsys.config import CacheConfig, DRAMConfig, HierarchyConfig
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.dram import DRAMModel
from repro.memsys.stats import FunctionStats, RunResult
from repro.memsys.hierarchy import MemoryHierarchy, run_many
from repro.memsys.prefetchers import (
    HardwarePrefetcher,
    NextLinePrefetcher,
    StridePrefetcher,
    StreamPrefetcher,
    PrefetcherBank,
    default_prefetcher_bank,
)

__all__ = [
    "CacheConfig",
    "DRAMConfig",
    "HierarchyConfig",
    "SetAssociativeCache",
    "DRAMModel",
    "FunctionStats",
    "RunResult",
    "MemoryHierarchy",
    "run_many",
    "HardwarePrefetcher",
    "NextLinePrefetcher",
    "StridePrefetcher",
    "StreamPrefetcher",
    "PrefetcherBank",
    "default_prefetcher_bank",
]
