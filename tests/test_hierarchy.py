"""Tests for the MemoryHierarchy timing simulator."""

import pytest

from repro.access import AccessKind, MemoryAccess, Trace
from repro.access.trace import software_prefetch
from repro.memsys import (
    MemoryHierarchy,
    PrefetcherBank,
)


def sequential_trace(lines, start=0x100000, gap=3, function="seq", pc=1):
    return Trace([
        MemoryAccess(address=start + i * 64, pc=pc, function=function,
                     gap_cycles=gap)
        for i in range(lines)
    ])


def no_prefetch_hierarchy(**kwargs):
    hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]), **kwargs)
    return hierarchy


class TestBasicTiming:
    def test_empty_trace(self):
        result = MemoryHierarchy().run(Trace())
        assert result.elapsed_ns == 0.0
        assert result.total.instructions == 0

    def test_l1_hit_costs_nothing_extra(self):
        hierarchy = no_prefetch_hierarchy()
        trace = Trace([MemoryAccess(address=0x1000)] * 3)
        result = hierarchy.run(trace)
        # First access misses to DRAM; the next two are free L1 hits.
        assert result.total.l1_misses == 1
        assert result.total.llc_misses == 1
        stats = result.total
        assert stats.stall_cycles == pytest.approx(
            (hierarchy.config.llc.hit_latency_cycles
             + hierarchy.config.dram.unloaded_latency_ns / hierarchy.config.cycle_ns),
            rel=0.01)

    def test_compute_gaps_advance_clock(self):
        hierarchy = no_prefetch_hierarchy()
        trace = Trace([MemoryAccess(address=0x1000, gap_cycles=100)])
        result = hierarchy.run(trace)
        assert result.total.compute_cycles == 101  # gap + the access itself
        assert result.total.instructions == 101

    def test_elapsed_tracks_clock(self):
        hierarchy = no_prefetch_hierarchy()
        result = hierarchy.run(sequential_trace(10))
        assert result.elapsed_ns == pytest.approx(hierarchy.now_ns)

    def test_store_counted_separately(self):
        hierarchy = no_prefetch_hierarchy()
        trace = Trace([MemoryAccess(address=0x1000, kind=AccessKind.STORE)])
        result = hierarchy.run(trace)
        assert result.total.stores == 1
        assert result.total.loads == 0

    def test_start_ns_cannot_move_backwards(self):
        hierarchy = no_prefetch_hierarchy()
        hierarchy.run(sequential_trace(10), start_ns=1000.0)
        with pytest.raises(ValueError):
            hierarchy.run(sequential_trace(1), start_ns=0.0)

    def test_multi_line_access_touches_all_lines(self):
        hierarchy = no_prefetch_hierarchy()
        trace = Trace([MemoryAccess(address=0x1000, size=256)])
        result = hierarchy.run(trace)
        assert result.total.llc_misses == 4


class TestCacheBehaviour:
    def test_l2_hit_after_l1_eviction(self):
        hierarchy = no_prefetch_hierarchy()
        l1_lines = hierarchy.config.l1.size_bytes // 64
        # Touch enough distinct lines to overflow L1 but not L2.
        trace = sequential_trace(l1_lines * 2)
        hierarchy.run(trace)
        result = hierarchy.run(sequential_trace(l1_lines * 2))
        # Second pass: everything is resident in L2 (or L1), no DRAM.
        assert result.total.llc_misses == 0

    def test_reset_clears_residency(self):
        hierarchy = no_prefetch_hierarchy()
        hierarchy.run(sequential_trace(100))
        hierarchy.reset()
        result = hierarchy.run(sequential_trace(100))
        assert result.total.llc_misses == 100


class TestHardwarePrefetching:
    def test_prefetchers_cut_misses_on_sequential(self):
        on = MemoryHierarchy()
        off = MemoryHierarchy()
        off.set_hardware_prefetchers(False)
        trace = sequential_trace(4096)
        r_on = on.run(trace)
        r_off = off.run(trace)
        assert r_on.total.llc_mpki < 0.2 * r_off.total.llc_mpki
        assert r_on.elapsed_ns < r_off.elapsed_ns

    def test_prefetchers_add_traffic(self):
        on = MemoryHierarchy()
        off = MemoryHierarchy()
        off.set_hardware_prefetchers(False)
        trace = sequential_trace(2048)
        r_on = on.run(trace)
        r_off = off.run(trace)
        assert r_on.dram_prefetch_fills > 0
        assert r_off.dram_prefetch_fills == 0
        assert r_on.dram_total_fills >= r_off.dram_total_fills

    def test_prefetch_covered_counted(self):
        hierarchy = MemoryHierarchy()
        result = hierarchy.run(sequential_trace(2048))
        assert result.total.prefetch_covered > 1000
        assert result.useful_prefetches == result.total.prefetch_covered

    def test_mid_run_disable_via_controls(self):
        hierarchy = MemoryHierarchy()
        hierarchy.run(sequential_trace(512))
        hierarchy.set_hardware_prefetchers(False)
        result = hierarchy.run(sequential_trace(512, start=0x900000))
        assert result.dram_prefetch_fills == 0


class TestSoftwarePrefetching:
    def test_software_prefetch_reduces_stalls(self):
        base_trace = sequential_trace(1024, gap=8)
        records = []
        distance = 8 * 64
        for record in base_trace:
            records.append(software_prefetch(record.address + distance,
                                             function="seq"))
            records.append(record)
        sw_trace = Trace(records)

        plain = no_prefetch_hierarchy().run(base_trace)
        prefetched = no_prefetch_hierarchy().run(sw_trace)
        assert prefetched.elapsed_ns < plain.elapsed_ns
        assert prefetched.total.prefetch_covered > 900

    def test_software_prefetch_never_stalls_issuer(self):
        hierarchy = no_prefetch_hierarchy()
        cost = hierarchy.config.software_prefetch_cost_cycles
        trace = Trace([software_prefetch(0x1000)])
        result = hierarchy.run(trace)
        assert result.total.compute_cycles == cost
        assert result.total.stall_cycles == 0

    def test_duplicate_prefetch_no_extra_traffic(self):
        hierarchy = no_prefetch_hierarchy()
        trace = Trace([software_prefetch(0x1000)] * 5)
        result = hierarchy.run(trace)
        assert result.dram_prefetch_fills == 1

    def test_prefetch_of_resident_line_free(self):
        hierarchy = no_prefetch_hierarchy()
        hierarchy.run(Trace([MemoryAccess(address=0x1000)]))
        result = hierarchy.run(Trace([software_prefetch(0x1000)]))
        assert result.dram_prefetch_fills == 0


class TestDistanceTimeliness:
    def run_with_distance(self, distance_lines):
        """Prefetch `distance_lines` ahead; larger distances hide more."""
        records = []
        for i in range(512):
            address = 0x100000 + i * 64
            records.append(software_prefetch(address + distance_lines * 64,
                                             function="f"))
            records.append(MemoryAccess(address=address, function="f",
                                        gap_cycles=16))
        hierarchy = no_prefetch_hierarchy()
        return hierarchy.run(Trace(records))

    def test_longer_distance_is_more_timely(self):
        near = self.run_with_distance(1)
        far = self.run_with_distance(16)
        assert far.total.late_prefetch_wait_ns < near.total.late_prefetch_wait_ns
        assert far.elapsed_ns < near.elapsed_ns


class TestPerFunctionAttribution:
    def test_functions_tracked_separately(self):
        trace = (sequential_trace(64, function="a")
                 + sequential_trace(64, start=0x500000, function="b"))
        result = no_prefetch_hierarchy().run(trace)
        assert set(result.functions) == {"a", "b"}
        assert result.function("a").llc_misses == 64
        assert result.function("b").llc_misses == 64

    def test_totals_are_sum_of_functions(self):
        trace = (sequential_trace(64, function="a")
                 + sequential_trace(64, start=0x500000, function="b"))
        result = no_prefetch_hierarchy().run(trace)
        assert result.total.instructions == sum(
            s.instructions for s in result.functions.values())

    def test_unknown_function_returns_empty(self):
        result = no_prefetch_hierarchy().run(Trace())
        assert result.function("missing").instructions == 0


class TestBandwidthFeedback:
    def test_external_load_slows_execution(self):
        trace = sequential_trace(512)
        quiet = no_prefetch_hierarchy().run(trace)
        loaded_h = no_prefetch_hierarchy(external_load=2.9)
        loaded = loaded_h.run(trace)
        assert loaded.elapsed_ns > quiet.elapsed_ns
        assert (loaded.total.average_load_to_use_ns
                > quiet.total.average_load_to_use_ns)

    def test_average_bandwidth_positive(self):
        result = no_prefetch_hierarchy().run(sequential_trace(512))
        assert result.average_bandwidth > 0
