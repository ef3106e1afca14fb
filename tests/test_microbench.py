"""Tests for the memcpy microbenchmark and the fleet-mix load test."""

import pytest

from repro.core import PrefetchDescriptor, SoftwarePrefetchInjector
from repro.errors import ConfigError
from repro.memsys.hierarchy import MemoryHierarchy
from repro.microbench import (
    FleetMixLoadTest,
    MemcpyMicrobenchmark,
    PAPER_SIZES,
)
from repro.summation import left_sum
from repro.units import KB


SIZES = (256, 4 * KB, 64 * KB)


@pytest.fixture(scope="module")
def bench():
    return MemcpyMicrobenchmark(sizes=SIZES, bytes_per_point=64 * KB)


def descriptor(distance=512, degree=256, clamp=False, gate=0):
    return PrefetchDescriptor("memcpy", distance_bytes=distance,
                              degree_bytes=degree, min_size_bytes=gate,
                              clamp_to_stream=clamp)


class TestMicrobenchmark:
    def test_paper_sizes_span_the_figure(self):
        assert min(PAPER_SIZES) <= 256
        assert max(PAPER_SIZES) >= 1000 * KB

    def test_deterministic(self, bench):
        a = bench.run(None)
        b = bench.run(None)
        assert a.elapsed_by_size == b.elapsed_by_size

    def test_prefetching_speeds_up_large_copies(self, bench):
        speedups = bench.speedup(descriptor())
        assert speedups[64 * KB] > 0.3

    def test_unclamped_aggressive_prefetch_hurts_small_copies(self, bench):
        """Figure 15b's left side: big degree, tiny copy, negative."""
        speedups = bench.speedup(descriptor(degree=2048))
        assert speedups[256] < -0.2

    def test_size_gate_removes_small_copy_regression(self, bench):
        """Section 4.3: conditioning on larger call sizes fixes the
        regression while keeping the large-copy win."""
        gated = bench.speedup(descriptor(degree=2048, clamp=True,
                                         gate=4 * KB))
        assert gated[256] == pytest.approx(0.0, abs=0.02)
        assert gated[64 * KB] > 0.3

    def test_longer_distance_helps_large_copies(self, bench):
        near = bench.speedup(descriptor(distance=64))
        far = bench.speedup(descriptor(distance=1024))
        assert far[64 * KB] > near[64 * KB]

    def test_mean_speedup_scalar(self, bench):
        assert isinstance(bench.mean_speedup(descriptor()), float)

    def test_state_comparison_figure15c(self):
        """-HW,-SW is the slowest; adding SW recovers most of it; SW on
        top of HW is a small perturbation."""
        bench = MemcpyMicrobenchmark(sizes=(4 * KB, 64 * KB),
                                     bytes_per_point=64 * KB)
        states = bench.prefetcher_state_comparison(
            descriptor(clamp=True, gate=1 * KB))
        assert states["-HW,-SW"] < 0
        assert states["-HW,+SW"] > states["-HW,-SW"]
        assert abs(states["+HW,+SW"]) < abs(states["-HW,-SW"])

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemcpyMicrobenchmark(sizes=())
        with pytest.raises(ConfigError):
            MemcpyMicrobenchmark(bytes_per_point=0)
        with pytest.raises(ConfigError):
            MemcpyMicrobenchmark(background_utilization=2.0)


class TestGatedPointSkip:
    """A size point whose streams are all under the size gate is not
    simulated again: it reuses the base trace's elapsed time."""

    SIZES = (1 * KB, 8 * KB)

    @staticmethod
    def gated(distance=256, degree=128):
        # 1 KiB calls fall under the 2 KiB gate; 8 KiB calls do not.
        return descriptor(distance=distance, degree=degree, gate=2 * KB)

    def bench(self, **kwargs):
        return MemcpyMicrobenchmark(sizes=self.SIZES,
                                    bytes_per_point=16 * KB, **kwargs)

    @staticmethod
    def spy_runs(monkeypatch):
        runs = []
        original = MemoryHierarchy.run

        def spy(self, trace, *args, **kwargs):
            runs.append(len(trace))
            return original(self, trace, *args, **kwargs)

        monkeypatch.setattr(MemoryHierarchy, "run", spy)
        return runs

    @staticmethod
    def explicit_elapsed(bench, desc):
        """Elapsed per size, every point simulated on a fresh hierarchy."""
        elapsed = {}
        for size in bench.sizes:
            trace = bench._batch_trace(size)
            if desc is not None:
                trace = SoftwarePrefetchInjector([desc]).inject(trace)
            elapsed[size] = bench._hierarchy().run(trace).elapsed_ns
        return elapsed

    def test_gated_point_is_not_simulated(self, monkeypatch):
        bench = self.bench()
        runs = self.spy_runs(monkeypatch)
        bench.mean_speedup(self.gated())
        assert len(runs) == 2 + 1
        bench.mean_speedup(self.gated(distance=512))
        bench.mean_speedup(self.gated(degree=256))
        assert len(runs) == 2 + 3
        # The gated point's injected trace is the base trace.
        injector = SoftwarePrefetchInjector([self.gated()])
        base = bench._batch_trace(1 * KB)
        assert injector.inject(base) == base
        assert injector.last_stats.prefetches_inserted == 0

    def test_mean_speedup_matches_explicit_simulation(self):
        bench = self.bench()
        desc = self.gated()
        base = self.explicit_elapsed(bench, None)
        injected = self.explicit_elapsed(bench, desc)
        speedups = [base[size] / injected[size] - 1.0
                    for size in bench.sizes]
        assert bench.mean_speedup(desc) \
            == left_sum(speedups) / len(speedups)
        assert bench.speedup(desc)[1 * KB] == 0.0

    def test_memo_not_shared_across_hardware_states(self, monkeypatch):
        cold = self.bench(hardware_prefetchers=False)
        cold.run(None)
        warm = self.bench(hardware_prefetchers=True)
        warm._trace_cache = cold._trace_cache
        runs = self.spy_runs(monkeypatch)
        elapsed = warm.run(self.gated()).elapsed_by_size
        assert len(runs) == 2
        assert elapsed[1 * KB] == self.explicit_elapsed(warm, None)[1 * KB]
        assert elapsed[1 * KB] != cold.run(None).elapsed_by_size[1 * KB]

    def test_state_comparison_matches_explicit_simulation(self):
        bench = self.bench()
        bench.run(None)
        desc = self.gated()

        def total(hw, sw):
            return left_sum(self.explicit_elapsed(
                self.bench(hardware_prefetchers=hw), sw).values())

        reference = total(True, None)
        assert bench.prefetcher_state_comparison(desc) == {
            "-HW,-SW": reference / total(False, None) - 1.0,
            "-HW,+SW": reference / total(False, desc) - 1.0,
            "+HW,+SW": reference / total(True, desc) - 1.0,
        }


class TestLoadTest:
    def test_good_descriptor_passes(self):
        loadtest = FleetMixLoadTest(scale=1.0)
        good = PrefetchDescriptor("memcpy", distance_bytes=512,
                                  degree_bytes=256, min_size_bytes=2 * KB)
        assert loadtest.speedup(good) > 0.01

    def test_wasteful_descriptor_does_worse_than_good_one(self):
        loadtest = FleetMixLoadTest(scale=0.4)
        good = PrefetchDescriptor("memcpy", distance_bytes=512,
                                  degree_bytes=256, min_size_bytes=2 * KB)
        wasteful = PrefetchDescriptor("memcpy", distance_bytes=4096,
                                      degree_bytes=4096,
                                      clamp_to_stream=False)
        assert loadtest.speedup(wasteful) < loadtest.speedup(good)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetMixLoadTest(background_utilization=2.0)
        with pytest.raises(ConfigError):
            FleetMixLoadTest(scale=0)
