"""Tests for repro.memsys.dram — the queuing latency model behind Figure 1."""

import pytest

from repro.errors import ConfigError
from repro.memsys import DRAMConfig, DRAMModel


class TestLatencyCurve:
    def test_unloaded_latency_at_zero_utilization(self):
        dram = DRAMModel(DRAMConfig(unloaded_latency_ns=90.0))
        assert dram.latency_at_utilization(0.0) == pytest.approx(90.0)

    def test_latency_monotonic_in_utilization(self):
        dram = DRAMModel(DRAMConfig())
        points = [dram.latency_at_utilization(u / 20) for u in range(25)]
        assert all(b >= a for a, b in zip(points, points[1:]))

    def test_knee_shape_matches_figure1(self):
        """Figure 1: roughly 2x latency growth by full utilization, with
        most of the growth concentrated past ~60% utilization."""
        dram = DRAMModel(DRAMConfig())
        low = dram.latency_at_utilization(0.1)
        mid = dram.latency_at_utilization(0.6)
        high = dram.latency_at_utilization(0.97)
        assert mid < 1.4 * low          # flat-ish early
        assert high > 2.0 * low         # steep near saturation

    def test_overload_keeps_growing(self):
        dram = DRAMModel(DRAMConfig())
        at_max = dram.latency_at_utilization(0.98)
        beyond = dram.latency_at_utilization(1.2)
        assert beyond > at_max

    def test_negative_clamped(self):
        dram = DRAMModel(DRAMConfig())
        assert dram.latency_at_utilization(-1.0) == dram.latency_at_utilization(0.0)


class TestBandwidthAccounting:
    def test_requests_accumulate_bandwidth(self):
        dram = DRAMModel(DRAMConfig(window_ns=1000.0, saturation_bandwidth=3.0))
        for i in range(10):
            dram.request(float(i), is_prefetch=False)
        assert dram.achieved_bandwidth(10.0) == pytest.approx(640 / 1000.0)

    def test_window_forgets(self):
        dram = DRAMModel(DRAMConfig(window_ns=100.0))
        dram.request(0.0)
        assert dram.achieved_bandwidth(1000.0) == 0.0

    def test_demand_vs_prefetch_fills(self):
        dram = DRAMModel(DRAMConfig())
        dram.request(0.0, is_prefetch=False)
        dram.request(1.0, is_prefetch=True)
        dram.request(2.0, is_prefetch=True)
        assert dram.demand_fills == 1
        assert dram.prefetch_fills == 2
        assert dram.total_fills == 3
        assert dram.demand_bytes == 64
        assert dram.prefetch_bytes == 128

    def test_completion_time_uses_pre_request_utilization(self):
        config = DRAMConfig(window_ns=100.0, saturation_bandwidth=1.0,
                            unloaded_latency_ns=90.0)
        dram = DRAMModel(config)
        first = dram.request(0.0)
        assert first == pytest.approx(90.0)  # empty window -> unloaded

    def test_latency_rises_under_load(self):
        config = DRAMConfig(window_ns=1000.0, saturation_bandwidth=0.5)
        dram = DRAMModel(config)
        first = dram.request(0.0) - 0.0
        for i in range(1, 8):
            dram.request(float(i))
        loaded = dram.request(8.0) - 8.0
        assert loaded > first

    def test_external_load_raises_utilization(self):
        config = DRAMConfig(saturation_bandwidth=3.0)
        quiet = DRAMModel(config)
        busy = DRAMModel(config, external_load=2.7)
        assert busy.utilization(0.0) == pytest.approx(0.9)
        assert busy.request(0.0) - 0.0 > quiet.request(0.0) - 0.0

    def test_callable_external_load_rejected_at_construction(self):
        """The load is a constant; a time-varying callable fails up
        front rather than on the first fill."""
        with pytest.raises(TypeError):
            DRAMModel(DRAMConfig(), external_load=lambda t: 2.7)

    def test_reset_window(self):
        dram = DRAMModel(DRAMConfig())
        dram.request(0.0)
        dram.reset_window()
        assert dram.achieved_bandwidth(0.0) == 0.0
        assert dram.demand_fills == 1  # counters survive


class TestConfigValidation:
    def test_bad_saturation(self):
        with pytest.raises(ConfigError):
            DRAMConfig(saturation_bandwidth=0.0)

    def test_bad_max_utilization(self):
        with pytest.raises(ConfigError):
            DRAMConfig(max_utilization=1.0)

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            DRAMConfig(window_ns=0.0)

    def test_bad_overload_gain(self):
        with pytest.raises(ConfigError):
            DRAMConfig(overload_gain=-1.0)
