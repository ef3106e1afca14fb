"""Tests for fault-plan parsing, validation, and seeding."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    fault_rng,
    fault_seed,
)
from repro.units import SECOND


class TestParsing:
    def test_single_clause(self):
        plan = FaultPlan.parse("telemetry-drop:rate=0.25")
        assert plan.kinds == ("telemetry-drop",)
        assert plan.clause("telemetry-drop").param("rate") == 0.25
        assert plan.seed == 0

    def test_multiple_clauses_and_seed(self):
        plan = FaultPlan.parse(
            "seed=42;telemetry-drop:rate=0.1;msr-transient:rate=0.3")
        assert plan.seed == 42
        assert plan.kinds == ("telemetry-drop", "msr-transient")

    def test_defaults_fill_in(self):
        plan = FaultPlan.parse("machine-crash:rate=0.05")
        clause = plan.clause("machine-crash")
        assert clause.param("outage") == 2.0
        assert clause.param("restart") == "enabled"

    def test_time_parameters_convert_to_ns(self):
        plan = FaultPlan.parse("telemetry-blackout:start=120,duration=60")
        clause = plan.clause("telemetry-blackout")
        assert clause.time_ns("start") == 120 * SECOND
        assert clause.time_ns("duration") == 60 * SECOND

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" telemetry-drop: rate = 0.1 ; "
                               "telemetry-nan: rate = 0.2 ")
        assert plan.clause("telemetry-nan").param("rate") == 0.2

    def test_spec_round_trips(self):
        spec = ("seed=7;machine-crash:outage=3.0,rate=0.02,"
                "restart=preserved;telemetry-skew:offset=1.5")
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.spec()) == plan

    def test_has_and_missing_clause(self):
        plan = FaultPlan.parse("telemetry-drop:rate=0.1")
        assert plan.has("telemetry-drop")
        assert not plan.has("msr-transient")
        assert plan.clause("msr-transient") is None


class TestValidation:
    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("")
        with pytest.raises(ConfigError):
            FaultPlan.parse(" ; ")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan.parse("telemetry-explode:rate=0.1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="no parameters"):
            FaultPlan.parse("telemetry-drop:rate=0.1,color=red")

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ConfigError, match="requires parameter"):
            FaultPlan.parse("telemetry-drop")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("telemetry-drop:rate=1.0")
        with pytest.raises(ConfigError):
            FaultPlan.parse("telemetry-drop:rate=-0.1")

    def test_bad_restart_policy_rejected(self):
        with pytest.raises(ConfigError, match="restart policy"):
            FaultPlan.parse("machine-crash:rate=0.1,restart=sideways")

    def test_count_parameters_must_be_integers(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("msr-permanent:after=1.5")
        plan = FaultPlan.parse("msr-permanent:after=3")
        assert plan.clause("msr-permanent").param("after") == 3.0

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan.parse("telemetry-drop:rate=0.1;telemetry-drop:rate=0.2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            FaultPlan.parse("telemetry-drop:rate")

    def test_non_numeric_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.parse("seed=lots;telemetry-drop:rate=0.1")

    @pytest.mark.parametrize("spec", [
        "seed=1;seed=2",
        "seed=1;telemetry-drop:rate=0.1;seed=1",
    ])
    def test_repeated_seed_rejected(self, spec):
        # A second seed used to win silently, re-seeding every fault draw.
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("spec", [
        "msr-permanent:after=inf",  # was a raw OverflowError
        "msr-permanent:after=nan",  # was a raw ValueError
        "machine-crash:rate=0.1,outage=nan",
        "telemetry-blackout:start=nan,duration=1",  # was accepted
        "telemetry-skew:offset=nan",
        "telemetry-drop:rate=nan",
    ])
    def test_non_finite_counts_and_nan_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)


class TestSeeding:
    def test_fault_seed_is_stable(self):
        assert fault_seed(1, 2, "machine-0", "crash") == \
            fault_seed(1, 2, "machine-0", "crash")

    def test_fault_seed_distinguishes_parts(self):
        base = fault_seed(1, 2, "machine-0", "crash")
        assert fault_seed(1, 2, "machine-0", "telemetry:0") != base
        assert fault_seed(1, 3, "machine-0", "crash") != base
        assert fault_seed(1, 2, "machine-1", "crash") != base

    def test_fault_rng_reproduces(self):
        a = [fault_rng(5, "x").random() for _ in range(4)]
        b = [fault_rng(5, "x").random() for _ in range(4)]
        assert a == b

    def test_key_material_is_plain_data(self):
        plan = FaultPlan.parse("seed=2;telemetry-drop:rate=0.1")
        material = plan.to_key_material()
        assert material == {
            "seed": 2,
            "clauses": [{"kind": "telemetry-drop",
                         "params": {"rate": 0.1}}],
        }
