"""Tests for adaptive early stopping over ablation arms.

Stopping decisions must be pure functions of the shard results — the
determinism tests run the same study twice (and through a checkpoint
journal) and demand identical verdicts. The statistics themselves are
pinned with an injectable per-shard metric, which turns "does the CI
math stop the right arm at the right round" into exact assertions.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    AblationStudy,
    AdaptiveAblation,
    arm_interval,
    arms_separated,
    plan_rounds,
)

# Small but genuinely multi-shard: 6 shards of 4 machines per arm.
KW = dict(machines=24, epochs=10, warmup_epochs=3, seed=3, shard_size=4)


def mode_keyed_metric(result):
    """Constant per arm with zero variance: 'off' and 'control' separate
    at the earliest legal round for any positive margin; 'hard' overlaps
    'off' within any margin >= 0.01."""
    return {"off": 0.10, "hard": 0.105, "hard+soft": 0.30,
            "soft-only": 0.40, "control": 0.00}[result.mode]


class TestIntervalMath:
    def test_empty_sample_is_uninformative(self):
        mean, halfwidth = arm_interval([])
        assert mean == 0.0 and math.isinf(halfwidth)

    def test_single_sample_has_infinite_halfwidth(self):
        mean, halfwidth = arm_interval([0.25])
        assert mean == 0.25 and math.isinf(halfwidth)

    def test_known_values(self):
        # Sample variance of (1, 2, 3) is 1; halfwidth = z * sqrt(1/3).
        mean, halfwidth = arm_interval([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert halfwidth == pytest.approx(
            1.959963984540054 * math.sqrt(1.0 / 3.0))

    def test_zero_variance_gives_zero_halfwidth(self):
        assert arm_interval([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_infinite_halfwidth_never_separates(self):
        assert not arms_separated((0.0, math.inf), (100.0, 0.0), 0.0)

    def test_separation_needs_margin_plus_halfwidths(self):
        assert arms_separated((0.0, 0.01), (0.1, 0.01), 0.05)
        assert not arms_separated((0.0, 0.03), (0.1, 0.03), 0.05)

    def test_separation_is_symmetric(self):
        a, b = (0.0, 0.01), (0.2, 0.02)
        assert arms_separated(a, b, 0.05) == arms_separated(b, a, 0.05)


class TestPlanRounds:
    def test_exact_division(self):
        assert plan_rounds(6, 2) == [(0, 2), (2, 4), (4, 6)]

    def test_remainder_goes_to_last_round(self):
        assert plan_rounds(5, 2) == [(0, 2), (2, 4), (4, 5)]

    def test_quantum_larger_than_count(self):
        assert plan_rounds(3, 8) == [(0, 3)]

    def test_covers_everything_exactly_once(self):
        for count in range(1, 12):
            for quantum in range(1, 6):
                rounds = plan_rounds(count, quantum)
                covered = [i for start, stop in rounds
                           for i in range(start, stop)]
                assert covered == list(range(count))


class TestValidation:
    def test_needs_two_arms(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off",), **KW)

    def test_rejects_duplicate_arms(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off", "off"), **KW)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off", "warp-speed"), **KW)

    def test_rejects_negative_margin(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off", "control"), margin=-0.1, **KW)

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off", "control"), quantum=0, **KW)

    def test_rejects_min_rounds_below_two(self):
        with pytest.raises(ConfigError):
            AdaptiveAblation(modes=("off", "control"), min_rounds=1, **KW)


class TestEarlyStopping:
    def test_separable_arms_stop_at_earliest_legal_round(self):
        study = AdaptiveAblation(modes=("off", "control"), margin=0.05,
                                 metric=mode_keyed_metric, **KW)
        outcome = study.run()
        # Zero-variance metrics separate the moment intervals become
        # finite, which is exactly min_rounds (round index 1).
        for mode in ("off", "control"):
            assert outcome.arms[mode].stopped_round == 1
            assert outcome.arms[mode].shards_run == 2
            assert outcome.arms[mode].shards_total == 6
        assert outcome.rounds_run == 2

    def test_overlapping_arm_runs_full_budget(self):
        study = AdaptiveAblation(modes=("off", "hard"), margin=0.05,
                                 metric=mode_keyed_metric, **KW)
        outcome = study.run()
        # 0.10 vs 0.105 never clears a 0.05 margin: no early stop.
        for mode in ("off", "hard"):
            assert outcome.arms[mode].stopped_round is None
            assert outcome.arms[mode].shards_run == 6
        assert outcome.savings() == 1.0

    def test_three_arms_stop_independently(self):
        study = AdaptiveAblation(modes=("off", "hard", "control"),
                                 margin=0.05, metric=mode_keyed_metric,
                                 **KW)
        outcome = study.run()
        # 'control' is far from both others: stops at the first legal
        # round. 'off' and 'hard' overlap each other: full budget.
        assert outcome.arms["control"].stopped_round == 1
        assert outcome.arms["off"].stopped_round is None
        assert outcome.arms["hard"].stopped_round is None

    def test_machine_run_accounting_and_savings(self):
        study = AdaptiveAblation(modes=("off", "control"), margin=0.05,
                                 metric=mode_keyed_metric, **KW)
        outcome = study.run()
        assert outcome.machine_runs() == 2 * 2 * 4  # 2 arms x 2 shards x 4
        assert outcome.exhaustive_machine_runs() == 2 * 24
        assert outcome.savings() == pytest.approx(3.0)

    def test_ranking_orders_by_mean(self):
        study = AdaptiveAblation(modes=("control", "off", "soft-only"),
                                 margin=0.05, metric=mode_keyed_metric,
                                 **KW)
        outcome = study.run()
        assert outcome.ranking() == ["soft-only", "off", "control"]


class TestDeterminism:
    def test_two_fresh_runs_agree_exactly(self):
        first = AdaptiveAblation(modes=("off", "control"),
                                 margin=0.001, **KW).run()
        second = AdaptiveAblation(modes=("off", "control"),
                                  margin=0.001, **KW).run()
        assert first.to_dict() == second.to_dict()
        for mode in first.modes:
            assert (first.results[mode].to_dict()
                    == second.results[mode].to_dict())

    def test_worker_count_cannot_change_verdicts(self):
        serial = AdaptiveAblation(modes=("off", "control"),
                                  margin=0.001, **KW).run(workers=1)
        parallel = AdaptiveAblation(modes=("off", "control"),
                                    margin=0.001, **KW).run(workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_checkpointed_rerun_restores_and_agrees(self, tmp_path):
        fresh = AdaptiveAblation(modes=("off", "control"),
                                 margin=0.001, **KW).run()
        study = AdaptiveAblation(modes=("off", "control"),
                                 margin=0.001, **KW)
        study.run(checkpoint_dir=str(tmp_path))
        resumed_study = AdaptiveAblation(modes=("off", "control"),
                                         margin=0.001, **KW)
        resumed = resumed_study.run(checkpoint_dir=str(tmp_path))
        assert resumed.to_dict() == fresh.to_dict()
        assert resumed_study.queue_stats["restored"] > 0
        assert resumed_study.queue_stats["computed"] == 0


class TestExhaustiveEquivalence:
    def test_never_stopping_reproduces_exhaustive_arms(self):
        """With a margin no effect can clear, every arm runs its full
        budget and the merged per-arm results are bit-identical to the
        plain exhaustive studies."""
        outcome = AdaptiveAblation(modes=("off", "control"),
                                   margin=1e9, **KW).run()
        for mode in ("off", "control"):
            assert outcome.arms[mode].stopped_round is None
            assert outcome.arms[mode].shards_run == 6
            exhaustive = AblationStudy(mode=mode, **KW).run()
            assert outcome.results[mode].to_dict() == exhaustive.to_dict()
        assert outcome.savings() == 1.0

    def test_early_stop_preserves_exhaustive_ranking_with_savings(self):
        """The acceptance bar: adaptive reproduces the exhaustive
        verdict ordering with at least 2x fewer machine-runs."""
        exhaustive = {
            mode: AblationStudy(mode=mode, **KW).run().throughput_change()
            for mode in ("off", "control")}
        exhaustive_ranking = sorted(exhaustive,
                                    key=lambda m: -exhaustive[m])
        outcome = AdaptiveAblation(modes=("off", "control"),
                                   margin=0.001, **KW).run()
        assert outcome.ranking() == exhaustive_ranking
        assert outcome.savings() >= 2.0


class TestObservability:
    def test_round_and_stop_events_recorded(self, tmp_path):
        study = AdaptiveAblation(modes=("off", "control"), margin=0.001,
                                 **KW)
        study.run(obs_dir=str(tmp_path))
        lines = [line for line
                 in (tmp_path / "events.jsonl").read_text().splitlines()
                 if line]
        import json
        events = [json.loads(line)["kind"] for line in lines]
        assert events.count("adaptive-round") == 2
        assert events.count("arm-early-stop") == 2
        assert events[0] == "study-start"
        assert events[-1] == "study-finish"
