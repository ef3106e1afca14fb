"""Self-test of the benchmark: self-time arithmetic, probe restoration,
failure counting, environment hygiene and the BENCHMARK.json schema."""

import json
import math
import os

import pytest

import run
import worker
from spans import ROOT, Instrumentation, Probe, SpanRecorder, rep_layers, self_times
from studies import PROBES, WORKLOADS, NoisyHard, is_timing, layer_metrics, unit_of

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def nested_recorder():
    """root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]."""
    recorder = SpanRecorder(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                                            9.0, 10.0))
    recorder.begin_rep(0)
    root = recorder.open(ROOT)
    a = recorder.open("a")
    b = recorder.open("b")
    recorder.close(b)
    recorder.close(a)
    c = recorder.open("c")
    recorder.close(c)
    recorder.close(root)
    return recorder


def test_self_times_of_nested_spans():
    recorder = nested_recorder()
    assert recorder.parents == [-1, 0, 1, 0]
    assert self_times(recorder.starts, recorder.ends,
                      recorder.parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_clip_overlapping_children():
    # Children [1, 6] and [4, 12] overlap each other and the parent's end.
    assert self_times([0.0, 1.0, 4.0], [10.0, 6.0, 12.0],
                      [-1, 0, 0]) == [1.0, 5.0, 8.0]


def test_rep_layers_sum_to_root():
    layers = rep_layers(nested_recorder())[0]
    assert layers == {ROOT: 3.0, "a": 2.0, "b": 1.0, "c": 4.0,
                      ROOT + ".total": 10.0}


def test_rep_layers_rejects_a_span_outside_the_root():
    recorder = nested_recorder()
    recorder.clock = FakeClock(11.0, 12.0)
    recorder.begin_rep(1)
    stray = recorder.open("stray")
    recorder.close(stray)
    with pytest.raises(ValueError, match="no root span"):
        rep_layers(recorder)


def test_rep_layers_rejects_self_times_that_miss_the_root():
    recorder = nested_recorder()
    recorder.ends[0] = 8.5  # root now ends inside its last child
    with pytest.raises(ValueError, match="self times sum"):
        rep_layers(recorder)


def test_layer_metrics_account_for_the_traced_time():
    layers = {ROOT: 1.0, "memsys.lockstep": 2.0, "fleet.run": 3.0,
              "unknown.layer": 0.5, ROOT + ".total": 6.5}
    metrics = layer_metrics(layers, {"memsys.lockstep_batches": 4,
                                     "memsys.lockstep_arm_records": 2e9},
                            None)
    timed = sum(value for name, value in metrics.items()
                if name.endswith("_s") and name != "study.traced_s")
    assert timed == 6.0  # a layer without a metric stays visible as a gap
    assert metrics["study.unattributed_s"] == 1.0
    assert metrics["memsys.lockstep_ns_per_arm_record"] == 1.0
    assert metrics["memsys.mean_batch_arms"] == 0.0


def originals():
    found = {}
    for probe in PROBES:
        owner, attr = probe.owner_and_attr()
        found[probe.target] = vars(owner)[attr]
    return found


def test_every_probe_is_restored_after_a_traced_run(tmp_path):
    before = originals()
    recorder = SpanRecorder()
    recorder.begin_rep(0)
    from repro.scenarios.tenancy import NoisyNeighborScenario

    study = NoisyNeighborScenario(mode="hard", machines=2, epochs=2, seed=3)
    with Instrumentation(PROBES, recorder):
        assert all(originals()[target] is not raw
                   for target, raw in before.items())
        root = recorder.open(ROOT)
        NoisyHard().run(study, str(tmp_path))
        recorder.close(root)
    after = originals()
    assert all(after[target] is raw for target, raw in before.items())
    layers = rep_layers(recorder)[0]
    assert layers["memsys.lockstep"] > 0 and layers["core.control"] > 0
    assert recorder.counts[0]["core.control_steps"] == 2 * 2


def test_probes_are_restored_when_the_run_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with Instrumentation(PROBES, SpanRecorder()):
            raise RuntimeError("boom")
    assert originals() == before


def test_probe_on_a_missing_attribute_restores_what_it_installed():
    before = originals()
    probes = list(PROBES) + [Probe("repro.fleet.cluster:Fleet.nope", "x")]
    with pytest.raises(AttributeError):
        with Instrumentation(probes, SpanRecorder()):
            pass
    assert originals() == before


class FakeWorkload:
    def __init__(self, digest="good", error=None):
        self.value, self.error = digest, error

    def study(self, seed):
        return seed

    def run(self, study, scratch):
        if self.error:
            raise self.error
        return self.value

    def digest(self, result):
        return result


def test_forced_digest_mismatch_counts_as_failure(tmp_path):
    outcome = worker.repeat(FakeWorkload("bad"), 1, "good", 0.0, str(tmp_path))
    assert outcome.attempted >= worker.MIN_REPS
    assert len(outcome.errors) == outcome.attempted
    assert "digest bad != golden good" in outcome.errors[0]


def test_matching_digest_counts_no_failure(tmp_path):
    outcome = worker.repeat(FakeWorkload("good"), 1, "good", 0.0,
                            str(tmp_path), SpanRecorder())
    assert outcome.errors == []
    assert len(outcome.untraced_s) == len(outcome.traced_s) == worker.MIN_REPS
    summary = worker.summarize_traced(outcome)
    assert summary["counts_repeat"]
    assert not math.isnan(summary["metrics"]["trace.overhead_frac"])


def test_raising_repetition_counts_as_failure(tmp_path):
    outcome = worker.repeat(FakeWorkload(error=ValueError("broken")), 1,
                            "good", 0.0, str(tmp_path))
    assert len(outcome.errors) == outcome.attempted
    assert "ValueError: broken" in outcome.errors[0]


def test_clean_env_strips_repro_variables(monkeypatch):
    for name in ("REPRO_BATCH", "REPRO_WORKERS", "REPRO_SLOW_ENGINE",
                 "REPRO_QUEUE_ABORT_AFTER"):
        monkeypatch.setenv(name, "1")
    env = run.clean_env("/src")
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PYTHONPATH"] == "/src"


def test_worker_refuses_leaked_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    with pytest.raises(SystemExit, match="REPRO_BATCH"):
        worker.main(["--workload", "memcpy-tune", "--study-seed", "0",
                     "--golden", "x", "--scratch", ".", "--setup-only"])


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(run.GOLDENS) as handle:
        goldens = json.load(handle)["workloads"]
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == list(WORKLOADS)
    assert set(goldens) == set(WORKLOADS)
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    layers = {ROOT: 0.0, ROOT + ".total": 1.0}
    expected = set(layer_metrics(layers, {}, None)) | {
        "study.untraced_s", "trace.overhead_frac"}
    assert set(per_layer) == expected
    assert all(per_layer[name] == unit_of(name) for name in per_layer)
    assert {metric["name"] for metric in spec["end_to_end"]} == {
        "study_s", "setup_s", "peak_rss_mb"}
    for entry in goldens.values():
        assert entry["pool"][0]["seed"] == entry["default_seed"]
        assert entry["pool"][1]["seed"] == entry["held_out_seed"]


def test_timing_metrics_are_medians_and_counts_are_exact():
    assert is_timing("memsys.scalar_s") and is_timing("trace.overhead_frac")
    assert not is_timing("memsys.llc_misses")
    assert not is_timing("memsys.hw_prefetch_useful_ratio")


def test_medians_scale_to_the_reference_speed():
    reference = run.REFERENCE_CALIBRATION_S
    # The host ran at half the reference speed: calibration took twice as long.
    assert run.at_reference([3.0, 4.0, 100.0], [2 * reference] * 3) == 2.0
    assert worker.calibrate() > 0
