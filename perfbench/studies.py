"""The benchmark's four workloads, the layer probes, and the per-layer
metrics derived from a traced repetition.

Each workload drives one public study API the way one CLI invocation
does: one worker, result cache, observability and checkpoint reuse off,
and a fresh study object whose modelled caches start empty. The
``repro`` imports live inside the functions, so importing this module
costs nothing and a workload's set-up time covers only its own imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Dict, List, Optional

from spans import ROOT, Probe, SpanRecorder

#: The memcpy grid of ``repro microbench`` (its CLI defaults).
MEMCPY_DISTANCES = (128, 256, 512)
MEMCPY_DEGREES = (128, 256, 512)


def _sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class FleetAblation:
    """Hard Limoncello fleet ablation: 64 machines as two 32-machine
    shards journaled to a fresh checkpoint directory.

    40 + 10 epochs rather than the CLI's 120 + 20 keep one repetition
    near 3.5 s, so a run holds enough repetitions for a steady median.
    """

    name = "fleet-ablation"
    default_seed = 11
    machines, epochs, warmup_epochs, shard_size = 64, 40, 10, 32

    def study(self, seed: int):
        from repro.fleet.ablation import AblationStudy

        return AblationStudy(mode="hard", machines=self.machines,
                             epochs=self.epochs,
                             warmup_epochs=self.warmup_epochs, seed=seed,
                             shard_size=self.shard_size)

    def run(self, study, scratch: str):
        checkpoint = tempfile.mkdtemp(prefix="journal-", dir=scratch)
        try:
            return study.run(workers=1, cache_dir="", obs_dir="",
                             checkpoint_dir=checkpoint, resume=True)
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)

    def digest(self, result) -> str:
        from repro.analysis.chaos import result_digest

        return result_digest(result)

    def size(self, seed: int, scratch: str) -> int:
        """Machine-epochs over both arms (fixed for every seed)."""
        return 2 * self.machines * (self.epochs + self.warmup_epochs)


class SweepControl:
    """Trace-driven micro-fleet sweep, default prefetcher bank on every
    arm: two 32-arm lockstep batches over the fleetbench trace.

    Trace scale 0.5 (about 10k records) keeps one repetition near 3 s,
    so a run holds enough repetitions for a steady median.
    """

    name = "sweep-control"
    default_seed = 17
    machines, scale = 64, 0.5

    def study(self, seed: int, batch_size: Optional[int] = None):
        from repro.fleet.sweep import MicroFleetSweep

        # batch_size=None is the engine's own (auto) choice; REPRO_BATCH
        # is stripped from the environment, so it cannot steer it.
        return MicroFleetSweep(mode="control", machines=self.machines,
                               seed=seed, scale=self.scale,
                               batch_size=batch_size)

    def run(self, study, scratch: str):
        return study.run(workers=1, cache_dir="", checkpoint_dir="")

    def digest(self, result) -> str:
        from repro.fleet.sweep import sweep_digest

        return sweep_digest(result)

    def oracle_digest(self, seed: int, scratch: str) -> str:
        """The same sweep on the scalar engine only (batch_size=0)."""
        return self.digest(self.run(self.study(seed, batch_size=0), scratch))

    def size(self, seed: int, scratch: str) -> int:
        """Trace records replayed by all arms (the trace length varies
        by seed, so the pool admits seeds by this measure)."""
        from repro.workloads.memo import clear_trace_memo, memoized_fleet_mix

        study = self.study(seed)
        total = 0
        for spec in study.shard_specs():
            total += spec.machines * len(
                memoized_fleet_mix(spec.trace_seed, spec.scale))
        clear_trace_memo()
        return total


class NoisyHard:
    """Noisy-neighbour scenario under the hysteresis controller: 8
    machines x 24 epochs, regrouped every epoch as controllers flip."""

    name = "noisy-hard"
    default_seed = 23
    machines, epochs = 8, 24

    def study(self, seed: int, batch_size: Optional[int] = None):
        from repro.scenarios.tenancy import NoisyNeighborScenario

        return NoisyNeighborScenario(mode="hard", machines=self.machines,
                                     epochs=self.epochs, seed=seed,
                                     batch_size=batch_size)

    def run(self, study, scratch: str):
        return study.run(workers=1, cache_dir="", checkpoint_dir="",
                         obs_dir="")

    def digest(self, result) -> str:
        from repro.scenarios.tenancy import noisy_digest

        return noisy_digest(result)

    def oracle_digest(self, seed: int, scratch: str) -> str:
        return self.digest(self.run(self.study(seed, batch_size=0), scratch))

    def size(self, seed: int, scratch: str) -> int:
        """Lockstep batches the study runs (set by how often its arms
        regroup; the pool admits seeds by this measure)."""
        from repro.workloads.memo import clear_trace_memo

        clear_trace_memo()
        return self.run(self.study(seed), scratch).occupancy.groups


class MemcpyTune:
    """Soft Limoncello tuning loop: the 3x3 distance x degree grid of
    ``repro microbench`` through ``mean_speedup``."""

    name = "memcpy-tune"
    default_seed = 0

    def study(self, seed: int):
        from repro.microbench import MemcpyMicrobenchmark
        from repro.units import KB

        return MemcpyMicrobenchmark(
            sizes=(1 * KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB),
            bytes_per_point=128 * KB, background_utilization=0.6,
            seed=seed)

    def run(self, study, scratch: str) -> List[List[float]]:
        from repro.core import PrefetchDescriptor
        from repro.units import KB

        rows = []
        for distance in MEMCPY_DISTANCES:
            for degree in MEMCPY_DEGREES:
                descriptor = PrefetchDescriptor(
                    "memcpy", distance_bytes=distance, degree_bytes=degree,
                    min_size_bytes=2 * KB)
                rows.append([distance, degree,
                             study.mean_speedup(descriptor)])
        return rows

    def digest(self, result) -> str:
        return _sha256_json(result)

    def oracle_digest(self, seed: int, scratch: str) -> str:
        """The grid on the reference interpreter and record injector."""
        flags = ("REPRO_SLOW_ENGINE", "REPRO_SLOW_INJECTOR")
        saved = {flag: os.environ.get(flag) for flag in flags}
        os.environ.update({flag: "1" for flag in flags})
        try:
            return self.digest(self.run(self.study(seed), scratch))
        finally:
            for flag, value in saved.items():
                if value is None:
                    os.environ.pop(flag, None)
                else:
                    os.environ[flag] = value

    def size(self, seed: int, scratch: str) -> int:
        """Bytes copied per configuration (fixed for every seed)."""
        study = self.study(seed)
        return study.bytes_per_point * len(study.sizes)


WORKLOADS = {workload.name: workload for workload in (
    FleetAblation(), SweepControl(), NoisyHard(), MemcpyTune())}


# --- probes -------------------------------------------------------------------

def _note_scalar(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("memsys.scalar_runs")
    recorder.count("memsys.scalar_records", len(args[1]))
    _note_sim(recorder, [result])


def _note_lockstep(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("memsys.lockstep_batches")
    recorder.count("memsys.lockstep_arm_records", len(args[0]) * len(args[1]))
    _note_sim(recorder, result)


def _note_sim(recorder: SpanRecorder, results) -> None:
    for run in results:
        recorder.count("memsys.llc_misses", run.total.llc_misses)
        recorder.count("memsys.dram_demand_fills", run.dram_demand_fills)
        recorder.count("memsys.hw_prefetches_issued",
                       run.hw_prefetches_issued)
        recorder.count("memsys.useful_prefetches", run.useful_prefetches)


def _note_machine_step(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("fleet.machine_epochs")


def _note_place(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("fleet.place_attempts")
    recorder.count("fleet.place_ok", result is not None)


def _note_sample(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("profiling.samples")


def _note_observe(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("core.control_steps")
    recorder.count("core.control_flips", bool(result.changed))


def _note_build(recorder: SpanRecorder, args, kwargs, result) -> None:
    # Only outermost builds: a nested build's records are already part
    # of the trace its caller returns.
    if result is not None and recorder.parent_name() != "workloads.build":
        recorder.count("workloads.records", len(result))


def _note_inject(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("core.soft.inject_calls")


def _note_journal(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("fleet.queue.journal_writes")
    recorder.count("fleet.queue.journal_bytes", os.path.getsize(result))


def _note_fleet_run(recorder: SpanRecorder, args, kwargs, result) -> None:
    index = recorder.last_closed
    recorder.count("fleet.run_inclusive_s",
                   recorder.ends[index] - recorder.starts[index])


#: Every wrapped entry point, grouped by layer (span name).
PROBES = (
    Probe("repro.memsys.batched:run_lockstep", "memsys.lockstep",
          _note_lockstep),
    Probe("repro.memsys.hierarchy:MemoryHierarchy.run", "memsys.scalar",
          _note_scalar),
    Probe("repro.memsys.hierarchy:run_many", "memsys.run_many"),
    Probe("repro.fleet.socket:SimulatedSocket.step", "fleet.socket_step"),
    Probe("repro.fleet.scheduler:BandwidthAwareScheduler.try_place",
          "fleet.schedule", _note_place),
    Probe("repro.fleet.scheduler:BandwidthAwareScheduler.drain",
          "fleet.schedule"),
    Probe("repro.fleet.machine:Machine.step", "fleet.machine_step",
          _note_machine_step),
    Probe("repro.fleet.cluster:Fleet.run", "fleet.run", _note_fleet_run),
    Probe("repro.profiling.profiler:FleetProfiler.__call__",
          "profiling.sample"),
    Probe("repro.profiling.profiler:FleetProfiler.sample_machine",
          "profiling.sample", _note_sample),
    Probe("repro.core.daemon:LimoncelloDaemon.step", "core.control"),
    Probe("repro.core.controller:HardLimoncelloController.observe",
          "core.control", _note_observe),
    Probe("repro.workloads.memo:memoized_fleet_mix", "workloads.build",
          _note_build),
    Probe("repro.scenarios.tenancy:emit_request", "workloads.build",
          _note_build),
    Probe("repro.access:interleave", "workloads.build", _note_build),
    Probe("repro.microbench.memcpy_bench:memcpy_call_trace",
          "workloads.build", _note_build),
    Probe("repro.core.soft.injector:SoftwarePrefetchInjector.inject",
          "core.soft.inject", _note_inject),
    Probe("repro.fleet.queue:ShardCheckpoint.journal", "fleet.queue.journal",
          _note_journal),
    Probe("repro.fleet.ablation:AblationResult.merge", "study.merge"),
    Probe("repro.fleet.sweep:MicroSweepResult.merge", "study.merge"),
    Probe("repro.scenarios.tenancy:NoisyNeighborResult.merge",
          "study.merge"),
)

#: Layers whose self time is reported, as ``<layer>_s``.
TIMED_LAYERS = (
    "memsys.lockstep", "memsys.scalar", "memsys.run_many",
    "fleet.socket_step", "fleet.schedule", "fleet.machine_step", "fleet.run",
    "profiling.sample", "core.control", "workloads.build",
    "core.soft.inject", "fleet.queue.journal", "study.merge",
)

#: ``BatchOccupancy`` fallback reasons, each reported as
#: ``memsys.fallback.<reason>``; any other reason lands in ``other``.
FALLBACK_REASONS = (
    "batching-off", "slow-engine", "uncompiled-trace", "no-numpy", "tracer",
    "unsafe-prefetcher", "external-load", "prune-bound", "prune-bailout",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if "_ns_per_" in name:
        return "ns"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    if name.endswith("_arms") and ".mean_" in name:
        return "arms"
    return "count"


def is_timing(name: str) -> bool:
    """Whether a per-layer metric is a host timing (reported as a median)
    rather than a count that must repeat exactly."""
    return unit_of(name) in ("s", "ns", "us") or name in (
        "study.unattributed_share", "trace.overhead_frac")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(layers: Dict[str, float], counts: Dict[str, float],
                  occupancy: Optional[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``layers`` maps span names to summed self seconds (from
    :func:`spans.rep_layers`), ``counts`` holds the probes' counters and
    ``occupancy`` is the study's ``BatchOccupancy.to_dict()`` (``None``
    for studies without one). Layers that did not run report 0.
    """
    metrics = {f"{layer}_s": layers.get(layer, 0.0) for layer in TIMED_LAYERS}
    get = counts.get
    metrics.update({
        "memsys.lockstep_batches": get("memsys.lockstep_batches", 0),
        "memsys.lockstep_ns_per_arm_record": 1e9 * _ratio(
            metrics["memsys.lockstep_s"], get("memsys.lockstep_arm_records", 0)),
        "memsys.scalar_runs": get("memsys.scalar_runs", 0),
        "memsys.scalar_ns_per_record": 1e9 * _ratio(
            metrics["memsys.scalar_s"], get("memsys.scalar_records", 0)),
        "memsys.llc_misses": get("memsys.llc_misses", 0),
        "memsys.dram_demand_fills": get("memsys.dram_demand_fills", 0),
        "memsys.hw_prefetch_useful_ratio": _ratio(
            get("memsys.useful_prefetches", 0),
            get("memsys.hw_prefetches_issued", 0)),
        "fleet.machine_epochs": get("fleet.machine_epochs", 0),
        "fleet.us_per_machine_epoch": 1e6 * _ratio(
            get("fleet.run_inclusive_s", 0.0), get("fleet.machine_epochs", 0)),
        "fleet.place_ok_ratio": _ratio(get("fleet.place_ok", 0),
                                       get("fleet.place_attempts", 0)),
        "profiling.samples": get("profiling.samples", 0),
        "core.control_steps": get("core.control_steps", 0),
        "core.control_flips": get("core.control_flips", 0),
        "workloads.records": get("workloads.records", 0),
        "core.soft.inject_calls": get("core.soft.inject_calls", 0),
        "fleet.queue.journal_writes": get("fleet.queue.journal_writes", 0),
        "fleet.queue.journal_bytes": get("fleet.queue.journal_bytes", 0),
        "study.unattributed_s": layers.get(ROOT, 0.0),
        "study.traced_s": layers[ROOT + ".total"],
    })
    metrics["study.unattributed_share"] = _ratio(
        metrics["study.unattributed_s"], metrics["study.traced_s"])
    occupancy = occupancy or {"batched_arms": 0, "scalar_arms": 0,
                              "groups": 0, "fallback_reasons": {}}
    metrics["memsys.batched_arms"] = occupancy["batched_arms"]
    metrics["memsys.scalar_arms"] = occupancy["scalar_arms"]
    metrics["memsys.mean_batch_arms"] = _ratio(occupancy["batched_arms"],
                                               occupancy["groups"])
    reasons = dict(occupancy["fallback_reasons"])
    for reason in FALLBACK_REASONS:
        metrics[f"memsys.fallback.{reason}"] = reasons.pop(reason, 0)
    metrics["memsys.fallback.other"] = sum(reasons.values())
    return metrics
