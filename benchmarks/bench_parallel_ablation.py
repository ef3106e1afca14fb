"""Sharded parallel fleet-ablation engine: correctness and speedup.

A paper-scale (200-machine) ablation study splits into seven balanced
shards. The engine's contract: the parallel result is bit-identical to
the serial result for the same seed, and on a multi-core host the
parallel run finishes materially faster. Equality is asserted
unconditionally; the >= 1.8x wall-clock speedup is asserted where the
host actually has the CPUs to deliver it (process pools cannot beat
serial on a single core).
"""

import os
import time

from repro.fleet import AblationStudy

MACHINES = 200
EPOCHS = 30
WARMUP = 10
SEED = 11
WORKERS = 4

#: Required speedup at WORKERS workers — modest against the theoretical
#: 4x to absorb pool startup and the serial merge.
MIN_SPEEDUP = 1.8


def _study():
    return AblationStudy(mode="off", machines=MACHINES, epochs=EPOCHS,
                         warmup_epochs=WARMUP, seed=SEED)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def run_experiment():
    # cache_dir="" pins caching off: the benchmark times real execution,
    # and the parallel run must not replay the serial run's cache entry.
    start = time.perf_counter()
    serial = _study().run(workers=1, cache_dir="")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = _study().run(workers=WORKERS, cache_dir="")
    parallel_s = time.perf_counter() - start

    return {
        "serial": serial,
        "parallel": parallel,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "shards": len(_study().shard_plan()),
    }


def test_parallel_ablation(benchmark, report):
    outcome = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # Correctness first: worker count must not change a single bit.
    assert outcome["serial"].to_dict() == outcome["parallel"].to_dict()
    assert outcome["shards"] == 7  # ceil(200 / 32)

    # And the sharded study still shows the paper's Table 1 shape.
    reduction = outcome["serial"].bandwidth_reduction()
    assert -0.30 < reduction["mean"] < -0.05

    cores = _available_cores()
    if cores >= WORKERS:
        assert outcome["speedup"] >= MIN_SPEEDUP, (
            f"{outcome['speedup']:.2f}x on {cores} cores")

    lines = [
        f"machines={MACHINES} epochs={EPOCHS} shards={outcome['shards']} "
        f"workers={WORKERS} cores={cores}",
        f"serial:   {outcome['serial_s']:8.2f} s",
        f"parallel: {outcome['parallel_s']:8.2f} s",
        f"speedup:  {outcome['speedup']:8.2f}x "
        f"(assertion {'active' if cores >= WORKERS else 'skipped: too few cores'})",
        "parallel == serial: bit-identical",
    ]
    report("parallel_ablation", "Sharded parallel ablation engine", lines)
