"""Design ablation: the call-size gate on software prefetches.

Section 4.3: "Conditioning software prefetching on larger call sizes for
memcpy allowed us to ensure prefetches are timely enough." This bench
runs a realistic (mostly-small, Figure 14-distributed) memcpy workload
under load with and without the gate, at increasing aggressiveness.
"""

import random

from repro.access import AddressSpace
from repro.core import PrefetchDescriptor, SoftwarePrefetchInjector
from repro.memsys import MemoryHierarchy, PrefetcherBank
from repro.units import KB
from repro.workloads import MemcpySizeDistribution, memcpy_call_trace

BACKGROUND = 0.65


def run_one(descriptor):
    sizes = MemcpySizeDistribution().sample_many(random.Random(5), 120)
    trace = memcpy_call_trace(AddressSpace(), sizes)
    if descriptor is not None:
        trace = SoftwarePrefetchInjector([descriptor]).inject(trace)
    hierarchy = MemoryHierarchy(
        prefetchers=PrefetcherBank([]),
        external_load=BACKGROUND * 3.0)
    return hierarchy.run(trace).elapsed_ns


def run_experiment():
    baseline = run_one(None)
    rows = {}
    for label, gate, clamp in (("no gate, unclamped", 0, False),
                               ("no gate, clamped", 0, True),
                               ("2KiB gate, clamped", 2 * KB, True)):
        descriptor = PrefetchDescriptor(
            "memcpy", distance_bytes=512, degree_bytes=512,
            min_size_bytes=gate, clamp_to_stream=clamp)
        rows[label] = baseline / run_one(descriptor) - 1.0
    return rows


def test_abl_size_gate(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # Each production safeguard helps on the realistic size mix.
    assert rows["no gate, clamped"] >= rows["no gate, unclamped"] - 0.01
    assert rows["2KiB gate, clamped"] >= rows["no gate, unclamped"]
    # The full production descriptor is a clear net win.
    assert rows["2KiB gate, clamped"] > 0.02

    lines = [f"{'descriptor':>22} {'speedup':>9}"]
    for label, speedup in rows.items():
        lines.append(f"{label:>22} {speedup:9.1%}")
    lines.append("Figure 14's size mix: most calls are small, so gating "
                 "and clamping control the waste")
    report("abl_size_gate", "Ablation — software prefetch size gate", lines)
