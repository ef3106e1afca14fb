"""Golden-equivalence tests: the batched lockstep engine vs scalar runs.

:func:`repro.memsys.run_many` batches eligible arms through the NumPy
lockstep engine (``repro.memsys.batched``) and must stay **bit-identical**
to running every arm through ``MemoryHierarchy.run`` — every
``RunResult`` float, every per-function stat, every cache and DRAM
counter, and the full post-run hierarchy state. These tests drive both
paths over heterogeneous arm fleets and compare everything, including
the dispatch decisions (which arms batched, which fell back to scalar).

The batched leg passes ``resolve_batch_size(None)`` wherever the batch
size is not itself under test, so CI's ``batched-equivalence`` matrix
still pins it through ``REPRO_BATCH``. Passing it explicitly matters:
a defaulted size lets ``run_many``'s cost model keep these small fleets
on the scalar engine, which would turn the comparison into scalar
against scalar, so each leg also asserts from ``BatchOccupancy`` that
lockstep ran. Tests that assert batch shapes pin
``DEFAULT_BATCH_SIZE`` instead.
"""

import pytest

from repro.access import AccessKind, MemoryAccess, Trace
from repro.fleet.parallel import DEFAULT_BATCH_SIZE, resolve_batch_size
from repro.memsys import (
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)
from repro.memsys import batched
from repro.memsys.hierarchy import SLOW_ENGINE_ENV
from repro.memsys.prefetchers.bank import default_prefetcher_bank
from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.memsys.prefetchers.feedback import FeedbackThrottledPrefetcher
from repro.memsys.prefetchers.hinted import HintedRegionPrefetcher
from repro.memsys.prefetchers.nextline import NextLinePrefetcher
from repro.memsys.prefetchers.stream import StreamPrefetcher

pytestmark = pytest.mark.skipif(not batched.HAVE_NUMPY,
                                reason="lockstep engine needs numpy")

STAT_FIELDS = (
    "instructions", "compute_cycles", "stall_cycles", "loads", "stores",
    "software_prefetches", "l1_misses", "l2_misses", "llc_misses",
    "prefetch_covered", "late_prefetch_hits", "dram_wait_ns",
    "late_prefetch_wait_ns",
)

RESULT_FIELDS = (
    "elapsed_ns", "dram_demand_fills", "dram_prefetch_fills",
    "dram_demand_bytes", "dram_prefetch_bytes", "hw_prefetches_issued",
    "useful_prefetches", "wasted_prefetches",
)

CACHE_COUNTERS = ("hits", "misses", "prefetch_hits", "wasted_prefetches",
                  "occupancy")

ARM_LOADS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.75, 0.125,
             0.25, 0.0, 3.0, 0.5, 0.75, 1.5)


def stat_tuple(stats):
    return tuple(getattr(stats, field) for field in STAT_FIELDS)


def cache_contents(cache):
    """Every ``(line, pending)`` in every set, LRU order — state
    equality, not just counters."""
    return {
        index: list(lines.items())
        for index, lines in cache._sets.items()
    }


def bank_state(hierarchy):
    """Counters plus (when the protocol allows) the full training state."""
    bank = hierarchy.prefetchers
    counters = tuple(p.counter_signature() for p in bank)
    if bank.lockstep_safe():
        return (counters, bank.state_fingerprint())
    return (counters, None)


def snapshot(hierarchy, result):
    """Everything observable after a run, as one comparable structure."""
    return {
        "result": tuple(getattr(result, field) for field in RESULT_FIELDS),
        "total": stat_tuple(result.total),
        "functions": {name: stat_tuple(stats)
                      for name, stats in result.functions.items()},
        "function_order": list(result.functions),
        "caches": {
            level: (tuple(getattr(getattr(hierarchy, level), counter)
                          for counter in CACHE_COUNTERS),
                    cache_contents(getattr(hierarchy, level)))
            for level in ("l1", "l2", "llc")
        },
        "dram": (hierarchy.dram.demand_fills, hierarchy.dram.prefetch_fills,
                 hierarchy.dram.demand_bytes, hierarchy.dram.prefetch_bytes,
                 hierarchy.dram._window._sum),
        "now_ns": hierarchy.now_ns,
        "sw_issued": hierarchy.software_prefetches_issued,
        "in_flight": dict(hierarchy._in_flight),
        "recent": list(hierarchy._recent_miss_lines),
        "bank": bank_state(hierarchy),
    }


def build_arms(loads=ARM_LOADS):
    """A heterogeneous lockstep-eligible fleet: empty banks, varied
    external loads (unloaded and loaded arms must co-batch)."""
    return [MemoryHierarchy(prefetchers=PrefetcherBank([]), external_load=load)
            for load in loads]


def make_records():
    """A deterministic trace exercising every record kind and edge."""
    records = []
    for i in range(400):
        records.append(MemoryAccess(address=i * 8, size=8, pc=1,
                                    function="stream"))
    for i in range(120):
        records.append(MemoryAccess(
            address=1 << 20 | i * 256, size=256, kind=AccessKind.STORE,
            pc=2, function="writer", gap_cycles=3))
    for i in range(120):
        records.append(MemoryAccess(
            address=(2 << 20) + (i + 8) * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=3, function="reader"))
        records.append(MemoryAccess(
            address=(2 << 20) + i * 64, size=64, pc=4, function="reader"))
    records.append(MemoryAccess(
        address=3 << 20, size=64 * 64, kind=AccessKind.STREAM_HINT,
        pc=5, function="hinted"))
    for i in range(64):
        records.append(MemoryAccess(address=(3 << 20) + i * 64, size=64,
                                    pc=6, function="hinted"))
    base = 5 << 20
    for i in range(150):
        records.append(MemoryAccess(
            address=base + (i * 7919 % 4096) * 64, size=8, pc=7,
            function="chase", gap_cycles=i % 5))
    # Adjacent-line pairs in both directions (sequential-MLP edges).
    for offset in (0, 64, 128):
        records.append(MemoryAccess(address=base + offset, size=8, pc=7,
                                    function="chase"))
    return records


def lockstep_size():
    """The batched legs' size: ``REPRO_BATCH`` when set, else the
    default — passed explicitly, which forces lockstep at any group
    size."""
    return resolve_batch_size(None)


def assert_lockstep_ran(occupancy, size, arms):
    """At a positive size every arm of an all-eligible fleet batched."""
    if size > 0:
        assert occupancy.batched_arms == arms, occupancy.to_dict()


def assert_batched_matches_scalar(records, loads=ARM_LOADS,
                                  batch_size=None, split=None,
                                  expect_lockstep=True):
    """Both paths over the same arms must agree on everything.

    ``split`` optionally cuts the records into two back-to-back
    ``run_many`` calls to exercise warm-state continuation.
    """
    if split is None:
        traces = [Trace(records)]
    else:
        traces = [Trace(records[:split]), Trace(records[split:])]
    if batch_size is None:
        batch_size = lockstep_size()
    scalar_arms = build_arms(loads)
    batched_arms = build_arms(loads)
    for trace in traces:
        occupancy = batched.BatchOccupancy()
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        batched_results = run_many(batched_arms, trace,
                                   batch_size=batch_size,
                                   occupancy=occupancy)
        if expect_lockstep:
            assert_lockstep_ran(occupancy, batch_size, len(loads))
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm])), (
                f"arm {arm} diverged")


def spy_lockstep(monkeypatch):
    """Record every run_lockstep call's arm count, without changing it."""
    calls = []
    original = batched.run_lockstep

    def spy(hierarchies, compiled, export_state=True):
        calls.append(len(hierarchies))
        return original(hierarchies, compiled, export_state=export_state)

    monkeypatch.setattr(batched, "run_lockstep", spy)
    return calls


class TestGoldenEquivalence:
    def test_mixed_arms_match_scalar(self):
        assert_batched_matches_scalar(make_records())

    def test_batch_size_one_equals_scalar(self):
        """The lockstep engine's degenerate case: one-arm batches."""
        assert_batched_matches_scalar(make_records(), batch_size=1)

    def test_uneven_final_batch(self):
        """13 arms at batch size 4: three full batches plus a remainder."""
        assert_batched_matches_scalar(make_records(), batch_size=4)

    def test_batch_larger_than_fleet(self):
        assert_batched_matches_scalar(make_records(), batch_size=512)

    def test_warm_state_continuation(self):
        """Back-to-back run_many calls on the same arms agree."""
        assert_batched_matches_scalar(make_records(), split=500)

    def test_empty_trace(self):
        assert_batched_matches_scalar([])

    def test_single_arm(self):
        assert_batched_matches_scalar(make_records(), loads=(0.5,))


class TestDispatch:
    def test_enabled_arm_batches_in_own_group(self, monkeypatch):
        """An arm with live (lockstep-safe) hardware prefetchers now
        batches — in its own one-arm group, since its bank signature
        differs from the empty-bank arms' — and results still come back
        bit-identical, in input order."""
        calls = spy_lockstep(monkeypatch)
        loads = (0.0, 0.5, 1.0, 0.25)

        def fleet():
            arms = build_arms(loads)
            hot = MemoryHierarchy(prefetchers=default_prefetcher_bank(),
                                  external_load=0.5)
            arms.insert(2, hot)
            return arms

        trace = Trace(make_records())
        batched_arms = fleet()
        batched_results = run_many(batched_arms, trace,
                                   batch_size=DEFAULT_BATCH_SIZE)
        assert sorted(calls) == [1, len(loads)]  # own group, not scalar

        scalar_arms = fleet()
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_unsafe_prefetcher_falls_back_to_scalar(self, monkeypatch):
        """A custom prefetcher without the lockstep protocol keeps its
        arm on the scalar engine (``lockstep_safe`` defaults to False),
        and the occupancy summary names the reason."""

        class OpaquePrefetcher(HardwarePrefetcher):
            def _observe(self, line, pc, was_hit):
                return [] if was_hit else [line + 64]

        calls = spy_lockstep(monkeypatch)
        loads = (0.0, 0.5, 1.0)

        def fleet():
            arms = build_arms(loads)
            arms.insert(1, MemoryHierarchy(
                prefetchers=PrefetcherBank([OpaquePrefetcher("opaque")])))
            return arms

        trace = Trace(make_records())
        occupancy = batched.BatchOccupancy()
        batched_arms = fleet()
        batched_results = run_many(batched_arms, trace,
                                   batch_size=lockstep_size(),
                                   occupancy=occupancy)
        assert sum(calls) == len(loads)  # the opaque arm stayed scalar
        summary = occupancy.to_dict()
        assert summary["batched_arms"] == len(loads)
        assert summary["fallback_reasons"] == {"unsafe-prefetcher": 1}

        scalar_arms = fleet()
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_msr_flip_regroups_one_arm(self, monkeypatch):
        """An MSR-style prefetcher flip between runs moves only that arm
        into its own lockstep sub-batch; its batch-mates keep batching
        together."""
        records = make_records()
        traces = [Trace(records[:500]), Trace(records[500:])]

        def fleet():
            arms = []
            for load in (0.0, 0.5, 1.0, 0.25, 1.5, 0.5):
                arm = MemoryHierarchy(
                    prefetchers=default_prefetcher_bank(),
                    external_load=load)
                arm.set_hardware_prefetchers(False)  # co-batched for now
                arms.append(arm)
            return arms, arms[2]

        calls = spy_lockstep(monkeypatch)
        batched_arms, flipper = fleet()
        batched_a = run_many(batched_arms, traces[0],
                             batch_size=DEFAULT_BATCH_SIZE)
        assert sum(calls) == 6  # everyone batched while the bank was off
        calls.clear()
        flipper.set_hardware_prefetchers(True)
        batched_b = run_many(batched_arms, traces[1],
                             batch_size=DEFAULT_BATCH_SIZE)
        assert sorted(calls) == [1, 5]  # flipped arm regrouped, alone

        scalar_arms, scalar_flipper = fleet()
        scalar_a = run_many(scalar_arms, traces[0], batch_size=0)
        scalar_flipper.set_hardware_prefetchers(True)
        scalar_b = run_many(scalar_arms, traces[1], batch_size=0)
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_a[arm])
                    == snapshot(scalar_arms[arm], scalar_a[arm]))
            assert (snapshot(batched_arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_tracer_arm_ineligible_null_tracer_is_not(self, monkeypatch):
        from repro.obs import NULL_TRACER, Tracer

        calls = spy_lockstep(monkeypatch)
        arms = build_arms((0.0, 0.5, 1.0))
        arms[0].obs = NULL_TRACER  # falsy: the no-observability state
        arms[1].obs = Tracer()
        trace = Trace(make_records()[:400])
        batched_results = run_many(arms, trace, batch_size=lockstep_size())
        assert sum(calls) == 2  # the recording tracer forced one arm scalar

        scalar_arms = build_arms((0.0, 0.5, 1.0))
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        for arm in range(3):
            assert (snapshot(arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_batch_env_zero_disables_lockstep(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        calls = spy_lockstep(monkeypatch)
        run_many(build_arms((0.0, 0.5)), Trace(make_records()[:100]))
        assert calls == []

    def test_batch_env_sets_chunking(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "5")
        calls = spy_lockstep(monkeypatch)
        run_many(build_arms(), Trace(make_records()[:100]))
        assert sorted(calls) == [4, 4, 5]  # 13 arms, balanced batches of <=5

    def test_slow_engine_env_disables_lockstep(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "1")
        calls = spy_lockstep(monkeypatch)
        run_many(build_arms((0.0, 0.5)), Trace(make_records()[:100]))
        assert calls == []

    def test_prune_bound_forces_scalar(self, monkeypatch):
        """When the trace could trip the scalar engine's in-flight
        prune (a per-arm-clock comparison lockstep cannot replicate),
        the whole group falls back to scalar — and still agrees."""
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD", 4)
        calls = spy_lockstep(monkeypatch)
        records = [MemoryAccess(
            address=(6 << 20) + i * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=1, function="spray")
            for i in range(64)]
        assert_batched_matches_scalar(records, loads=(0.0, 0.5, 1.0),
                                      expect_lockstep=False)
        assert calls == []


def build_enabled_arms(loads=(0.0, 0.5, 1.0, 0.25)):
    """A lockstep-eligible fleet with live default banks."""
    return [
        MemoryHierarchy(
            prefetchers=default_prefetcher_bank(),
            external_load=load)
        for load in loads
    ]


def exotic_bank():
    """Hinted + feedback-wrapped engines: every lockstep hook in play."""
    return PrefetcherBank([
        HintedRegionPrefetcher(name="hinted_stream", degree=2,
                               lead_lines=8, max_regions=4),
        FeedbackThrottledPrefetcher(
            NextLinePrefetcher(name="l1_next_line", degree=2),
            window=32, gate_below=0.4, ungate_above=0.7,
            tracker_entries=256),
        StreamPrefetcher(distance=8, degree=2),
    ])


class TestEnabledGolden:
    """Bit-identity with hardware prefetchers live — the tentpole."""

    def assert_enabled_fleet_agrees(self, bank_factory, batch_size=None,
                                    split=None):
        records = make_records()
        if split is None:
            traces = [Trace(records)]
        else:
            traces = [Trace(records[:split]), Trace(records[split:])]

        def fleet():
            arms = build_enabled_arms()
            arms.append(MemoryHierarchy(prefetchers=bank_factory()))
            return arms

        if batch_size is None:
            batch_size = lockstep_size()
        scalar_arms, batched_arms = fleet(), fleet()
        for trace in traces:
            occupancy = batched.BatchOccupancy()
            scalar_results = run_many(scalar_arms, trace, batch_size=0)
            batched_results = run_many(batched_arms, trace,
                                       batch_size=batch_size,
                                       occupancy=occupancy)
            assert_lockstep_ran(occupancy, batch_size, len(scalar_arms))
            for arm in range(len(scalar_arms)):
                assert (snapshot(batched_arms[arm], batched_results[arm])
                        == snapshot(scalar_arms[arm],
                                    scalar_results[arm])), (
                    f"arm {arm} diverged")

    def test_default_banks_match_scalar(self):
        self.assert_enabled_fleet_agrees(default_prefetcher_bank)

    def test_hinted_and_feedback_banks_match_scalar(self):
        self.assert_enabled_fleet_agrees(exotic_bank)

    def test_warm_enabled_continuation(self):
        """Trained banks regroup and keep batching across calls."""
        self.assert_enabled_fleet_agrees(default_prefetcher_bank, split=500)

    def test_enabled_small_batches(self):
        self.assert_enabled_fleet_agrees(exotic_bank, batch_size=2)

    def test_hw_prefetches_issued_reported(self):
        arms = build_enabled_arms((0.0, 0.5))
        results = run_many(arms, Trace(make_records()),
                           batch_size=lockstep_size())
        assert results[0].hw_prefetches_issued > 0
        assert (results[0].hw_prefetches_issued
                == sum(p.issued for p in arms[0].prefetchers))


class TestEligibilityEdges:
    def test_epoch_regrouping_sub_batches(self, monkeypatch):
        """Control-mode shape: daemons re-enable some arms' banks
        between trace slices; the next call forms lockstep sub-batches
        keyed by the enabled mask instead of dropping anyone to scalar."""
        records = make_records()
        traces = [Trace(records[:400]), Trace(records[400:])]

        def fleet():
            arms = build_enabled_arms((0.0, 0.5, 1.0, 0.25))
            for arm in arms:
                arm.set_hardware_prefetchers(False)
            return arms

        calls = spy_lockstep(monkeypatch)
        batched_arms = fleet()
        run_many(batched_arms, traces[0], batch_size=DEFAULT_BATCH_SIZE)
        assert calls == [4]
        calls.clear()
        for arm in batched_arms[2:]:
            arm.set_hardware_prefetchers(True)  # the MSR daemon acted
        occupancy = batched.BatchOccupancy()
        batched_b = run_many(batched_arms, traces[1],
                             batch_size=DEFAULT_BATCH_SIZE,
                             occupancy=occupancy)
        assert sorted(calls) == [2, 2]  # two sub-batches, nothing scalar
        assert occupancy.to_dict() == {
            "batched_arms": 4, "scalar_arms": 0, "groups": 2,
            "fallback_reasons": {}}

        scalar_arms = fleet()
        run_many(scalar_arms, traces[0], batch_size=0)
        for arm in scalar_arms[2:]:
            arm.set_hardware_prefetchers(True)
        scalar_b = run_many(scalar_arms, traces[1], batch_size=0)
        for arm in range(4):
            assert (snapshot(batched_arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_tracer_attached_mid_study(self, monkeypatch):
        """An arm that gains a recording tracer between calls falls back
        to scalar for subsequent calls only — and still agrees."""
        from repro.obs import Tracer

        records = make_records()
        traces = [Trace(records[:400]), Trace(records[400:])]
        calls = spy_lockstep(monkeypatch)
        arms = build_enabled_arms((0.0, 0.5, 1.0))
        run_many(arms, traces[0], batch_size=DEFAULT_BATCH_SIZE)
        assert calls == [3]
        calls.clear()
        arms[1].obs = Tracer()
        occupancy = batched.BatchOccupancy()
        batched_b = run_many(arms, traces[1], batch_size=DEFAULT_BATCH_SIZE,
                             occupancy=occupancy)
        assert sum(calls) == 2
        assert occupancy.to_dict()["fallback_reasons"] == {"tracer": 1}

        scalar_arms = build_enabled_arms((0.0, 0.5, 1.0))
        run_many(scalar_arms, traces[0], batch_size=0)
        scalar_b = run_many(scalar_arms, traces[1], batch_size=0)
        for arm in range(3):
            assert (snapshot(arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_prune_bailout_reruns_scalar(self, monkeypatch):
        """Hardware-issue volume crossing the prune threshold mid-batch
        aborts lockstep (the prune keys on per-arm clocks); the chunk
        reruns scalar, with no state leaked from the aborted batch."""
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD", 4)
        # Pure demand loads: no software prefetches, so the static prune
        # bound passes and only the dynamic bailout can catch this.
        trace = Trace(make_records()[:400])
        occupancy = batched.BatchOccupancy()
        arms = build_enabled_arms((0.0, 0.5, 1.0))
        results = run_many(arms, trace, batch_size=lockstep_size(),
                           occupancy=occupancy)
        summary = occupancy.to_dict()
        assert summary["fallback_reasons"] == {"prune-bailout": 3}
        assert summary["batched_arms"] == 0

        scalar_arms = build_enabled_arms((0.0, 0.5, 1.0))
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        for arm in range(3):
            assert (snapshot(arms[arm], results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_fingerprint_cache_stamped_and_invalidated(self):
        """Satellite 1: batch export stamps the shared fingerprint;
        MSR flips, scalar runs, and resets all invalidate it."""
        trace = Trace(make_records()[:300])
        arms = build_enabled_arms((0.0, 0.5))
        run_many(arms, trace, batch_size=lockstep_size())
        for arm in arms:
            assert arm._state_fp_cache is not None
            assert (batched.cached_state_fingerprint(arm)
                    == batched.state_fingerprint(arm))
        sig = batched.cached_config_signature(arms[0])
        assert arms[0]._config_sig_cache is sig
        arms[0].set_hardware_prefetchers(False)  # MSR-style flip
        assert arms[0]._state_fp_cache is None
        arms[1].run(trace)  # scalar run mutates state directly
        assert arms[1]._state_fp_cache is None
        arms[0].reset()
        assert arms[0]._state_fp_cache is None
        # Config is lifetime-immutable: the cache survives everything.
        assert arms[0]._config_sig_cache is sig


class TestExportState:
    def test_export_state_false_matches_results_flushes_caches(self):
        """The sweep path: identical results and counters, no cache
        rebuild."""
        trace = Trace(make_records())
        scalar_arms = build_arms()
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        arms = build_arms()
        results = run_many(arms, trace, batch_size=lockstep_size(),
                           export_state=False)
        for arm in range(len(arms)):
            got, want = results[arm], scalar_results[arm]
            assert (tuple(getattr(got, f) for f in RESULT_FIELDS)
                    == tuple(getattr(want, f) for f in RESULT_FIELDS))
            assert stat_tuple(got.total) == stat_tuple(want.total)
            assert ({n: stat_tuple(s) for n, s in got.functions.items()}
                    == {n: stat_tuple(s) for n, s in want.functions.items()})
            # Counters and clock survive; cache contents do not.
            assert arms[arm].now_ns == scalar_arms[arm].now_ns
            assert (arms[arm].dram.demand_fills
                    == scalar_arms[arm].dram.demand_fills)
            for level in ("l1", "l2", "llc"):
                cache = getattr(arms[arm], level)
                assert cache.occupancy == 0
                assert not cache._sets
                assert (cache.misses
                        == getattr(scalar_arms[arm], level).misses)

    def test_flushed_arms_can_still_run_again(self):
        """export_state=False leaves arms cold but usable.

        Only the cache-behaviour integers can match a truly cold arm:
        the clock and DRAM window survive the flush, so timing floats
        legitimately differ on the rerun.
        """
        count_stats = ("instructions", "loads", "stores",
                       "software_prefetches", "l1_misses", "l2_misses",
                       "llc_misses")
        trace = Trace(make_records()[:300])
        arms = build_arms((0.0, 0.5))
        run_many(arms, trace, batch_size=lockstep_size(), export_state=False)
        # Cold caches again: same misses.
        rerun = run_many(arms, trace, batch_size=lockstep_size())
        cold = build_arms((0.0, 0.5))
        cold_results = run_many(cold, trace, batch_size=0)
        for arm in range(2):
            assert (tuple(getattr(rerun[arm].total, f) for f in count_stats)
                    == tuple(getattr(cold_results[arm].total, f)
                             for f in count_stats))


def spaced_miss_records(count=600):
    """Demand misses spread over several 20 us bandwidth windows, so
    every arm's window evicts as it goes."""
    return [MemoryAccess(address=(9 << 20) + i * 4096, size=8, pc=1,
                         function="scan", gap_cycles=40 if i % 8 == 0 else 0)
            for i in range(count)]


def spy_prunes(monkeypatch):
    """Count calls to each of the lockstep window's two prune paths."""
    calls = {"counted": 0, "sequential": 0}
    for name in calls:
        original = getattr(batched._LockstepBatch, f"_prune_{name}")

        def spy(self, horizon, name=name, original=original):
            calls[name] += 1
            return original(self, horizon)

        monkeypatch.setattr(batched._LockstepBatch, f"_prune_{name}", spy)
    return calls


def odd_entry(window):
    window.add(0.0, 100.0)  # not a whole 64-byte line


def fractional_sum(window):
    for t_ns in (0.0, 1.0, 2.0):
        window.add(t_ns, 64.0)
    window._sum += 0.1


def huge_sum(window):
    # Past 2**53 a double cannot hold every integer: sequential pops of
    # 64.0 round where one subtraction of 64.0 * count does not.
    for t_ns in (0.0, 1.0, 2.0):
        window.add(t_ns, 64.0)
    window._sum = 2.0 ** 60


class TestWindowPrune:
    """The counted window prune and its sequential fallback."""

    def test_whole_line_windows_take_the_counted_prune(self, monkeypatch):
        calls = spy_prunes(monkeypatch)
        assert_batched_matches_scalar(spaced_miss_records(),
                                      loads=(0.0, 0.5, 1.0), batch_size=3,
                                      split=300)
        assert calls["counted"] > 0 and calls["sequential"] == 0

    @pytest.mark.parametrize("tweak", [odd_entry, fractional_sum, huge_sum])
    def test_other_windows_pop_sequentially(self, monkeypatch, tweak):
        """A window the counted prune cannot reproduce bit for bit — an
        entry other than 64.0, or a running sum that is not an exact
        integer below 2**50 — makes the whole batch pop sequentially,
        and it still matches the scalar engine."""
        calls = spy_prunes(monkeypatch)
        trace = Trace(spaced_miss_records())
        loads = (0.0, 0.5, 1.0)
        scalar_arms, batched_arms = build_arms(loads), build_arms(loads)
        for arms in (scalar_arms, batched_arms):
            tweak(arms[1].dram._window)
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        batched_results = run_many(batched_arms, trace, batch_size=3)
        assert calls["sequential"] > 0 and calls["counted"] == 0
        for arm in range(len(loads)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))
            assert (list(batched_arms[arm].dram._window._points)
                    == list(scalar_arms[arm].dram._window._points))
