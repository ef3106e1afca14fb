"""The cost-model dispatch of :func:`repro.memsys.run_many`.

With a defaulted batch size, ``run_many`` sends a group to the lockstep
engine only when :func:`repro.memsys.batched.lockstep_pays` says one
batch beats running its arms scalar, and it decides that per config
group *before* taking any state fingerprint. A chosen size (the
argument or ``REPRO_BATCH``) forces lockstep at any group size. These
tests hold the three legs (defaulted, forced, scalar) bit-identical on
random fleets, count the ``below-crossover`` arms exactly, and check
that a rejected config group is never fingerprinted.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import MemoryAccess, Trace
from repro.fleet.parallel import BATCH_ENV_VAR
from repro.memsys import (
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)
from repro.memsys import batched
from repro.summation import left_sum

from tests.hypothesis_profiles import scaled
from tests.test_batched_engine import snapshot
from tests.test_batched_properties import record_strategy

pytestmark = pytest.mark.skipif(not batched.HAVE_NUMPY,
                                reason="lockstep engine needs numpy")

#: Arm shapes: an empty bank, the default bank on, the default bank
#: off (same config signature as "on", different state and cost).
SHAPES = ("empty", "on", "off")


def warm_trace():
    """A short scan that leaves a few hundred resident lines."""
    return Trace([MemoryAccess(address=(4 << 20) + i * 64, size=8, pc=1,
                               function="warm") for i in range(120)])


def build_fleet(specs):
    """One arm per ``(shape, load, warm)`` spec, warmed on the scalar
    engine, so identical specs build identical arms."""
    arms = []
    for shape, load, warm in specs:
        arm = MemoryHierarchy(
            prefetchers=PrefetcherBank([]) if shape == "empty" else None,
            external_load=load)
        if shape == "off":
            arm.set_hardware_prefetchers(False)
        if warm:
            arm.run(warm_trace())
        arms.append(arm)
    return arms


def rejected_config_groups(arms, records):
    """The config groups the cost model keeps scalar, by arm index
    (``run_many``'s default ``export_state=True``)."""
    groups = {}
    for index, arm in enumerate(arms):
        groups.setdefault(batched.config_signature(arm), []).append(index)
    return [group for group in groups.values()
            if not batched.group_pays(arms[group[0]], len(group), records,
                                      True)]


def expected_below_crossover(arms, records):
    """Arms ``run_many`` must report as ``below-crossover``: whole
    rejected config groups, then rejected state groups of the rest."""
    rejected = {index for group in rejected_config_groups(arms, records)
                for index in group}
    states = {}
    for index, arm in enumerate(arms):
        if index not in rejected:
            key = (batched.config_signature(arm),
                   batched.state_fingerprint(arm))
            states.setdefault(key, []).append(index)
    return len(rejected) + sum(
        len(group) for group in states.values()
        if not batched.group_pays(arms[group[0]], len(group), records,
                                  True))


@pytest.fixture
def defaulted_batch():
    """Clear ``REPRO_BATCH`` so ``batch_size=None`` is truly defaulted
    (CI's equivalence matrix sets it, which forces lockstep)."""
    with mock.patch.dict(os.environ):
        os.environ.pop(BATCH_ENV_VAR, None)
        yield


def _expand(groups):
    """Groups of identical arms (bar their external loads), capped at
    40 arms."""
    specs = []
    for shape, warm, count in groups:
        for _ in range(count):
            index = len(specs)
            load = (index % 5) * 0.25
            specs.append((shape, load, warm))
    return specs[:40]


#: Up to four groups of 1-16 like arms, shuffled: small groups the
#: model keeps scalar and large ones it batches, cold and warm.
fleet_strategy = st.lists(
    st.tuples(st.sampled_from(SHAPES), st.booleans(),
              st.integers(min_value=1, max_value=16)),
    min_size=1, max_size=4).map(_expand).flatmap(st.permutations)


class TestDispatchProperties:
    @given(specs=fleet_strategy,
           records=st.lists(record_strategy, min_size=1, max_size=100),
           forced=st.integers(min_value=1, max_value=40))
    @settings(max_examples=scaled(12), deadline=None)
    def test_default_forced_and_scalar_agree(self, specs, records, forced):
        trace = Trace(records)
        defaulted, chosen, scalar = (build_fleet(specs) for _ in range(3))
        below = expected_below_crossover(defaulted, len(trace))
        rejected = {id(defaulted[index])
                    for group in rejected_config_groups(defaulted, len(trace))
                    for index in group}
        fingerprinted = []
        original = batched.state_fingerprint

        def spy(hierarchy):
            fingerprinted.append(id(hierarchy))
            return original(hierarchy)

        occupancy = batched.BatchOccupancy()
        with mock.patch.dict(os.environ), \
                mock.patch.object(batched, "state_fingerprint", spy):
            os.environ.pop(BATCH_ENV_VAR, None)
            default_results = run_many(defaulted, trace,
                                       occupancy=occupancy)
        forced_occupancy = batched.BatchOccupancy()
        forced_results = run_many(chosen, trace, batch_size=forced,
                                  occupancy=forced_occupancy)
        scalar_results = run_many(scalar, trace, batch_size=0)

        for arm in range(len(specs)):
            want = snapshot(scalar[arm], scalar_results[arm])
            assert snapshot(defaulted[arm], default_results[arm]) == want
            assert snapshot(chosen[arm], forced_results[arm]) == want
        assert occupancy.reasons.get("below-crossover", 0) == below
        assert occupancy.batched_arms == len(specs) - below
        assert forced_occupancy.batched_arms == len(specs)
        # A config group the model rejects is never fingerprinted.
        assert not rejected.intersection(fingerprinted)
        # Every exported window's running sum is the exact sum of its
        # points (whole 64-byte lines: the counted prune's invariant).
        for arm in defaulted + chosen:
            window = arm.dram._window
            assert window._sum == left_sum(
                value for _, value in window._points)


def miss_trace(count=300):
    return Trace([MemoryAccess(address=(8 << 20) + i * 4096, size=8,
                               pc=1, function="scan")
                  for i in range(count)])


class TestDispatch:
    @pytest.mark.parametrize("bank_enabled", [False, True])
    @pytest.mark.parametrize("export_state", [False, True])
    def test_one_arm_never_pays_and_large_cold_groups_do(
            self, bank_enabled, export_state):
        def pays(arms, records, resident):
            return batched.lockstep_pays(arms, records, resident,
                                         bank_enabled, export_state)

        assert not pays(1, 20_000, 0)
        assert pays(32, 20_000, 0)
        # Resident lines cost copies and a fingerprint per arm.
        assert not pays(8, 120, 4_000)

    @pytest.mark.parametrize("batch_size, env", [(1, None), (None, "1")])
    def test_forced_size_puts_one_arm_on_lockstep(self, batch_size, env):
        arm, twin = build_fleet([("on", 0.5, True)] * 2)
        occupancy = batched.BatchOccupancy()
        with mock.patch.dict(os.environ):
            os.environ.pop(BATCH_ENV_VAR, None)
            if env is not None:
                os.environ[BATCH_ENV_VAR] = env
            result = run_many([arm], miss_trace(), batch_size=batch_size,
                              occupancy=occupancy)[0]
        assert occupancy.to_dict() == {
            "batched_arms": 1, "scalar_arms": 0, "groups": 1,
            "fallback_reasons": {}}
        assert snapshot(arm, result) == snapshot(twin, twin.run(miss_trace()))

    def test_defaulted_one_arm_runs_scalar(self, defaulted_batch):
        occupancy = batched.BatchOccupancy()
        run_many(build_fleet([("on", 0.5, False)]), miss_trace(),
                 occupancy=occupancy)
        assert occupancy.to_dict() == {
            "batched_arms": 0, "scalar_arms": 1, "groups": 0,
            "fallback_reasons": {"below-crossover": 1}}

    def test_small_warm_group_is_never_fingerprinted(self, defaulted_batch):
        """The noisy-neighbour shape: a few warm arms replaying a short
        epoch trace stay scalar without walking their caches."""
        arms = build_fleet([("on", 0.25, True)] * 3)
        with mock.patch.object(batched, "state_fingerprint",
                               side_effect=AssertionError("fingerprinted")):
            run_many(arms, miss_trace(120))

    @pytest.mark.parametrize("export_state, batched_arms",
                             [(False, 16), (True, 0)])
    def test_export_moves_the_crossover(self, defaulted_batch,
                                        export_state, batched_arms):
        """16 cold prefetchers-off arms batch on the sweep path (state
        discarded), but not when every arm's caches must be copied
        back out."""
        occupancy = batched.BatchOccupancy()
        run_many(build_fleet([("empty", 0.5, False)] * 16), miss_trace(),
                 export_state=export_state, occupancy=occupancy)
        assert occupancy.batched_arms == batched_arms
        assert occupancy.reasons.get("below-crossover", 0) \
            == 16 - batched_arms
