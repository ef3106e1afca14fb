"""Bit-identity of the fleet epoch hot path against its original form.

``SimulatedSocket.step`` runs its damped fixed point as one flat loop
over hoisted per-task constants, the scheduler reads cached socket
aggregates, and the profiler reads per-function coefficients from a
table. Each of these must produce exactly the numbers of the
straightforward formulation it replaced, so every study digest stays
put. This module keeps that formulation *here only*, as the oracle:

* ``ReferenceStep`` — the per-task ``Task.speed``/``offered_bandwidth``
  fixed point, method calls and all;
* ``reference_place`` — admission with the socket aggregates summed
  afresh on every call;
* ``ReferenceProfiler`` — the per-function ``ResponseTable`` lookups
  and ``ProfileData.record`` calls.

The oracles sum with :func:`repro.summation.left_sum`, the
left-to-right accumulation builtin ``sum()`` performed before Python
3.12, so they mean the same thing on every interpreter.
"""

import random
from typing import List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import (DEFAULT_RESPONSES, PLATFORM_1, Fleet, Machine,
                         SimulatedSocket, Task)
from repro.fleet.scheduler import BandwidthAwareScheduler
from repro.fleet.socket import SocketEpoch
from repro.profiling import FleetProfiler
from repro.summation import left_sum
from repro.units import SECOND
from tests.hypothesis_profiles import scaled

FUNCTIONS = DEFAULT_RESPONSES.names()


# --- oracles -----------------------------------------------------------------


class ReferenceStep:
    """The fixed point as written before it was flattened.

    Holds its own copy of the state ``SimulatedSocket.step`` carries
    between epochs and reads everything else off the real socket, so it
    can run one epoch ahead of the socket under test on the same inputs.
    """

    def __init__(self, socket: SimulatedSocket) -> None:
        self.socket = socket
        self.last_utilization = 0.0
        self.last_hw_state: Optional[bool] = None
        self.toggles = 0

    def step(self, now_ns: float, duration_ns: float = SECOND,
             demand_factor: float = 1.0) -> SocketEpoch:
        socket = self.socket
        hw_on = socket.hw_prefetchers_on
        load = self.last_utilization
        capacity = socket.platform.saturation_bandwidth
        bandwidth = 0.0
        for _ in range(socket.ITERATIONS):
            latency_ratio = (socket.latency_at(load)
                             / socket._unloaded_latency)
            bandwidth = demand_factor * left_sum(
                task.offered_bandwidth(
                    task.speed(latency_ratio, hw_on, socket.soft_deployed),
                    hw_on)
                for task in socket.tasks)
            load += socket.DAMPING * (bandwidth / capacity - load)
        bandwidth = load * capacity

        latency_ns = socket.latency_at(load)
        latency_ratio = latency_ns / socket._unloaded_latency
        qps = left_sum(
            task.base_qps
            * task.speed(latency_ratio, hw_on, socket.soft_deployed)
            for task in socket.tasks) * (duration_ns / SECOND)
        if self.last_hw_state is not None and hw_on != self.last_hw_state:
            self.toggles += 1
            qps *= 1.0 - socket.TOGGLE_PENALTY
        self.last_hw_state = hw_on
        self.last_utilization = load
        return SocketEpoch(
            time_ns=now_ns,
            bandwidth=bandwidth,
            utilization=bandwidth / (socket._dram.config.max_utilization
                                     * socket.platform.saturation_bandwidth),
            latency_ns=latency_ns,
            qps=qps,
            cores_used=left_sum(task.cores for task in socket.tasks),
            hw_prefetchers_on=hw_on,
        )


def fresh_estimate(socket: SimulatedSocket, prefetch_aware: bool) -> float:
    hw_on = socket.hw_prefetchers_on if prefetch_aware else True
    return left_sum(task.estimated_bandwidth(hw_on) for task in socket.tasks)


def reference_place(scheduler: BandwidthAwareScheduler, task: Task,
                    machines) -> Optional[SimulatedSocket]:
    """The socket ``try_place`` must pick, from freshly summed aggregates
    (nothing is placed)."""
    best: Optional[Tuple[float, SimulatedSocket]] = None
    for machine in machines:
        for socket in machine.sockets:
            cores_free = socket.cores - left_sum(t.cores for t in socket.tasks)
            if cores_free < task.cores:
                continue
            hw_view = (socket.hw_prefetchers_on if scheduler.prefetch_aware
                       else True)
            projected = (fresh_estimate(socket, scheduler.prefetch_aware)
                         + task.estimated_bandwidth(hw_view))
            saturation = (socket._dram.config.max_utilization
                          * socket.platform.saturation_bandwidth)
            if projected > scheduler.bandwidth_headroom * saturation:
                continue
            score = projected / saturation
            if best is None or score < best[0]:
                best = (score, socket)
    return None if best is None else best[1]


class ReferenceProfiler(FleetProfiler):
    """The per-function sampling loop as written before the table."""

    def _sample_task(self, task, latency_ratio, hw_on, soft):
        base_slowdown = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)
        slowdowns = {}
        for function, share in task.function_shares.items():
            if share <= 0.0:
                continue
            slowdown = base_slowdown
            if not hw_on:
                slowdown += self.responses[function].effective_penalty(soft)
            slowdowns[function] = max(slowdown, 1e-6)
        weight_total = left_sum(task.function_shares[fn] * s
                                for fn, s in slowdowns.items())
        if weight_total <= 0.0:
            return
        task_cycles = task.cores * 1_000_000
        for function, slowdown in slowdowns.items():
            share = task.function_shares[function]
            cycles = task_cycles * share * slowdown / weight_total
            instructions = cycles / slowdown
            mpki = self.responses[function].mpki(hw_on, soft)
            self.data.record(
                function=function,
                instructions=instructions,
                cycles=cycles,
                llc_misses=mpki * instructions / 1000.0,
            )


# --- strategies --------------------------------------------------------------

shares_st = st.dictionaries(
    st.sampled_from(FUNCTIONS),
    st.floats(0.0, 1.0, allow_nan=False) | st.just(0.0),
    min_size=1, max_size=len(FUNCTIONS),
).filter(lambda shares: sum(shares.values()) > 0)

#: (cores, bandwidth demand, memory boundedness, base QPS, shares, noise)
task_st = st.tuples(
    st.floats(0.5, 8.0),
    st.floats(0.0, 90.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2000.0),
    shares_st,
    st.floats(0.2, 3.0),
)

epoch_st = st.tuples(
    st.booleans(),                      # flip hardware prefetchers
    st.booleans(),                      # flip soft_deployed
    st.just(0.0) | st.floats(0.0, 3.0),  # demand_factor (0.0: machine down)
    st.lists(st.floats(0.2, 3.0), max_size=12),  # fresh task noise
)


def make_task(index: int, params) -> Task:
    cores, demand, boundedness, qps, shares, noise = params
    made = Task(name=f"t{index}", cores=cores, base_qps=qps,
                bandwidth_demand=demand, memory_boundedness=boundedness,
                function_shares=shares)
    made.noise = noise
    return made


def populate(socket: SimulatedSocket, task_params) -> SimulatedSocket:
    for index, params in enumerate(task_params):
        candidate = make_task(index, params)
        if candidate.cores <= socket.cores_free:
            socket.add_task(candidate)
    return socket


def populated_socket(task_params) -> SimulatedSocket:
    return populate(SimulatedSocket(PLATFORM_1), task_params)


# --- the fixed point ---------------------------------------------------------


def run_both(socket: SimulatedSocket, epochs, hw_start: bool,
             soft_start: bool) -> List[SocketEpoch]:
    socket.force_prefetchers(hw_start)
    socket.soft_deployed = soft_start
    reference = ReferenceStep(socket)
    seen = []
    for tick, (flip_hw, flip_soft, demand_factor, noises) in enumerate(
            epochs):
        if flip_hw:
            socket.force_prefetchers(not socket.hw_prefetchers_on)
        if flip_soft:
            socket.soft_deployed = not socket.soft_deployed
        for task, noise in zip(socket.tasks, noises):
            task.noise = noise
        expected = reference.step(tick * SECOND, SECOND, demand_factor)
        actual = socket.step(tick * SECOND, SECOND, demand_factor)
        assert actual == expected
        assert socket.toggles == reference.toggles
        assert socket._last_utilization == reference.last_utilization
        assert socket.memory_bandwidth(0.0) == expected.bandwidth
        seen.append(actual)
    return seen


class TestFixedPointBitIdentity:
    @settings(max_examples=scaled(60))
    @given(task_params=st.lists(task_st, max_size=10),
           epochs=st.lists(epoch_st, min_size=1, max_size=6),
           hw_start=st.booleans(), soft_start=st.booleans())
    @example(task_params=[], epochs=[(False, False, 1.0, [])],
             hw_start=True, soft_start=False)
    @example(task_params=[], epochs=[(True, True, 0.0, [])] * 3,
             hw_start=False, soft_start=True)
    def test_every_field_matches_the_reference(self, task_params, epochs,
                                               hw_start, soft_start):
        run_both(populated_socket(task_params), epochs, hw_start,
                 soft_start)

    def test_overloaded_socket_matches_past_max_utilization(self):
        params = [(6.0, 80.0, 0.6, 600.0, {"memcpy": 0.5, "hash": 0.5},
                   1.5)] * 7
        epochs = [(tick % 2 == 1, tick == 2, 1.8, []) for tick in range(5)]
        seen = run_both(populated_socket(params), epochs, True, False)
        assert max(epoch.utilization for epoch in seen) > 1.0

    def test_latency_pow_is_not_a_square(self):
        """The curve's ``u ** exponent`` differs from ``u * u`` in the last
        bit for about 0.1% of loads; start one iteration at such loads."""
        draw = random.Random(7)
        loads = []
        while len(loads) < 200:
            load = draw.uniform(0.0, 0.9)
            if load * load != load ** 2.0:
                loads.append(load)
        params = [(4.0, 25.0, 0.7, 400.0, {"memcpy": 1.0}, 1.0)] * 4
        for load in loads:
            socket = populated_socket(params)
            socket.ITERATIONS = 1
            socket._last_utilization = load
            reference = ReferenceStep(socket)
            reference.last_utilization = load
            assert socket.step(0.0) == reference.step(0.0)

    def test_chaos_down_epochs_match(self):
        params = [(4.0, 30.0, 0.5, 400.0, {"memset": 1.0}, 1.0)] * 5
        epochs = [(False, False, 1.0, [])] * 3 + [(True, False, 0.0, [])] * 3
        seen = run_both(populated_socket(params), epochs, True, True)
        assert seen[-1].bandwidth < seen[2].bandwidth


# --- cached admission aggregates ---------------------------------------------


def assert_aggregates_fresh(machines) -> None:
    for machine in machines:
        for socket in machine.sockets:
            cores_used = left_sum(task.cores for task in socket.tasks)
            assert socket.cores_used == cores_used
            assert socket.cores_free == socket.cores - cores_used
            for aware in (False, True):
                assert (socket.estimated_bandwidth(aware)
                        == fresh_estimate(socket, aware))


op_st = st.one_of(
    st.tuples(st.just("place"), task_st),
    st.tuples(st.just("add"), task_st, st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("msr"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("drain"), st.integers(0, 4), st.integers(0, 99)),
)


class TestAggregateCache:
    @settings(max_examples=scaled(60))
    @given(ops=st.lists(op_st, max_size=25), aware=st.booleans(),
           headroom=st.floats(0.3, 1.0))
    def test_aggregates_track_every_mutation(self, ops, aware, headroom):
        machines = [Machine(f"m{i}", PLATFORM_1, sockets=2)
                    for i in range(2)]
        sockets = [s for machine in machines for s in machine.sockets]
        scheduler = BandwidthAwareScheduler(bandwidth_headroom=headroom,
                                            prefetch_aware=aware)
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "place":
                candidate = make_task(index, op[1])
                expected = reference_place(scheduler, candidate, machines)
                assert scheduler.try_place(candidate, machines) is expected
            elif kind == "add":
                candidate = make_task(index, op[1])
                socket = sockets[op[2]]
                if candidate.cores <= socket.cores_free:
                    socket.add_task(candidate)
            elif kind == "remove":
                placed = [(s, t) for s in sockets for t in s.tasks]
                if placed:
                    socket, victim = placed[op[1] % len(placed)]
                    socket.remove_task(victim)
            elif kind == "msr":
                sockets[op[1]].force_prefetchers(op[2])
            else:
                scheduler.drain(machines, op[1], random.Random(op[2]))
            assert_aggregates_fresh(machines)

    def test_aware_placement_after_msr_flip(self):
        machines = [Machine("m", PLATFORM_1, sockets=2)]
        scheduler = BandwidthAwareScheduler(bandwidth_headroom=0.8,
                                            prefetch_aware=True)
        params = (6.0, 20.0, 0.5, 600.0, {"memset": 1.0}, 1.0)
        for index in range(6):
            scheduler.place(make_task(index, params), machines)
        busy = machines[0].sockets[0]
        before = busy.estimated_bandwidth(prefetch_aware=True)
        busy.force_prefetchers(False)
        after = busy.estimated_bandwidth(prefetch_aware=True)
        assert after < before
        assert after == fresh_estimate(busy, True)
        for index in range(6, 12):
            candidate = make_task(index, params)
            expected = reference_place(scheduler, candidate, machines)
            assert scheduler.try_place(candidate, machines) is expected
            assert_aggregates_fresh(machines)


# --- profiler sampling -------------------------------------------------------


def sampled_fleet(hw_on: bool, soft: bool) -> Fleet:
    fleet = Fleet(machines=6, seed=13)
    fleet.force_prefetchers(hw_on)
    if soft:
        fleet.deploy_soft_limoncello()
    fleet.run(4)
    return fleet


class TestProfilerTable:
    def test_profiles_match_the_per_function_loop(self):
        for hw_on in (True, False):
            for soft in (False, True):
                fleet = sampled_fleet(hw_on, soft)
                table = FleetProfiler(sample_rate=1.0)
                reference = ReferenceProfiler(sample_rate=1.0)
                for machine in fleet.machines:
                    table.sample_machine(machine)
                    reference.sample_machine(machine)
                got = table.data.as_mapping()
                want = reference.data.as_mapping()
                assert list(got) == list(want)
                assert got == want
                assert table.data.samples == reference.data.samples
                assert len(got) > 0

    @settings(max_examples=scaled(60))
    @given(task_params=st.lists(task_st, min_size=1, max_size=8),
           hw_on=st.booleans(), soft=st.booleans(),
           demand_factor=st.floats(0.0, 2.0))
    def test_random_sockets_match(self, task_params, hw_on, soft,
                                  demand_factor):
        # Near-idle sockets with prefetchers off give slowdowns below 1
        # for the non-tax functions (negative penalty), which exercises
        # the stall-cycle clamp.
        machine = Machine("m", PLATFORM_1, sockets=1)
        socket = populate(machine.sockets[0], task_params)
        socket.force_prefetchers(hw_on)
        socket.soft_deployed = soft
        socket.step(0.0, SECOND, demand_factor)
        table = FleetProfiler(sample_rate=1.0)
        reference = ReferenceProfiler(sample_rate=1.0)
        table.sample_machine(machine)
        reference.sample_machine(machine)
        got = table.data.as_mapping()
        assert list(got) == list(reference.data.as_mapping())
        assert got == reference.data.as_mapping()

    def test_mixed_prefetcher_states_on_one_fleet(self):
        fleet = Fleet(machines=4, seed=21)
        fleet.deploy_soft_limoncello()
        fleet.machines[1].force_prefetchers(False)
        fleet.machines[3].sockets[0].force_prefetchers(False)
        table = FleetProfiler(sample_rate=0.5, rng=random.Random(5))
        reference = ReferenceProfiler(sample_rate=0.5, rng=random.Random(5))
        fleet.run(5, observers=[table, reference])
        assert table.data.as_mapping() == reference.data.as_mapping()
        assert table.data.samples == reference.data.samples > 0
