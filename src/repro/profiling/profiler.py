"""The sampling fleet profiler.

Each epoch it samples a random subset of machines (the paper's profiler
"samples a limited number of random machines at any given time") and
attributes every sampled task's activity across its function shares,
using the socket's current operating point and the calibration table for
per-function speeds and MPKIs. The result is a :class:`ProfileData` that
the target-identification pipeline consumes directly.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable
from repro.fleet.machine import Machine
from repro.profiling.profile_data import ProfileData

#: Abstract cycles one core contributes per sampled epoch. Only ratios
#: matter downstream; this just keeps instruction counts integral.
_CYCLES_PER_CORE_SAMPLE = 1_000_000


class FleetProfiler:
    """Samples machines and accumulates per-function profiles.

    Instances are callables compatible with ``Fleet.run(observers=...)``.

    Args:
        sample_rate: Probability a machine is profiled in a given epoch.
        responses: Calibration table for per-function MPKI and penalty.
        rng: Dedicated randomness (so profiling does not perturb the
            fleet's own random stream).
    """

    def __init__(self, sample_rate: float = 0.1,
                 responses: ResponseTable = DEFAULT_RESPONSES,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample rate must be in (0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.responses = responses
        #: Per-function ``(penalty, mpki)`` for each ``(hw_on, soft)``
        #: state, read once from ``responses``. The penalty is 0.0 with
        #: prefetchers on (adding it is then exact).
        self._rows = {
            (hw_on, soft): {
                response.name: (
                    0.0 if hw_on else response.effective_penalty(soft),
                    response.mpki(hw_on, soft))
                for response in responses}
            for hw_on in (True, False) for soft in (True, False)}
        self.data = ProfileData()
        self._rng = rng or random.Random(0x9F1E7)

    def __call__(self, now_ns: float, machines: Sequence[Machine],
                 rng: random.Random) -> None:
        """Observer hook: sample some machines this epoch."""
        for machine in machines:
            if self._rng.random() < self.sample_rate:
                self.sample_machine(machine)

    def sample_machine(self, machine: Machine) -> None:
        """Attribute one epoch of one machine's activity per function."""
        for socket in machine.sockets:
            if not socket.history:
                continue
            epoch = socket.history[-1]
            latency_ratio = epoch.latency_ns / socket.latency_at(0.0)
            hw_on = epoch.hw_prefetchers_on
            soft = socket.soft_deployed
            for task in socket.tasks:
                self._sample_task(task, latency_ratio, hw_on, soft)
        self.data.samples += 1

    def _sample_task(self, task, latency_ratio: float, hw_on: bool,
                     soft: bool) -> None:
        rows = self._rows[hw_on, soft]
        base_slowdown = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)
        # Per-function slowdowns first: a function that regresses takes a
        # larger share of the task's (fixed) CPU time, which is exactly
        # what moves the Figure 12/20 cycle-share bars.
        picked = []
        weight_total = 0.0
        for function, share in task.function_shares.items():
            if share <= 0.0:
                continue
            try:
                penalty, mpki = rows[function]
            except KeyError:
                raise ConfigError(
                    f"no response entry for {function!r}") from None
            slowdown = base_slowdown + penalty
            if 1e-6 > slowdown:
                slowdown = 1e-6
            picked.append((function, share, slowdown, mpki))
            weight_total += share * slowdown
        if weight_total <= 0.0:
            return
        self.data.record_task(
            picked, task.cores * _CYCLES_PER_CORE_SAMPLE, weight_total)
