"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the package under test. Instead it wraps the
public entry points of each layer (a module function, a method, or a
static method) for the duration of a traced repetition and restores the
original objects afterwards. Every wrapped call records one span: its
name, start, end, parent span and repetition id. Spans stay in memory
and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans. Because every span of a repetition
nests inside the repetition's root span, the self times of one
repetition sum to the root span's duration; :func:`rep_layers` checks
that identity.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The name of each repetition's root span. Its self time is the
#: repetition's unattributed time.
ROOT = "study"


class SpanRecorder:
    """Spans kept as parallel columns (cheap to append, cheap to dump).

    Single-threaded by construction: the benchmark runs every study with
    one worker, so an open-span stack gives each span its parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.reps: List[int] = []
        #: Per-repetition counters, filled by the probes' note hooks.
        self.counts: Dict[int, Counter] = {}
        self.rep = -1
        #: Index of the span closed most recently (for note hooks).
        self.last_closed = -1
        self._stack: List[int] = []

    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self.counts[rep] = Counter()

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.reps.append(self.rep)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} was open")
        self.last_closed = index

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, or ``None``."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.rep][name] += value

    def write(self, path: str) -> None:
        """Dump every span (columnar, gzipped JSON)."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        payload = {
            "names": table,
            "name": [ids[name] for name in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "rep": self.reps,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# --- self time ----------------------------------------------------------------

def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(
                (starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def rep_layers(recorder: SpanRecorder, tolerance: float = 1e-6
               ) -> Dict[int, Dict[str, float]]:
    """Per repetition: self seconds summed by span name, plus the root
    span's duration under ``ROOT + '.total'``.

    Raises ``ValueError`` when a repetition's self times do not add up
    to its root span (a span outside the root, or a broken nesting).
    """
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    layers: Dict[int, Dict[str, float]] = {}
    totals: Dict[int, float] = {}
    for index, name in enumerate(recorder.names):
        rep = recorder.reps[index]
        bucket = layers.setdefault(rep, {})
        bucket[name] = bucket.get(name, 0.0) + selfs[index]
        if name == ROOT:
            if recorder.parents[index] != -1 or rep in totals:
                raise ValueError(f"repetition {rep} has a nested root span")
            totals[rep] = recorder.ends[index] - recorder.starts[index]
    for rep, bucket in layers.items():
        if rep not in totals:
            raise ValueError(f"repetition {rep} has spans but no root span")
        accounted = sum(bucket.values())
        if abs(accounted - totals[rep]) > tolerance:
            raise ValueError(
                f"repetition {rep}: self times sum to {accounted!r} s, "
                f"root span lasts {totals[rep]!r} s")
        bucket[ROOT + ".total"] = totals[rep]
    return layers


# --- probes -------------------------------------------------------------------

#: ``note(recorder, args, kwargs, result)``: counts taken at a boundary.
Note = Callable[[SpanRecorder, tuple, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``module:Owner.attr`` or ``module:attr``."""

    target: str
    span: str
    note: Optional[Note] = None

    def owner_and_attr(self):
        module_name, _, path = self.target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        if attr not in vars(owner):
            raise AttributeError(f"{self.target}: not defined on its owner")
        return owner, attr


def _wrap(func, probe: Probe, recorder: SpanRecorder):
    span, note = probe.span, probe.note

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = recorder.open(span)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if note is not None:
            note(recorder, args, kwargs, result)
        return result

    return traced


class Instrumentation:
    """Context manager installing ``probes`` around ``recorder``.

    On exit every wrapped attribute is restored to the exact object it
    held before, so untraced repetitions run unwrapped code.
    """

    def __init__(self, probes: Sequence[Probe],
                 recorder: SpanRecorder) -> None:
        self.probes = list(probes)
        self.recorder = recorder
        self.saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for probe in self.probes:
                owner, attr = probe.owner_and_attr()
                raw = vars(owner)[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        _wrap(raw.__func__, probe, self.recorder))
                else:
                    wrapped = _wrap(raw, probe, self.recorder)
                self.saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)
