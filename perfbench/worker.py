"""One workload in one fresh interpreter: set up, then repeat the study
back to back for a fixed time (closed loop, one client).

Started by ``run.py``, never by hand. Prints one JSON object on its last
line of standard output. ``--setup-only`` stops once the study is
constructed, so the parent can time set-up in several fresh
interpreters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

from spans import ROOT, Instrumentation, SpanRecorder, rep_layers
from studies import PROBES, WORKLOADS, is_timing, layer_metrics

#: Fewest repetitions of each kind a run makes, however long they take.
MIN_REPS = 2
#: Rounds of one calibration sample (about 0.1 s on an idle core).
CALIBRATION_ROUNDS = 15_000


class _Particle:
    __slots__ = ("x", "v")

    def __init__(self, x: float) -> None:
        self.x, self.v = x, 0.5

    def step(self, dt: float) -> float:
        self.x += self.v * dt
        return self.x


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (method calls, float arithmetic,
    a dict and a sort, like the simulator's own code) takes now.

    A shared machine's speed drifts by tens of percent over minutes;
    the run's median calibration time measures where it stands.
    """
    start = time.perf_counter()
    particles = [_Particle(float(i)) for i in range(64)]
    sums: Dict[int, float] = {}
    for round_ in range(CALIBRATION_ROUNDS):
        total = 0.0
        for particle in particles:
            total += particle.step(0.01)
        sums[round_ & 255] = total
        sorted(sums.values())
    return time.perf_counter() - start


class Outcome:
    """What the repetitions of one run measured."""

    def __init__(self) -> None:
        self.untraced_s: List[float] = []
        #: Calibration samples: one before the first repetition and one
        #: after each untraced repetition.
        self.calibration_s: List[float] = []
        self.traced_s: List[float] = []
        self.errors: List[str] = []
        self.attempted = 0
        #: Per traced repetition: its per-layer metrics.
        self.layers: List[Dict[str, float]] = []


def _occupancy(result) -> Optional[Dict]:
    occupancy = getattr(result, "occupancy", None)
    return occupancy.to_dict() if occupancy is not None else None


def repeat(workload, seed: int, golden: str, seconds: float, scratch: str,
           recorder: Optional[SpanRecorder] = None) -> Outcome:
    """Run repetitions until ``seconds`` have passed and each kind has
    ``MIN_REPS``. With a ``recorder``, untraced and traced repetitions
    alternate; each traced one runs under every probe.

    A repetition fails when it raises or its digest is not ``golden``.
    """
    from repro.workloads.memo import clear_trace_memo

    outcome = Outcome()
    outcome.calibration_s.append(calibrate())
    begin = time.monotonic()
    rep = 0
    while True:
        traced = recorder is not None and rep % 2 == 1
        result = None
        clear_trace_memo()
        gc.collect()
        outcome.attempted += 1
        try:
            if traced:
                with Instrumentation(PROBES, recorder):
                    recorder.begin_rep(rep)
                    root = recorder.open(ROOT)
                    try:
                        result = workload.run(workload.study(seed), scratch)
                    finally:
                        recorder.close(root)
                outcome.traced_s.append(
                    recorder.ends[root] - recorder.starts[root])
            else:
                start = time.perf_counter()
                result = workload.run(workload.study(seed), scratch)
                outcome.untraced_s.append(time.perf_counter() - start)
                outcome.calibration_s.append(calibrate())
            digest = workload.digest(result)
            if digest != golden:
                outcome.errors.append(
                    f"rep {rep}: digest {digest} != golden {golden}")
            elif traced:
                outcome.layers.append(_traced_metrics(
                    recorder, rep, _occupancy(result)))
        except Exception:  # one failed repetition must not end the run
            outcome.errors.append(
                f"rep {rep}: " + traceback.format_exc(limit=3).strip())
        result = None
        rep += 1
        enough = (len(outcome.untraced_s) >= MIN_REPS
                  and (recorder is None or len(outcome.traced_s) >= MIN_REPS))
        # The attempt cap ends a run whose repetitions keep raising.
        if time.monotonic() - begin >= seconds and (
                enough or outcome.attempted >= 4 * MIN_REPS):
            return outcome


def _traced_metrics(recorder: SpanRecorder, rep: int,
                    occupancy: Optional[Dict]) -> Dict[str, float]:
    layers = rep_layers(recorder)[rep]
    return layer_metrics(layers, recorder.counts[rep], occupancy)


def summarize_traced(outcome: Outcome) -> Dict:
    """Per-layer metrics over the traced repetitions: the median of each
    timing, and each count as measured, provided every repetition
    counted the same. Adds the tracing overhead against the untraced
    repetitions."""
    first = outcome.layers[0]
    metrics = {}
    for name in first:
        if is_timing(name):
            metrics[name] = statistics.median(
                layer[name] for layer in outcome.layers)
        else:
            metrics[name] = first[name]
    repeated = all(layer[name] == first[name]
                   for layer in outcome.layers for name in first
                   if not is_timing(name))
    untraced = statistics.median(outcome.untraced_s)
    metrics["study.untraced_s"] = untraced
    metrics["trace.overhead_frac"] = metrics["study.traced_s"] / untraced - 1.0
    return {"metrics": metrics, "counts_repeat": repeated}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--study-seed", type=int, required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", default="",
                        help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"worker: REPRO_* variables reached the worker: "
                         f"{leaked}")
    workload = WORKLOADS[args.workload]
    workload.study(args.study_seed)  # imports plus one construction
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready,
                          "calibration_s": [calibrate(), calibrate()]}))
        return 0

    recorder = SpanRecorder() if args.trace else None
    outcome = repeat(workload, args.study_seed, args.golden, args.seconds,
                     args.scratch, recorder)
    report = {
        "ready": ready,
        "attempted": outcome.attempted,
        "errors": outcome.errors,
        "untraced_s": outcome.untraced_s,
        "calibration_s": outcome.calibration_s,
        "traced_s": outcome.traced_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        if outcome.layers:
            report.update(summarize_traced(outcome))
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
