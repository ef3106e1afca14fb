"""The repository's benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-control --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``fleet-ablation``, ``sweep-control``, ``noisy-hard`` and
``memcpy-tune`` (see ``perfbench/README.md``). The seed picks one input
from the workload's pool in ``perfbench/goldens.json``, whose committed
digests check every repetition's result. ``--trace 0`` reports the
end-to-end metrics (``study_s``, ``setup_s``, ``peak_rss_mb``);
``--trace 1`` reports per-layer self times and counts from a traced run.
Each metric is printed by name with its unit and sample count, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up is timed in ``SETUP_SAMPLES`` fresh interpreters; every
``REPRO_*`` variable is removed from their environment. Both times are
scaled to a reference speed by the run's median calibration time
(``worker.calibrate``), because a shared machine's speed drifts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from studies import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
OUT = os.path.join(HERE, "out")

#: Fresh interpreters whose set-up time is measured (the run's own
#: worker is one of them).
SETUP_SAMPLES = 5
#: Seconds a worker may take beyond ``--seconds`` before it is killed.
GRACE_S = 120.0
#: Calibration seconds that define the reference speed (see
#: ``worker.calibrate``): a median host time is reported scaled by this
#: over the median of every calibration sample the run took.
REFERENCE_CALIBRATION_S = 0.1


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_pool_entry(workload: str, seed: int) -> Dict:
    with open(GOLDENS) as handle:
        goldens = json.load(handle)
    if workload not in goldens["workloads"]:
        fail(f"unknown workload {workload!r}; "
             f"known: {sorted(goldens['workloads'])}")
    pool = goldens["workloads"][workload]["pool"]
    return pool[seed % len(pool)]


def clean_env(src: str) -> Dict[str, str]:
    """The parent's environment without any ``REPRO_*`` variable, with
    the package under test on the path and hashing fixed."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def at_reference(seconds: List[float], calibration_s: List[float]) -> float:
    """Median host seconds scaled to the reference speed."""
    return (statistics.median(seconds) * REFERENCE_CALIBRATION_S
            / statistics.median(calibration_s))


def run_worker(args: List[str], env: Dict[str, str],
               timeout: float) -> Tuple[Dict, float]:
    """Start a worker; return its report and the seconds from spawn to
    its ``ready`` mark (its set-up time)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"worker printed nothing: {' '.join(args)}")
    report = json.loads(lines[-1])
    return report, report["ready"] - spawned


def describe(name: str, value: float, unit: str, samples: str) -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        fail(f"no package under test at {src}/repro; "
             "run from the repository root")
    if not os.path.isfile(GOLDENS):
        fail(f"missing {GOLDENS}")
    entry = load_pool_entry(args.workload, args.seed)
    env = clean_env(src)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    base = ["--workload", args.workload,
            "--study-seed", str(entry["seed"]),
            "--golden", entry["digest"], "--scratch", scratch]
    try:
        setups, calibration = [], []
        for _ in range(SETUP_SAMPLES - 1):
            probe, setup = run_worker(base + ["--setup-only"], env, GRACE_S)
            setups.append(setup)
            calibration.extend(probe["calibration_s"])
        spans = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
        report, setup = run_worker(
            base + ["--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--spans", spans],
            env, args.seconds + GRACE_S)
        setups.append(setup)
        calibration.extend(report["calibration_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = report["attempted"]
    failed = len(report["errors"])
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed} -> study seed "
          f"{entry['seed']}  (closed loop, one client)")
    if args.trace:
        correct = correct and bool(report.get("counts_repeat"))
        layer_values = report.get("metrics", {})
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layer_values.items())}
        samples = f"{len(report['traced_s'])} traced repetitions (times: median)"
        for name, metric in metrics.items():
            describe(name, metric["value"], metric["unit"], samples)
        if not report.get("counts_repeat", True):
            print("  FAILED counts differ between traced repetitions")
    elif not report["untraced_s"]:
        correct, metrics = False, {}
    else:
        times = report["untraced_s"]
        metrics = {
            "study_s": {"value": at_reference(times, calibration),
                        "unit": "s"},
            "setup_s": {"value": at_reference(setups, calibration),
                        "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        describe("study_s", metrics["study_s"]["value"], "s",
                 f"median of {len(times)} repetitions, at reference speed")
        describe("setup_s", metrics["setup_s"]["value"], "s",
                 f"median of {len(setups)} fresh interpreters, "
                 "at reference speed")
        describe("study_wall_s", statistics.median(times), "s",
                 "the same repetitions in host seconds")
        describe("setup_wall_s", statistics.median(setups), "s",
                 "the same interpreters in host seconds")
        describe("calibration_s", statistics.median(calibration), "s",
                 f"median of {len(calibration)} calibration samples")
        describe("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
                 "1 process")
    describe("failed_frac", failed / attempted, "ratio",
             f"{failed} of {attempted} repetitions")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
