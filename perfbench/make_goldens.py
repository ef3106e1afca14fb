"""Regenerate ``perfbench/goldens.json``: each workload's seed pool and
the digest every repetition must reproduce.

Run from the repository root (it takes a few minutes)::

    PYTHONPATH=src python3 perfbench/make_goldens.py [--workload NAME]

A pool starts with the study's default seed; the second seed is the
held-out seed. Candidates 1, 2, 3, ... join the pool when their input
size (``size`` of the workload in ``studies.py``) lies within
``TOLERANCE`` of the default seed's, so every pool entry does the same
amount of work and ``study_s`` compares across seeds. The trace-driven
workloads are also checked against the scalar oracle: a digest that
differs there aborts the run and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from studies import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
OUT = os.path.join(HERE, "out")
POOL_SIZE = 8
TOLERANCE = 0.02
MAX_CANDIDATES = 400


def pool_for(workload, scratch: str):
    from repro.workloads.memo import clear_trace_memo

    reference = workload.size(workload.default_seed, scratch)
    pool = []
    candidates = [workload.default_seed] + [
        seed for seed in range(1, MAX_CANDIDATES)
        if seed != workload.default_seed]
    for seed in candidates:
        size = workload.size(seed, scratch)
        if abs(size - reference) > TOLERANCE * reference:
            continue
        clear_trace_memo()
        digest = workload.digest(workload.run(workload.study(seed), scratch))
        oracle = getattr(workload, "oracle_digest", None)
        if oracle is not None:
            clear_trace_memo()
            expected = oracle(seed, scratch)
            if expected != digest:
                raise SystemExit(f"{workload.name} seed {seed}: digest "
                                 f"{digest} differs from the scalar oracle's "
                                 f"{expected}")
        pool.append({"seed": seed, "size": size, "digest": digest})
        print(f"{workload.name}: seed {seed} size {size} {digest[:12]}",
              flush=True)
        if len(pool) == POOL_SIZE:
            return pool
    raise SystemExit(f"{workload.name}: only {len(pool)} of "
                     f"{MAX_CANDIDATES} candidates fit the size tolerance")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="regenerate one workload (default: all)")
    args = parser.parse_args(argv)
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"unset {leaked} first")

    goldens = {"workloads": {}}
    if os.path.exists(GOLDENS):
        with open(GOLDENS) as handle:
            goldens = json.load(handle)
    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="goldens-", dir=OUT)
    try:
        for name in names:
            workload = WORKLOADS[name]
            pool = pool_for(workload, scratch)
            goldens["workloads"][name] = {
                "default_seed": workload.default_seed,
                "held_out_seed": pool[1]["seed"],
                "size_tolerance": TOLERANCE,
                "pool": pool,
            }
            with open(GOLDENS, "w") as handle:
                json.dump(goldens, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
