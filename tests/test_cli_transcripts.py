"""Golden CLI transcripts for every study subcommand.

The study goldens pin what the library computes; these pin what the
command layer prints. Each small invocation below runs through
:func:`repro.cli.main` with every ``REPRO_*`` variable removed, and the
SHA-256 of its stdout is compared with a hex string recorded from the
reference implementation. A refactor of the command layer (flag
plumbing, the study driver, the shared output tail) must leave every
literal unchanged; an intended change to a printout re-records the
literal and says why.
"""

import hashlib
import os

import pytest

from repro.cli import main

FAULTS = "seed=2;telemetry-drop:rate=0.2;machine-crash:rate=0.1"
FLEET = ["--machines", "4", "--epochs", "6", "--warmup", "2"]

#: name -> (argv, sha256 of stdout). The default-engine literals
#: (``sweep-compare-serial``, ``callgraph``, ``noisy-baseline``) were
#: re-recorded when ``run_many`` gained its cost model: only their
#: ``engine:`` line changed, to report these small groups as scalar
#: ``below-crossover`` runs.
TRANSCRIPTS = {
    "ablation": (
        ["ablation", "--mode", "hard", *FLEET, "--shard-size", "2"],
        "bb7dddd5e50ba6fe91bb12279aba9caaf88f541bea42cbd8f83cf61815180916"),
    "ablation-faults": (
        ["ablation", "--mode", "hard", *FLEET, "--shard-size", "2",
         "--fault-plan", FAULTS],
        "28a56326321b35a5ad771a6b1a4737fa60b03a72b248b120e2cd644136ba9d3b"),
    "rollout": (
        ["rollout", "--machines", "4", "--epochs", "5", "--warmup", "2"],
        "735bcaed903e98577ff92dd5d921d20d4d50ddaff459bc877eb396806f1138f1"),
    "sweep-compare-serial": (
        ["sweep", "--mode", "control", "--machines", "4", "--scale", "0.1",
         "--shard-size", "2", "--compare-serial"],
        "db051fa3327b252b9a6da07a32ddb06378e9eda365c681923d3efe9e892cc300"),
    "sweep-scalar": (
        ["sweep", "--mode", "control", "--machines", "4", "--scale", "0.1",
         "--batch-size", "0"],
        "6c22fd3342764d726e79e39acc5001349f98d32cebda04ec0246afcd40ffc64e"),
    "chaos": (
        ["chaos", *FLEET, "--shard-size", "2", "--fault-plan", FAULTS],
        "e3401e36ae322745313be430f8fc5cdff85a42af1e9910a21e87bcde7225f273"),
    "policy-compare": (
        ["policy", "compare", "--policies", "hysteresis,single-threshold",
         *FLEET],
        "518b7a13175454d27f7541d75a264b4941335b0d0d2325fa02a53eb946c91f99"),
    "callgraph": (
        ["scenario", "callgraph", "--services",
         "edge:mixed:2:8>leaf*2;leaf:random:1:6", "--requests", "4",
         "--seed", "5"],
        "8ba9cd69a5675f0fdd5950cd9f871eba5e6e46ae000f2f018e479154ae8b14e3"),
    "noisy-baseline": (
        ["scenario", "noisy", "--tenants", "lat:stream:6,bat:random:10",
         "--machines", "3", "--epochs", "4", "--seed", "7",
         "--sustain-ns", "20000", "--shard-size", "2", "--baseline"],
        "23fb2255f90346119621c126d4983d867d4395c2a783c724a88cd0cc87572534"),
    "noisy-batch-3": (
        ["scenario", "noisy", "--tenants", "lat:stream:6,bat:random:10",
         "--machines", "3", "--epochs", "4", "--seed", "7",
         "--sustain-ns", "20000", "--batch-size", "3"],
        "5e10605869027af5b780b37699651f71ce3762d203be09cb61b95a9e81c100e5"),
}


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript(name, capsys):
    argv, expected = TRANSCRIPTS[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected, out
