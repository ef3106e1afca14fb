"""Golden cache keys, shard-task keys and digests for every study kind.

The determinism suites compare two runs of the *same* code, so a change
that moves every key or digest at once (a renamed key field, a reordered
payload dict, a different event) passes them all. This module pins
literal values instead. Each small config below is run through its
study's public ``run()`` and the following are compared with hex strings
recorded from the reference implementation:

* the whole-study cache key (the name of the study's cache entry);
* every shard-task key, traced and untraced where the study keys both;
* the digest of the cached whole-study payload (the result codec);
* the digest of the shard journal's files, byte for byte;
* for the studies with an observability run directory, the event-log
  digest and the manifest ``run``-block digest.

A refactor of the study plumbing must leave every literal unchanged; an
intended change re-records them and says why.
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis import result_digest
from repro.faults import FaultPlan
from repro.fleet import AblationStudy, MicroFleetSweep, RolloutStudy
from repro.fleet.result_cache import StudyResultCache
from repro.fleet.sweep import sweep_digest
from repro.obs import manifest_run_digest, read_manifest
from repro.scenarios import (CallGraphScenario, NoisyNeighborScenario,
                             callgraph_digest, noisy_digest)
from repro.serialization import canonical_json

#: One small config per study kind; each splits into two or more shards.
STUDIES = {
    "ablation": lambda: AblationStudy(
        mode="hard", machines=5, epochs=6, warmup_epochs=2, seed=3,
        shard_size=3),
    "ablation-faults": lambda: AblationStudy(
        mode="hard", machines=4, epochs=6, warmup_epochs=2, seed=4,
        shard_size=2,
        fault_plan=FaultPlan.parse(
            "seed=2;telemetry-drop:rate=0.2;machine-crash:rate=0.1")),
    "rollout": lambda: RolloutStudy(
        machines=4, epochs=5, warmup_epochs=2, seed=5, shard_size=2),
    "sweep": lambda: MicroFleetSweep(
        mode="control", machines=4, seed=17, scale=0.1, shard_size=2),
    "callgraph": lambda: CallGraphScenario(
        services="edge:mixed:2:8>leaf*2;leaf:random:1:6", requests=4,
        seed=5, mode="off"),
    "noisy": lambda: NoisyNeighborScenario(
        tenants="lat:stream:6,bat:random:10", machines=3, epochs=4, seed=7,
        mode="hard", sustain_ns=20_000.0, shard_size=2),
}

#: Studies whose shard-task keys carry a ``traced`` bit.
TRACED_KEYS = ("ablation", "ablation-faults", "rollout")

#: Studies whose ``run()`` writes an observability run directory.
OBSERVED = ("ablation", "ablation-faults", "rollout", "callgraph", "noisy")

#: Each study's own result digest, where it has one.
NATIVE_DIGESTS = {
    "ablation": result_digest,
    "ablation-faults": result_digest,
    "sweep": sweep_digest,
    "callgraph": callgraph_digest,
    "noisy": noisy_digest,
}

#: Recorded from the reference implementation; see the module docstring.
GOLDENS = {
    "ablation": {
        "cache_key":
            "debb90cf95a448039435633a13e0383b7acaf96396cc854e368b0521cdb33c99",
        "events_digest":
            "f9086d4d89c75051cbd81e016a4482855dcccfad002556930bfa5d9ba5ecf7d2",
        "journal_digest":
            "dc6dc47cf6a471bc4d641e38ace628be33615eef3b260fabd4ec6fd1e0ec676f",
        "manifest_run_digest":
            "e2d8ffdd6e836ee3fe6a9d4f4fff4fbff934f1ec381dd331d00fdb0a489a7724",
        "payload_digest":
            "9d927b96cc8acb92096af7b6142dfebcf6cbfa3d882e2a09335e7ec82fbaf247",
        "result_digest":
            "b3d060a35359deaf9a7f60ae3a93c00e7baf771aa30e8acba28e6d70ad5a0378",
        "shard_keys": [
            "150d8335b8499f1c3c469174379cad822a9b1364928c40f5497dbe3f45dbc348",
            "290984f44349e7eb3e15d60bd896d7eabca67e10940b24c87a790c4103d2146a",
        ],
        "traced_shard_keys": [
            "8fd8205fb44ee3120a9dd693fa337b30b7be6663ef0072b162ac6cfc03d1d9cc",
            "bbf21bd61b4e87d73b285ba54e65968e4323c75716e9a4785d8162fc776f6344",
        ],
    },
    "ablation-faults": {
        "cache_key":
            "57db6452cd62e3f7f08dc3690d065b188212040d2a3c3b7dbc1c5cf951418a07",
        "events_digest":
            "7a6604bbcdf63ab071ffef0085f71b4c3d1cd7734f818ed40b97447e58506979",
        "journal_digest":
            "afacfb9ab7a04da00f274497f3336b151a91da3fc5cee3a4b819eff0a25160a2",
        "manifest_run_digest":
            "90804e11e808e72c8d4d4aec910199a2b4b5a3f243305c1015b54cddf57cc8ee",
        "payload_digest":
            "8115ce856a13ef63b621ddc4512934fa2856f0a24b376f0f0fa38622eef2df3b",
        "result_digest":
            "e33549021a42ce80e1002a9f10b2680d46c719b471fa8106afe1ca7d281b96c7",
        "shard_keys": [
            "b18071dac4e914585eb8294039cc0b0cf494413a2a5211ca3e225eae24f6e7f3",
            "5e6cb205687c4c6c6ca941abf7b7d1569d882613b0eec21e522847d3d46d2bca",
        ],
        "traced_shard_keys": [
            "bae90ad65f3b17ed08868f7b29edf3f2e7ca7429e3571d41f833503b8a14d32f",
            "c2ee6766c21d0dff5a3e0fcf3f65b934f1b8ecaebd25366be51ca9ee268a6556",
        ],
    },
    "callgraph": {
        "cache_key":
            "d8666fb9b14095a3cecc40b3567e4d96fa8b2acf3a4b254164d9e58c31ddffea",
        "events_digest":
            "4b55316bb894b13bb837510dcf1f792f8eb1db144b1fa5ad41bd849135eccdea",
        "journal_digest":
            "fdcfe7ceca56f3390d9be9ba7df13f889156b7b0b34d54d02c08aaaa9fbab85b",
        "manifest_run_digest":
            "2869df38f0ea40c8ee7b8a423d44e14a67361c5538a75e04a70ccb0282466d70",
        "payload_digest":
            "9ffa168588febd8de26060537a6d2fca47635f04850715ccbc68f913834516fb",
        "result_digest":
            "9ffa168588febd8de26060537a6d2fca47635f04850715ccbc68f913834516fb",
        "shard_keys": [
            "fca4887c60e8f10d44e43a9813af7c75c4b852fcc0229ac7fd4806efeb1ceb49",
            "1da7f04976318ea5ada12af78e35c521cf3583b89f3c319a174ec0d38181afcd",
        ],
    },
    "noisy": {
        "cache_key":
            "5378ee11f24708bc4c4c127596bf43db012d828420afdf4b9ba3589178147c80",
        "events_digest":
            "e61fbb8474276d43438edc10d886c1ba461d5cbb18082e1ae2e2d38d4f14b7dd",
        "journal_digest":
            "672ecaa79475fa47f838b53084af6255012762b7236717ccd39bad3d3df4fb5c",
        "manifest_run_digest":
            "471d2cb6885f186c380abde92c3e31b0905e0757585fea84179e895bd67ebc5b",
        "payload_digest":
            "0651c0e0b04cfadd8f5695f037cd9c5c544b20e7da9c1601faf114825e588439",
        "result_digest":
            "0651c0e0b04cfadd8f5695f037cd9c5c544b20e7da9c1601faf114825e588439",
        "shard_keys": [
            "d3e2ebfbd380093aea20ff7fe960c87f831819cc47e6da6ba55a6dd7ef013df0",
            "c3a2650038c75c24cb2f32cc0690aeb1dc2b58d55a320bf1bf9471e5295743f7",
        ],
    },
    "rollout": {
        "cache_key":
            "e23144c3e8774f51681fc53ba5f1f65461fcfb6ef0074b4f91a4385ad906a1e5",
        "events_digest":
            "aab6f01beb4b13fc8963bad128574cf7de781a39eeadcda9d68b15b07a23d66b",
        "journal_digest":
            "f35ef056965ebc3373bd4a155814ff67dd64ebad41f466bdb4173f2c18b5e371",
        "manifest_run_digest":
            "8e0bb79dfef3adac247f3a88cba8c50ef4d7d223cb02d2165c749f5806bb73fc",
        "payload_digest":
            "e17a614fc175b9f670f230d17165caa51b1df8bc23a3746ba5611117895d80f5",
        "shard_keys": [
            "1dd88211ca97a69df4e5c2f91b9b03411aa0454a820a548113503b8899957bfb",
            "6469e9495a31aab91435a54e62a83321d2d8f09f2f7f91527d65013e1a3c60f5",
        ],
        "traced_shard_keys": [
            "6f98a02555324ba134679a95e9b1123ccfbcd84840cecaf1192d394756a8f29d",
            "08675b6edf5c8b53f7322afe8c17e8eff8b966746a4a412bc146aba28574d751",
        ],
    },
    "sweep": {
        "cache_key":
            "63b5df7010687539e4a3418819a978ae634727262acf122e2fa853234356661a",
        "journal_digest":
            "cb954f3017f8814fe8395bee1d007bd4dfdfc6281fdabaac36d1ec07dc9b9973",
        "payload_digest":
            "ce912720f8f1ae40712fc774ad06fd857259dd0cfbcc7037554ffad889982620",
        "result_digest":
            "ce912720f8f1ae40712fc774ad06fd857259dd0cfbcc7037554ffad889982620",
        "shard_keys": [
            "7c7725b2b0394ef929c80be93360e10f557fb715004e7f08081be2e192384d88",
            "f9beb4800ada5680a6ee6a1f9ff87ad55e85b423894b8d916db258ebb0206a51",
        ],
    },
}


def _sha256_files(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def study_goldens(name: str, scratch: pathlib.Path) -> dict:
    """Every pinned value for one study config, computed afresh."""
    keys = StudyResultCache(scratch / "keys")
    study = STUDIES[name]()
    values = {
        "shard_keys": [keys.key_for(m)
                       for m in study.shard_task_materials()],
    }
    if name in TRACED_KEYS:
        values["traced_shard_keys"] = [
            keys.key_for(m) for m in study.shard_task_materials(traced=True)]

    cache_dir = scratch / "cache"
    journal_dir = scratch / "journal"
    result = study.run(workers=1, cache_dir=str(cache_dir),
                       checkpoint_dir=str(journal_dir))
    # The cache holds exactly the whole-study entry: its file name is the
    # study's cache key and its payload is the result codec's output.
    (entry,) = cache_dir.glob("*.json")
    values["cache_key"] = entry.stem
    values["payload_digest"] = hashlib.sha256(canonical_json(
        json.loads(entry.read_text())["payload"]).encode()).hexdigest()
    values["journal_digest"] = _sha256_files(journal_dir)
    if name in NATIVE_DIGESTS:
        values["result_digest"] = NATIVE_DIGESTS[name](result)

    if name in OBSERVED:
        run_dir = scratch / "obs"
        traced = STUDIES[name]().run(workers=1, cache_dir="",
                                     checkpoint_dir="", obs_dir=str(run_dir))
        if name in NATIVE_DIGESTS:
            assert NATIVE_DIGESTS[name](traced) == values["result_digest"]
        manifest = read_manifest(run_dir)
        values["events_digest"] = manifest["run"]["events_digest"]
        values["manifest_run_digest"] = manifest_run_digest(manifest)
    return values


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("REPRO_CACHE_DIR", "REPRO_CHECKPOINT", "REPRO_OBS_DIR",
                "REPRO_WORKERS", "REPRO_QUEUE_ABORT_AFTER",
                "REPRO_SLOW_ENGINE"):
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_goldens(name, tmp_path, clean_env):
    assert study_goldens(name, tmp_path) == GOLDENS[name]
