"""The one lifecycle every sharded study runs through.

:func:`run_study` probes the whole-study result cache, maps the study's
worker over its shard plan through the checkpointed work queue, folds
the shard results in plan order, stores the merged result, and
optionally writes an observability run directory. The plan, the task
keys, and the fold order depend only on the study parameters, so the
result and the event log are bit-identical at any worker count and any
checkpoint/resume disposition.

A study implements (duck-typed): ``STUDY`` (its kind); ``RESULT`` (the
result type: ``merge``, plus the ``to_dict``/``from_dict`` codec the
cache and journal share); ``shard_specs()`` (picklable worker inputs in
plan order, each with a ``shard_index``); ``shard_task_materials()``;
``cache_key_material()`` (also the manifest's ``material``); a
``queue_stats`` attribute, set by the runner; and ``TRACED_WORKER``,
the one branch — where shard events come from:

* ``True`` (ablation, rollout): with a session the worker is called as
  ``worker(spec, traced=True)`` and returns :func:`trace_shard`'s
  ``(result, events, wall)``; traced shards journal under
  ``shard_task_materials(traced=True)``, and the manifest records the
  shard seeds (``spec.seed``) and ``study.fault_plan``.
* ``False`` (sweep, scenarios): the worker runs untraced and the runner
  emits each shard's ``shard-start``/``shard-finish`` at study level
  from ``study.shard_meta(spec)``.
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.obs.tracer import Tracer

#: Everything a payload that no longer decodes can raise: the codecs'
#: own ``TraceError`` and the lookups of a layout that drifted.
_STALE_PAYLOAD = (TraceError, KeyError, TypeError, ValueError)


def trace_shard(run_single, spec) -> Tuple[object, List[Dict], float]:
    """Run ``run_single(tracer)`` under a fresh tracer, bracketed by
    ``shard-start``/``shard-finish`` events; returns ``(result, events,
    wall_seconds)``.

    The tracer is built inside the worker — tracers never cross process
    boundaries, only their plain-dict events do. The finish timestamp is
    the latest simulated time any event observed, a pure function of the
    shard parameters like every other ``t_ns`` in the log.
    """
    start = time.monotonic()
    tracer = Tracer()
    tracer.event("shard-start", 0.0, index=spec.shard_index,
                 machines=spec.machines, seed=spec.seed)
    result = run_single(tracer)
    t_end = max((event["t_ns"] for event in tracer.events), default=0.0)
    tracer.event("shard-finish", t_end, index=spec.shard_index,
                 epochs=spec.epochs)
    return result, tracer.events, time.monotonic() - start


def _phase(session, name: str):
    """The session's wall-clock phase timer, or a no-op without one."""
    return session.phase(name) if session is not None else nullcontext()


def run_study(study, worker, workers: Optional[int] = None,
              cache_dir: Optional[str] = None,
              checkpoint_dir: Optional[str] = None,
              resume: bool = True,
              obs_dir: Optional[str] = None):
    """Run ``study``'s shards through ``worker`` and return the merged
    result (see the module docstring for the study protocol).

    Args:
        worker: The study's module-level shard worker (the pool entry
            point); called as ``worker(spec)``, or as
            ``worker(spec, traced=True)`` for a traced fleet study.
        workers: Process-pool size. ``None`` reads ``$REPRO_WORKERS``
            (default 1, serial); ``0`` means all CPUs. The result is
            identical at any value.
        cache_dir: Whole-study result-cache directory. ``None`` reads
            ``$REPRO_CACHE_DIR``; empty/unset disables caching. A hit
            skips the computation entirely.
        checkpoint_dir: Shard-journal directory. ``None`` reads
            ``$REPRO_CHECKPOINT``; empty/unset disables checkpointing.
            Every finished shard is journaled the moment it completes,
            and a re-run restores finished shards instead of recomputing.
        resume: With a journal, whether to restore journaled shards
            (default) or recompute everything while still journaling.
        obs_dir: Observability run directory. ``None`` reads
            ``$REPRO_OBS_DIR``; empty/unset disables it. When set, the
            run writes ``events.jsonl`` and ``manifest.json`` there.
    """
    from repro.fleet.parallel import resolve_workers
    from repro.fleet.queue import run_checkpointed, shard_checkpoint
    from repro.fleet.result_cache import study_cache
    from repro.obs.session import ObsSession, resolve_obs_dir

    workers = resolve_workers(workers)
    obs_dir = resolve_obs_dir(obs_dir)
    session = (ObsSession(obs_dir, study.STUDY, workers=workers)
               if obs_dir is not None else None)
    if session is not None:
        session.event("study-start", study=study.STUDY)
    study.queue_stats = None
    result_type = study.RESULT
    cache = study_cache(cache_dir)
    checkpoint = shard_checkpoint(checkpoint_dir)
    material = study.cache_key_material()

    result = None
    if cache is not None:
        payload = cache.load(material)
        if payload is not None:
            try:
                result = result_type.from_dict(payload)
            except _STALE_PAYLOAD:
                pass  # recompute, then overwrite the stale entry
        if session is not None:
            session.cache_probe(result is not None, cache.key_for(material))

    if result is None:
        specs = study.shard_specs()
        traced = session is not None and study.TRACED_WORKER
        if traced:
            materials = study.shard_task_materials(traced=True)

            def to_payload(output: Tuple) -> Dict:
                # The wall time rides along so a resumed run's manifest
                # reports the original compute cost, not the restore's.
                shard, events, wall = output
                return {"result": shard.to_dict(), "events": list(events),
                        "wall": wall}

            def from_payload(payload: Dict) -> Tuple:
                return (result_type.from_dict(payload["result"]),
                        list(payload["events"]), float(payload["wall"]))

            run_worker = functools.partial(worker, traced=True)
        else:
            materials = study.shard_task_materials()
            to_payload = result_type.to_dict
            from_payload = result_type.from_dict
            run_worker = worker

        with _phase(session, "execute"):
            shards, study.queue_stats = run_checkpointed(
                run_worker, specs, materials, workers,
                checkpoint=checkpoint, to_payload=to_payload,
                from_payload=from_payload, resume=resume)
        if session is not None:
            if traced:
                outputs, shards = shards, []
                for spec, (shard, events, wall) in zip(specs, outputs):
                    session.add_shard(spec.shard_index, events, wall)
                    shards.append(shard)
            if checkpoint is not None:
                session.queue_stats(study.queue_stats)
                restored = set(study.queue_stats.restored_indexes)
                for spec in specs:
                    session.event(
                        "shard-restored" if spec.shard_index in restored
                        else "shard-checkpoint", index=spec.shard_index)
            if not study.TRACED_WORKER:
                for spec in specs:
                    meta = study.shard_meta(spec)
                    session.event("shard-start", index=spec.shard_index,
                                  machines=meta["machines"],
                                  seed=meta["seed"])
                    session.event("shard-finish", index=spec.shard_index,
                                  epochs=meta["epochs"])

        with _phase(session, "merge"):
            result = shards[0]
            for index, shard in enumerate(shards[1:], start=1):
                if session is not None:
                    session.event("merge-step", index=index)
                result.merge(shard)
        if cache is not None:
            cache.store(material, result.to_dict())
            if session is not None:
                session.event("cache-store", key=cache.key_for(material))

    if session is not None:
        occupancy = getattr(result, "occupancy", None)
        if occupancy is not None:
            session.engine_occupancy(occupancy)
        session.event("study-finish", study=study.STUDY)
        if study.TRACED_WORKER:
            fault_plan = study.fault_plan
            session.finalize(
                material,
                shard_seeds=[spec.seed for spec in study.shard_specs()],
                fault_plan=(fault_plan.spec() if fault_plan is not None
                            else None))
        else:
            session.finalize(material)
    return result
