"""One benchmark campaign in a fresh interpreter.

Usage: ``python -m perfbench.campaign '<job json>'`` (``perfbench/run.py``
spawns it; the checkout root and ``src`` must be on ``PYTHONPATH``).

The process prints ``ready`` as soon as ``repro.experiments`` is imported
and the builtin registry is loaded — the parent times its set-up up to that
line — then runs the job and prints one JSON result line.  Job modes:

``prefill``
    Run every other cell of the workload inline with the job's cache
    attached, so the cache holds those records (the ``spool_cached``
    fixture).
``reference``
    Run the campaign with ``ParallelCampaignRunner(jobs=1)`` — the CLI's
    ``--jobs 1`` inline path — and report its store digest and counts.
``timed``
    Run the campaign through the workload's backend; with ``traced`` set,
    also attribute the time to layers.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    import repro.experiments as experiments

    experiments.load_builtin_scenarios()
    print("ready", flush=True)
    job = json.loads(argv[1])
    print(json.dumps(run_job(job), sort_keys=True), flush=True)
    return 0


def run_job(job: dict) -> dict:
    import hashlib
    import os
    import resource
    from pathlib import Path

    from repro.distributed import CacheIndex, SpoolBackend
    from repro.distributed.spool import Spool
    from repro.experiments import ParallelCampaignRunner, ResultStore
    from repro.experiments.runner import InProcessBackend
    from repro.vectorized import VectorBatchBackend

    from perfbench import workloads
    from perfbench.hooks import Counts, install_counting, install_tracing
    from perfbench.layers import COARSE_SPANS, layer_metrics, spool_metrics
    from perfbench.spans import Recorder

    workload, seed, mode = job["workload"], int(job["seed"]), job["mode"]
    traced = bool(job.get("traced"))
    directory = Path(job["dir"])
    directory.mkdir(parents=True, exist_ok=True)
    calls = workloads.plan(workload, seed)

    counts = Counts()
    install_counting(counts)
    recorder = None
    if traced:
        recorder = Recorder(keep=COARSE_SPANS)
        install_tracing(counts, recorder)

    if mode == "prefill":
        runner = ParallelCampaignRunner(jobs=1, cache=CacheIndex(job["cache"]))
        cells = 0
        for call in workloads.prefill_calls(calls):
            cells += runner.run(call.scenario, **call.kwargs()).run_count
        return {"cells": cells}

    store_path = directory / "store.jsonl"
    store = ResultStore(store_path)
    cache = None
    backend = None
    spool_root = directory / "spool"
    worker_dir = directory / "worker-spans"
    if mode == "reference":
        runner = ParallelCampaignRunner(jobs=1, store=store)
    else:
        if workload == "physics_inline":
            backend = InProcessBackend()
        elif workload == "spool_cached":
            # The CLI's spool defaults: 2 spawned workers, task size 1,
            # 60 s lease, default speculation/stealing, shared --cache.
            modules = ()
            if traced:
                worker_dir.mkdir()
                os.environ["PERFBENCH_WORKER_SPANS"] = str(worker_dir)
                modules = ("perfbench.worker_hook",)
            backend = SpoolBackend(
                spool_root,
                workers=2,
                lease_timeout=60.0,
                task_size=1,
                worker_cache_root=job["cache"],
                scenario_modules=modules,
            )
            cache = CacheIndex(job["cache"])
        elif workload == "vector_batch":
            backend = VectorBatchBackend()
        else:
            raise ValueError(f"unknown workload {workload!r}")
        runner = ParallelCampaignRunner(jobs=1, store=store, backend=backend, cache=cache)

    results = []
    vector_totals = {"fast_cells": 0, "probe_cells": 0, "fallback_cells": 0, "evicted_cells": 0}
    started = time.perf_counter()
    for call in calls:
        results.append(runner.run(call.scenario, **call.kwargs()))
        if isinstance(backend, VectorBatchBackend):
            for key in vector_totals:
                vector_totals[key] += getattr(backend.stats, key)
    wall_s = time.perf_counter() - started
    campaign_end = time.time()
    counts.harvest()

    data = store_path.read_bytes()
    totals = dict(counts.totals)
    totals["vectorized.fast_cells"] = vector_totals["fast_cells"]
    session = cache.session_stats() if cache is not None else {"hits": 0, "misses": 0}
    totals["distributed.cache.hits"] = session["hits"]
    out = {
        "wall_s": wall_s,
        "cells": sum(result.run_count for result in results),
        "failed": sum(result.failures for result in results),
        "digest": hashlib.sha256(data).hexdigest(),
        "records": data.count(b"\n"),
        "counts": {name: totals[name] for name in workloads.CHECKED_COUNTS[workload]},
        "rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        / 1024.0,
    }
    if isinstance(backend, SpoolBackend):
        heartbeats = Spool(spool_root).worker_heartbeats()
        out["join_s"] = counts.join_s
        out["unclean_exits"] = sum(
            1 for beat in heartbeats.values() if beat.get("state") != "exited"
        )
    if recorder is not None:
        layers = layer_metrics(recorder, totals, wall_s)
        layers["experiments.store.records"] = out["records"]
        layers["vectorized.fast_cells"] = vector_totals["fast_cells"]
        layers["vectorized.probe_cells"] = vector_totals["probe_cells"]
        layers["vectorized.fallback_cells"] = vector_totals["fallback_cells"]
        executed = sum(vector_totals.values())
        layers["vectorized.occupancy"] = (
            vector_totals["fast_cells"] / executed if executed else 0.0
        )
        lookups = session["hits"] + session["misses"]
        layers["distributed.cache.hits"] = session["hits"]
        layers["distributed.cache.misses"] = session["misses"]
        layers["distributed.cache.hit_ratio"] = session["hits"] / lookups if lookups else 0.0
        spool_part, worker_spans = spool_metrics(
            spool_root if isinstance(backend, SpoolBackend) else None,
            worker_dir,
            counts,
            ingested=sum(result.backend_cells.get("spool", 0) for result in results),
            campaign_end=campaign_end,
        )
        layers.update(spool_part)
        if isinstance(backend, SpoolBackend):
            layers["distributed.worker.unclean_exits"] = out["unclean_exits"]
        out["layers"] = layers
        trace_path = directory / "spans.json"
        trace_path.write_text(
            json.dumps({"campaign": recorder.kept, "workers": worker_spans}), encoding="utf-8"
        )
        out["spans_file"] = str(trace_path)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
