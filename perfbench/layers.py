"""Per-layer metrics of one traced campaign.

The campaign-process *partition*: every span name the hooks record maps to
exactly one metric of :data:`PARTITION` (unknown names go to
``other.self_s``), so those self times plus ``unattributed_s`` — campaign
process time outside any ``ParallelCampaignRunner.run`` call — add up to the
traced wall time.  Spool workers run in parallel with the coordinator, so
their time is reported beside the partition, not inside it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.spans import Recorder, union_length

#: Partition metric -> span name recorded by perfbench.hooks.
PARTITION: Dict[str, str] = {
    "sim.self_s": "sim",
    "network.self_s": "network",
    "core.self_s": "core",
    "sensors.self_s": "sensors",
    "middleware.self_s": "middleware",
    "usecases.self_s": "usecases",
    "vehicles.self_s": "vehicles",
    "cooperation.self_s": "cooperation",
    "scenario.self_s": "scenario",
    "scenario.build_s": "scenario.build",
    "experiments.scenarios.self_s": "experiments.scenarios",
    "experiments.runner.self_s": "experiments.runner",
    "experiments.spec.self_s": "experiments.spec",
    "experiments.serialize_s": "experiments.serialize",
    "experiments.store.write_s": "experiments.store",
    "vectorized.self_s": "vectorized",
    "distributed.coordinator.publish_s": "distributed.coordinator.publish",
    "distributed.coordinator.collect_s": "distributed.coordinator.collect",
    "distributed.coordinator.join_s": "distributed.coordinator.join",
    "distributed.spool.shard_read_s": "distributed.spool.shard_read",
    "distributed.cache.get_s": "distributed.cache.get",
    "distributed.cache.put_s": "distributed.cache.put",
    "observability.self_s": "observability",
    "resilience.self_s": "resilience",
}
OTHER = "other.self_s"

#: Spans kept as records and written out with the traced campaign; the
#: per-event spans are only folded into totals.
COARSE_SPANS = (
    "experiments.runner",
    "scenario.build",
    "sim",
    "experiments.store",
    "vectorized",
    "distributed.coordinator.publish",
    "distributed.coordinator.collect",
    "distributed.coordinator.join",
    "distributed.spool.shard_read",
    "distributed.cache.get",
    "distributed.cache.put",
)

#: Worker span name (perfbench.worker_hook) -> the metric it adds to.
WORKER_SPANS = {
    "claim": "distributed.worker.claim_s",
    "execute": "distributed.worker.execute_s",
    "shard_write": "distributed.spool.shard_write_s",
}

#: Every per-layer metric a traced run reports, in output order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (name, "s") for name in PARTITION
) + (
    (OTHER, "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("network.frames_sent", "count"),
    ("network.deliveries", "count"),
    ("network.delivery_ratio", "ratio"),
    ("network.us_per_frame", "us"),
    ("core.cycles", "count"),
    ("core.los_switches", "count"),
    ("sensors.reads", "count"),
    ("middleware.publishes", "count"),
    ("experiments.store.records", "count"),
    ("vectorized.fast_cells", "count"),
    ("vectorized.probe_cells", "count"),
    ("vectorized.fallback_cells", "count"),
    ("vectorized.occupancy", "ratio"),
    ("distributed.cache.hits", "count"),
    ("distributed.cache.misses", "count"),
    ("distributed.cache.hit_ratio", "ratio"),
    ("distributed.worker.start_s", "s"),
    ("distributed.worker.claim_s", "s"),
    ("distributed.worker.idle_s", "s"),
    ("distributed.worker.execute_s", "s"),
    ("distributed.worker.unclean_exits", "count"),
    ("distributed.spool.queue_wait_s", "s"),
    ("distributed.spool.shard_write_s", "s"),
    ("distributed.spool.tasks", "count"),
    ("distributed.spool.useful_ratio", "ratio"),
    ("distributed.scheduler.speculated", "count"),
    ("distributed.scheduler.splits", "count"),
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, totals: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """The partition plus the per-layer counts and rates of one campaign."""
    by_span = {span: metric for metric, span in PARTITION.items()}
    metrics = {metric: 0.0 for metric in PARTITION}
    metrics[OTHER] = 0.0
    for span, seconds in recorder.self_s.items():
        metrics[by_span.get(span, OTHER)] += seconds
    metrics["unattributed_s"] = wall_s - sum(metrics.values())
    metrics["trace.wall_s"] = wall_s
    for name in (
        "sim.events",
        "network.frames_sent",
        "network.deliveries",
        "core.cycles",
        "core.los_switches",
        "sensors.reads",
        "middleware.publishes",
    ):
        metrics[name] = totals[name]
    metrics["sim.us_per_event"] = _ratio(metrics["sim.self_s"], totals["sim.events"], 1e6)
    metrics["network.us_per_frame"] = _ratio(
        metrics["network.self_s"], totals["network.frames_sent"], 1e6
    )
    metrics["network.delivery_ratio"] = _ratio(
        totals["network.deliveries"], totals["network.attempts"]
    )
    return metrics


def partition_error(metrics: Dict[str, float]) -> float:
    """|partition + unattributed - wall|; zero up to float rounding."""
    parts = sum(metrics[name] for name in PARTITION) + metrics[OTHER]
    return abs(parts + metrics["unattributed_s"] - metrics["trace.wall_s"])


def spool_metrics(
    spool_root: Optional[Path],
    worker_dir: Path,
    counts: Any,
    *,
    ingested: int,
    campaign_end: float,
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Worker, spool and scheduler metrics of a traced spool campaign.

    Worker spans come from :mod:`perfbench.worker_hook`; publish and spawn
    times from the coordinator-side hooks; speculation and splits from the
    spool's own ``events.jsonl``.  All zero for other backends.
    """
    metrics = {
        "distributed.worker.start_s": 0.0,
        "distributed.worker.claim_s": 0.0,
        "distributed.worker.idle_s": 0.0,
        "distributed.worker.execute_s": 0.0,
        "distributed.worker.unclean_exits": 0,
        "distributed.spool.queue_wait_s": 0.0,
        "distributed.spool.shard_write_s": 0.0,
        "distributed.spool.tasks": len(counts.published),
        "distributed.spool.useful_ratio": 0.0,
        "distributed.scheduler.speculated": 0,
        "distributed.scheduler.splits": 0,
    }
    workers: List[Dict[str, Any]] = []
    if spool_root is None:
        return metrics, workers
    for path in sorted(worker_dir.glob("worker-*.json")):
        workers.append(json.loads(path.read_text(encoding="utf-8")))
    starts = []
    executed = 0
    for worker in workers:
        spans = worker["spans"]
        for name, start, end in spans:
            metrics[WORKER_SPANS[name]] += end - start
        ended = worker["ended"] if worker["ended"] is not None else campaign_end
        lifetime = ended - worker["started"]
        metrics["distributed.worker.idle_s"] += lifetime - union_length(
            (start, end) for _name, start, end in spans
        )
        spawned = counts.spawned.get(worker["pid"])
        if spawned is not None:
            starts.append(worker["started"] - spawned)
        for task_id, claimed_at in worker["claims"].items():
            published = counts.published.get(task_id)
            if published is not None:
                metrics["distributed.spool.queue_wait_s"] += claimed_at - published
        executed += worker["cells_executed"]
    if starts:
        metrics["distributed.worker.start_s"] = sum(starts) / len(starts)
    metrics["distributed.spool.useful_ratio"] = _ratio(ingested, executed)

    from repro.observability.events import read_events

    for event in read_events(spool_root / "events.jsonl"):
        if event.get("kind") == "task_speculated":
            metrics["distributed.scheduler.speculated"] += 1
        elif event.get("kind") == "shard_split":
            metrics["distributed.scheduler.splits"] += 1
    return metrics, workers
