"""Per-cell run ledger: the machine-readable timing feed for scheduling.

Every backend that executes (or cache-serves) a cell appends one row to
``ledger.jsonl`` describing *what ran, where, how long it queued and how
long it took* — the per-cell record that ``trace``/``status`` tooling
and the control plane (ROADMAP 1: per-tenant accounting) consume.  Rows are JSON objects:

``{"v": 1, "ts": ..., "scenario": ..., "params": "<sha256[:16] of the
canonical params payload>", "seed": ..., "key": ..., "status": "ok" |
"failed", "executed_by": "inline|process|spool|vector|cache|store",
"attempts": N, "queue_wait_s": ..., "run_s": ..., "worker": ...}``

Like ``events.jsonl`` and the trace files, the ledger uses the
append-only format of :mod:`repro.observability.jsonl`, so concurrent
workers interleave whole rows and readers skip a torn tail.  The ledger
(like tracing) is opt-in via ``--trace`` and never contributes to result
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.observability.jsonl import append_jsonl, read_jsonl

LEDGER_VERSION = 1
LEDGER_FILENAME = "ledger.jsonl"


def params_hash(params: Any) -> str:
    """A short stable digest of a cell's params payload.

    Callers that already hold the canonical params JSON (the runner does —
    :func:`repro.experiments.spec.canonical_key` builds it) pass the string
    through; anything else is serialized sorted-keys with a ``str``
    fallback, which is stable for the JSON-able mappings params are.
    """
    if isinstance(params, str):
        payload = params
    else:
        payload = json.dumps(
            dict(params), sort_keys=True, separators=(",", ":"), default=str
        )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RunLedger:
    """Append-only per-cell ledger writer.

    A disabled ledger (``RunLedger(None)``) swallows every row for free,
    mirroring the tracer/telemetry discipline, so call sites never branch.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]], worker: Optional[str] = None):
        self.path = Path(path) if path is not None else None
        self.worker = worker
        self.rows = 0
        #: Rows lost to OSError; the ledger must never fail a campaign.
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def record(
        self,
        scenario: str,
        params: Any,
        seed: int,
        status: str,
        executed_by: str,
        run_s: float,
        queue_wait_s: Optional[float] = None,
        attempts: int = 1,
        key: Optional[str] = None,
        worker: Optional[str] = None,
        trace: Optional[str] = None,
        span: Optional[str] = None,
    ) -> None:
        """Append one cell row; a no-op when the ledger is disabled."""
        if self.path is None:
            return
        row: Dict[str, Any] = {
            "v": LEDGER_VERSION,
            "ts": round(time.time(), 6),
            "scenario": scenario,
            "params": params_hash(params),
            "seed": seed,
            "status": status,
            "executed_by": executed_by,
            "attempts": attempts,
            "run_s": round(run_s, 6),
        }
        if queue_wait_s is not None:
            row["queue_wait_s"] = round(max(0.0, queue_wait_s), 6)
        if key is not None:
            row["key"] = key
        resolved_worker = worker if worker is not None else self.worker
        if resolved_worker is not None:
            row["worker"] = resolved_worker
        if trace is not None:
            row["trace"] = trace
        if span is not None:
            row["span"] = span
        try:
            append_jsonl(self.path, [row])
            self.rows += 1
        except OSError:
            self.dropped += 1


def read_ledger(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """All well-formed ledger rows at ``path`` (torn trailing lines skipped)."""
    return [row for row in read_jsonl(path)[0] if "scenario" in row]


def summarize_ledger(rows: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a ledger into the shape schedulers want: per-scenario
    cell counts, total/mean run seconds and total queue wait."""
    per_scenario: Dict[str, Dict[str, Any]] = {}
    by_path: Dict[str, int] = {}
    for row in rows:
        scenario = str(row.get("scenario", "?"))
        stats = per_scenario.setdefault(
            scenario, {"cells": 0, "failed": 0, "run_s": 0.0, "queue_wait_s": 0.0}
        )
        stats["cells"] += 1
        if row.get("status") != "ok":
            stats["failed"] += 1
        stats["run_s"] += float(row.get("run_s", 0.0))
        stats["queue_wait_s"] += float(row.get("queue_wait_s", 0.0))
        executed_by = str(row.get("executed_by", "?"))
        by_path[executed_by] = by_path.get(executed_by, 0) + 1
    for stats in per_scenario.values():
        stats["mean_run_s"] = round(stats["run_s"] / stats["cells"], 6) if stats["cells"] else 0.0
        stats["run_s"] = round(stats["run_s"], 6)
        stats["queue_wait_s"] = round(stats["queue_wait_s"], 6)
    return {
        "cells": sum(stats["cells"] for stats in per_scenario.values()),
        "by_executed_by": dict(sorted(by_path.items())),
        "per_scenario": per_scenario,
    }
