"""Span recording inside spool worker processes (traced run only).

The traced ``spool_cached`` campaign passes this module to
``SpoolBackend(scenario_modules=...)``, so each coordinator-spawned worker
imports it (``worker --import perfbench.worker_hook``) before its main
loop.  Importing it wraps the worker's claim, task execution and shard
write calls, keeps their wall-clock spans in memory, and rewrites
``worker-<pid>.json`` in ``$PERFBENCH_WORKER_SPANS`` after every task and
at exit.  A worker the coordinator has to terminate keeps the file of its
last finished task.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import repro.distributed.worker as worker_module
from repro.distributed.spool import Spool

SPANS_ENV = "PERFBENCH_WORKER_SPANS"


class WorkerSpans:
    def __init__(self, directory: Path):
        self.path = directory / f"worker-{os.getpid()}.json"
        self.started = time.time()
        self.spans: List[List[Any]] = []
        self.claims: Dict[str, float] = {}
        self.cells_executed = 0

    def flush(self, ended: bool = False) -> None:
        payload = {
            "pid": os.getpid(),
            "started": self.started,
            "ended": time.time() if ended else None,
            "spans": self.spans,
            "claims": self.claims,
            "cells_executed": self.cells_executed,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.path)


def _timed(record: WorkerSpans, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.time()
        try:
            return original(*args, **kwargs)
        finally:
            record.spans.append([name, start, time.time()])

    return wrapper


def install(directory: Path) -> WorkerSpans:
    record = WorkerSpans(directory)
    claim_next = _timed(record, "claim", Spool.claim_next)

    @functools.wraps(Spool.claim_next)
    def claim_and_note(self: Spool) -> Any:
        claimed = claim_next(self)
        if claimed is not None:
            record.claims[claimed.task_id] = time.time()
        return claimed

    Spool.claim_next = claim_and_note
    Spool.write_result_shard = _timed(record, "shard_write", Spool.write_result_shard)
    execute = _timed(record, "execute", worker_module.execute_task)

    @functools.wraps(worker_module.execute_task)
    def execute_and_flush(claimed: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return execute(claimed, *args, **kwargs)
        finally:
            record.cells_executed += len(claimed.task.cells)
            record.flush()

    worker_module.execute_task = execute_and_flush
    atexit.register(record.flush, True)
    record.flush()
    return record


if os.environ.get(SPANS_ENV):
    install(Path(os.environ[SPANS_ENV]))
