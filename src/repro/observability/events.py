"""Append-only JSONL event log for campaign observability.

Every interesting campaign transition is one row appended to a shared
``events.jsonl`` (for spool campaigns it lives inside the spool directory,
next to ``progress.json``), in the whole-line append format of
:mod:`repro.observability.jsonl`: concurrent workers and the coordinator
interleave whole lines, and file order is the global append order.

The taxonomy is closed (:data:`EVENT_KINDS`) so consumers — ``tail``, the
tests, the future control plane — can rely on it:

=================== ========================================================
kind                emitted when
=================== ========================================================
``campaign_start``    coordinator published a campaign's tasks onto a spool
``campaign_complete`` every cell has a merged result (or the campaign aborted)
``task_claimed``      a worker won the atomic claim on a task file
``task_completed``    a worker wrote the task's result shard
``task_reclaimed``    an expired lease was re-queued (dead/stalled worker)
``worker_start``      a worker process entered its claim loop
``worker_idle``       a worker found nothing claimable (once per idle stretch)
``worker_exit``       a worker left its loop (reason: complete/max_tasks/idle)
``worker_dead``       the coordinator observed a spawned worker exit early
``worker_respawn``    the coordinator started a replacement for a dead worker
``cache_hit``         a cell was served from the content-addressed cache
``cache_miss``        a cell was consulted against the cache and not found
``campaign_resumed``  a restarted coordinator adopted an interrupted campaign
``shard_torn``        a result shard failed sha256 verification (re-executed)
``task_quarantined``  a poison task was retired after repeated failed claims
``vector_batch``      the vector backend settled a lockstep seed batch
``vector_evict``      a seed was evicted from a batch to the scalar kernel
``task_superseded``   a shard arrived whose cells an earlier shard had filled
``cell_timeout``      a worker's watchdog killed a cell past its deadline
=================== ========================================================

Schema note (v4 of this taxonomy): ``task_speculated`` and ``shard_split``
are gone with the straggler speculation and work stealing that emitted
them.  Logs written before v4 may still hold them; readers pass them
through like any other kind they were not asked to filter on.
Schema note (v3 of this taxonomy): ``task_superseded`` carries
``task`` and ``cells``; ``cell_timeout`` carries ``task``, ``index`` and
``seconds``.
Schema note (v2 of this taxonomy, PR 9): ``vector_batch`` carries
``scenario``, ``size`` (seeds in the batch), ``verified`` (probe byte-match)
and ``elapsed_s``; ``vector_evict`` carries ``scenario``, ``seed`` and
``reason`` (``preflight``/``midflight``).  Readers must stay tolerant of
kinds they do not know: ``read_events``/``follow_events`` filter by the
*requested* kinds only and pass every other well-formed line through.

Event timestamps are wall-clock and appear **only** here and in progress
files — never in result records, so stores stay byte-identical with
observability on.  Emission is best-effort: an unwritable log counts the
drop and never fails the campaign.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.observability.jsonl import append_jsonl, follow_jsonl, read_jsonl
from repro.resilience.faults import inject

EVENT_KINDS = frozenset(
    {
        "campaign_start",
        "campaign_complete",
        "task_claimed",
        "task_completed",
        "task_reclaimed",
        "worker_start",
        "worker_idle",
        "worker_exit",
        "worker_dead",
        "worker_respawn",
        "cache_hit",
        "cache_miss",
        "campaign_resumed",
        "shard_torn",
        "task_quarantined",
        "vector_batch",
        "vector_evict",
        "task_superseded",
        "cell_timeout",
    }
)


class EventLog:
    """One process's handle on a shared append-only event file.

    ``source`` (e.g. a worker id or ``"coordinator"``) is stamped on every
    event.  The log never creates the target directory: a worker pointed at
    a spool the coordinator has not initialised yet must not conjure it
    into existence, so such emissions are dropped (and counted) instead.
    """

    def __init__(self, path: Union[str, os.PathLike], source: Optional[str] = None):
        self.path = Path(path)
        self.source = source
        #: Events lost to OSError (missing directory, full disk); campaigns
        #: must never fail because observability could not write.
        self.dropped = 0

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Append one event line; returns the event dict, or ``None`` if dropped."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {', '.join(sorted(EVENT_KINDS))}"
            )
        event: Dict[str, Any] = {"ts": round(time.time(), 6), "kind": kind}
        if self.source is not None:
            event["source"] = self.source
        event.update(fields)
        try:
            inject("events.emit", kind=kind)
            append_jsonl(self.path, [event])
        except OSError:
            self.dropped += 1
            return None
        return event


def read_events(
    path: Union[str, os.PathLike], kinds: Optional[Iterable[str]] = None
) -> List[Dict[str, Any]]:
    """Every parseable event in file order; missing file yields ``[]``."""
    events, _ = read_jsonl(path)
    if kinds is None:
        return events
    wanted = frozenset(kinds)
    return [event for event in events if event.get("kind") in wanted]


def follow_events(
    path: Union[str, os.PathLike],
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
    kinds: Optional[Iterable[str]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they are appended (``tail --follow``); see
    :func:`~repro.observability.jsonl.follow_jsonl`.  Without ``stop`` it
    follows forever — callers handle KeyboardInterrupt."""
    wanted = frozenset(kinds) if kinds is not None else None
    for event in follow_jsonl(path, poll_interval=poll_interval, stop=stop):
        if wanted is None or event.get("kind") in wanted:
            yield event
