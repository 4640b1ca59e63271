"""Shared-filesystem work queue for distributed campaigns.

A *spool* is a directory any number of coordinator and worker processes —
on one host or many, as long as they see the same filesystem — use as a
lock-free work queue::

    spool/
      campaign.json        # campaign metadata written by the coordinator
      complete.marker      # "complete <campaign_id>" once every cell is merged
      tasks/task-00000.json    # pending tasks (one JSON file per task)
      claimed/task-00000.json  # claimed tasks; mtime is the lease heartbeat
      results/task-00000.jsonl # result shards (records + sha256 trailer)
      quarantine/task-00000.json # poison tasks retired after N failed claims
      attempts.jsonl       # reclaim/quarantine/reset ledger (repro.observability.jsonl)

Claiming is a single ``os.rename(tasks/X, claimed/X)``: rename of an
existing file is atomic on POSIX, so exactly one of any number of racing
workers wins and the losers get ``FileNotFoundError``.  A claimed task's
lease is its file's mtime; workers touch it between cells, and any process
may *reclaim* a claimed task whose lease expired (dead worker) by renaming
it back into ``tasks/``.  Result shards are written to a temporary file
and renamed into place, so a shard is either absent or complete — and each
shard additionally ends with a ``{"sha256": ...}`` trailer over its record
lines, so a *torn* shard (a filesystem that lost the tail of a write, or a
fault-injected partial write) is detected on read and re-executed rather
than merged.  Because every cell is deterministic, a reclaim racing a
slow-but-alive worker is harmless: both executions produce the same shard
bytes.

A task reclaimed ``max_task_attempts`` times without producing a shard is
*poison* — it is moved to ``quarantine/`` instead of back into the queue,
so a cell that crashes its executor cannot grind the campaign forever.
The reclaim ledger (``attempts.jsonl``) is how racing reclaimers agree on
the attempt count: the process that wins the reclaim rename appends one
line.  ``quarantine list|retry`` on the CLI inspects and re-queues them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.experiments.runner import RunRecord
from repro.experiments.spec import jsonable
from repro.observability.jsonl import append_jsonl, read_jsonl
from repro.resilience.faults import inject

# Canonical home is the observability layer (its progress files need the
# same never-torn guarantee); re-exported here for the existing importers.
from repro.observability.progress import atomic_write_text

SPOOL_VERSION = 1

#: Default seconds without a heartbeat after which a claim is reclaimable.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Default failed-claim count after which a task is quarantined as poison.
DEFAULT_MAX_TASK_ATTEMPTS = 3

#: Environment variable through which the coordinator tells the workers it
#: spawns which campaign they serve (see :meth:`Spool.mark_complete`).
CAMPAIGN_ENV = "REPRO_CAMPAIGN_ID"


class TornShardError(RuntimeError):
    """A result shard failed sha256 verification (torn/partial write)."""

    def __init__(self, task_id: str, detail: str):
        super().__init__(f"result shard {task_id} failed verification: {detail}")
        self.task_id = task_id


@dataclass(frozen=True)
class SpoolTask:
    """One published task: a shard of campaign cells for a single scenario."""

    task_id: str
    scenario: str
    #: ``(params, seed, run-list index)`` per cell.
    cells: Tuple[Tuple[Dict[str, Any], int, int], ...]
    #: Optional tracing context riding the task file: ``{"id": trace id,
    #: "parent": the coordinator's publish span id, "ts": publish
    #: wall-clock}``.  This is how trace ids propagate to *external*
    #: workers with zero environment plumbing — any worker that claims the
    #: task adopts the trace and parents its spans to the publish span;
    #: ``ts`` lets the worker's ledger row charge queue wait precisely.
    #: ``None`` (tracing off) serializes to nothing, keeping task files
    #: byte-identical to PR 7's when tracing is disabled.
    trace: Optional[Dict[str, Any]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        # Params go through the same jsonable() reduction as store keys and
        # records, so enum/numpy-valued params survive the spool round-trip
        # instead of crashing json.dumps.  (Factories see the JSON shape —
        # e.g. tuples as lists — which canonical keys already equate.)
        payload: Dict[str, Any] = {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "cells": [
                {"params": jsonable(dict(params)), "seed": seed, "index": index}
                for params, seed, index in self.cells
            ],
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SpoolTask":
        trace = payload.get("trace")
        return cls(
            task_id=payload["task_id"],
            scenario=payload["scenario"],
            cells=tuple(
                (dict(cell["params"]), int(cell["seed"]), int(cell["index"]))
                for cell in payload["cells"]
            ),
            trace=dict(trace) if isinstance(trace, dict) else None,
        )


@dataclass(frozen=True)
class ClaimedTask:
    """A task this process owns until it writes the result shard."""

    task: SpoolTask
    claimed_path: Path

    @property
    def task_id(self) -> str:
        return self.task.task_id


class Spool:
    """The coordinator/worker-shared work-queue directory."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_task_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
    ):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.root = Path(root)
        self.lease_timeout = float(lease_timeout)
        self.max_task_attempts = int(max_task_attempts)

    # ------------------------------------------------------------------ layout
    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def claimed_dir(self) -> Path:
        return self.root / "claimed"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def campaign_path(self) -> Path:
        return self.root / "campaign.json"

    @property
    def complete_marker(self) -> Path:
        return self.root / "complete.marker"

    @property
    def events_path(self) -> Path:
        """The campaign's shared append-only event log (``tail`` reads this)."""
        return self.root / "events.jsonl"

    @property
    def progress_path(self) -> Path:
        """The coordinator-maintained progress snapshot (``status`` reads this)."""
        return self.root / "progress.json"

    @property
    def workers_dir(self) -> Path:
        """Per-worker heartbeat files (``workers/<worker_id>.json``)."""
        return self.root / "workers"

    @property
    def quarantine_dir(self) -> Path:
        """Poison tasks retired after ``max_task_attempts`` failed claims."""
        return self.root / "quarantine"

    @property
    def attempts_path(self) -> Path:
        """Append-only reclaim/quarantine/reset ledger (``attempts.jsonl``)."""
        return self.root / "attempts.jsonl"

    @property
    def ledger_path(self) -> Path:
        """Per-cell run ledger (``ledger.jsonl``), written when tracing is on."""
        return self.root / "ledger.jsonl"

    def initialise(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Create the spool directories and write the campaign metadata.

        Any state left over from a previous campaign on the same directory
        (task files, claims, result shards, the completion marker, the
        event log, progress and worker heartbeats) is purged first — task
        ids restart at ``task-00000`` per campaign, so stale shards would
        otherwise be ingested as this campaign's results.
        """
        for directory in (
            self.tasks_dir,
            self.claimed_dir,
            self.results_dir,
            self.workers_dir,
            self.quarantine_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
            for entry in directory.iterdir():
                if entry.is_file():
                    entry.unlink()
        for stale in (
            self.complete_marker,
            self.events_path,
            self.progress_path,
            self.attempts_path,
            self.ledger_path,
        ):
            if stale.exists():
                stale.unlink()
        # Trace span files are per-pid, so a fresh campaign must purge the
        # previous one's — a recycled pid would otherwise append to (and a
        # merge would interleave with) a stale campaign's spans.
        for stale in self.root.glob("trace-*.jsonl"):
            stale.unlink()
        self.write_campaign_metadata(metadata)

    def write_campaign_metadata(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        """(Re)write ``campaign.json`` — also used by coordinator resume,
        which must refresh the published lease/attempt policy without the
        purge that :meth:`initialise` performs."""
        payload = {
            "version": SPOOL_VERSION,
            "lease_timeout": self.lease_timeout,
            "max_task_attempts": self.max_task_attempts,
        }
        payload.update(metadata or {})
        self._atomic_write(self.campaign_path, json.dumps(payload, indent=2, sort_keys=True))

    def metadata(self) -> Dict[str, Any]:
        if not self.campaign_path.exists():
            return {}
        try:
            with self.campaign_path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}  # mid-rewrite by the coordinator; try again next poll

    def refresh_lease_timeout(self) -> float:
        """Adopt the lease timeout the coordinator published, if any.

        Reclaim decisions must use the *coordinator's* lease, not each
        worker's default — otherwise an idle worker with a shorter lease
        would re-queue (and duplicate) a live peer's long-running task.
        """
        metadata = self.metadata()
        attempts = metadata.get("max_task_attempts")
        if attempts:
            try:
                cap = int(attempts)
            except (TypeError, ValueError):
                cap = 0
            if cap > 0:
                # Quarantine thresholds must also be campaign-wide: a worker
                # with a lower default would quarantine a task its peers
                # still consider retryable.
                self.max_task_attempts = cap
        published = metadata.get("lease_timeout")
        if published:
            try:
                value = float(published)
            except (TypeError, ValueError):
                return self.lease_timeout
            if value > 0:
                self.lease_timeout = value
        return self.lease_timeout

    def exists(self) -> bool:
        return self.tasks_dir.is_dir() and self.results_dir.is_dir()

    # ----------------------------------------------------------------- publish
    def publish_task(self, task: SpoolTask) -> Path:
        """Atomically add one task file to the pending queue."""
        path = self.tasks_dir / f"{task.task_id}.json"
        self._atomic_write(path, json.dumps(task.to_json_dict(), sort_keys=True))
        return path

    # ------------------------------------------------------------------- claim
    def pending_task_ids(self) -> List[str]:
        return self._task_ids(self.tasks_dir, ".json")

    def claimed_task_ids(self) -> List[str]:
        return self._task_ids(self.claimed_dir, ".json")

    def completed_task_ids(self) -> List[str]:
        return self._task_ids(self.results_dir, ".jsonl")

    def claim(self, task_id: str) -> Optional[ClaimedTask]:
        """Try to claim one specific pending task; ``None`` when lost the race."""
        source = self.tasks_dir / f"{task_id}.json"
        target = self.claimed_dir / f"{task_id}.json"
        try:
            # Freshen the mtime *before* the rename: the rename preserves it,
            # so the claim enters claimed/ with a live lease rather than the
            # publish-time mtime (which may already look expired to a
            # reclaimer if the task waited in the queue longer than a lease).
            os.utime(source)
            os.rename(source, target)
        except FileNotFoundError:
            return None  # another worker claimed it first
        except OSError:
            return None
        try:
            with target.open("r", encoding="utf-8") as handle:
                task = SpoolTask.from_json_dict(json.load(handle))
        except FileNotFoundError:
            # A peer reclaimed the task in the instant after our rename
            # (only possible if the lease is shorter than the utime-to-here
            # window); let it go — the task is back in the queue.
            return None
        return ClaimedTask(task=task, claimed_path=target)

    def claim_next(self) -> Optional[ClaimedTask]:
        """Claim the first pending task that is not already done or claimed."""
        for task_id in self.pending_task_ids():
            claimed = self.claim(task_id)
            if claimed is not None:
                return claimed
        return None

    def heartbeat(self, claimed: ClaimedTask) -> None:
        """Refresh the lease on a claimed task (touch its mtime)."""
        rule = inject("spool.lease_heartbeat", task=claimed.task_id)
        if rule is not None and rule.kind == "stall":
            return  # injected renewal failure: the lease silently ages out
        try:
            os.utime(claimed.claimed_path)
        except FileNotFoundError:
            pass  # reclaimed from under us; the shard write still settles it

    def release(self, claimed: ClaimedTask) -> None:
        """Drop the claim marker once the result shard is in place."""
        try:
            claimed.claimed_path.unlink()
        except FileNotFoundError:
            pass

    def reclaim_expired(self, now: Optional[float] = None) -> List[str]:
        """Re-queue claimed tasks whose lease expired without a result shard.

        Any process may call this; renaming the claim file back into
        ``tasks/`` is atomic, so concurrent reclaimers cannot duplicate a
        task.  A claimed task whose *valid* shard already exists is settled
        instead (the claim marker is removed); a torn shard is deleted so
        the task re-executes.  A task on its ``max_task_attempts``-th
        failed claim is quarantined rather than re-queued (not included in
        the returned list — see :meth:`quarantined_task_ids`).
        """
        now = time.time() if now is None else now
        reclaimed: List[str] = []
        for task_id in self.claimed_task_ids():
            claim_path = self.claimed_dir / f"{task_id}.json"
            shard_path = self.results_dir / f"{task_id}.jsonl"
            if shard_path.exists():
                if self.verify_shard(task_id):
                    try:
                        claim_path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                # Torn shard: drop it and treat the claim like any other
                # (the lease decides whether the writer is dead yet).
                try:
                    shard_path.unlink()
                except FileNotFoundError:
                    pass
            try:
                age = now - claim_path.stat().st_mtime
            except FileNotFoundError:
                continue
            if age < self.lease_timeout:
                continue
            outcome = self._retire_claim(claim_path, task_id)
            if outcome == "requeued":
                reclaimed.append(task_id)
        return reclaimed

    def requeue(
        self, claimed: ClaimedTask, event: str = "reclaim", **extra: Any
    ) -> Optional[str]:
        """Voluntarily give up a claim (e.g. shard write keeps failing).

        Counts as a failed attempt in the quarantine ledger, so a task
        whose spool I/O always fails is eventually quarantined rather than
        ping-ponging between this worker and the queue forever.  ``event``
        names the ledger line's cause (``"reclaim"`` for generic failures,
        ``"timeout"`` when a cell deadline killed the attempt — the
        coordinator reads it back to label quarantined cells with
        ``error_class=CellTimeout``); ``extra`` fields (e.g. the timed-out
        cell ``index``) ride the line.  Returns ``"requeued"``,
        ``"quarantined"``, or ``None`` when the claim was already gone (a
        peer reclaimed it).
        """
        return self._retire_claim(claimed.claimed_path, claimed.task_id, event, **extra)

    def _retire_claim(
        self, claim_path: Path, task_id: str, event: str = "reclaim", **extra: Any
    ) -> Optional[str]:
        """Move a failed claim back to pending — or into quarantine at cap.

        Only the process whose rename succeeds appends the ledger line, so
        racing reclaimers agree on the attempt count without locks.
        """
        attempt = self.reclaim_count(task_id) + 1
        if attempt >= self.max_task_attempts:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"{task_id}.json"
            outcome = "quarantined"
            ledger_event = "quarantine"
        else:
            target = self.tasks_dir / f"{task_id}.json"
            outcome = "requeued"
            ledger_event = event
        try:
            os.rename(claim_path, target)
        except OSError:
            return None
        if outcome == "quarantined" and event != "reclaim":
            # The cap-hitting attempt's *cause* rides the quarantine line
            # (as ``cause``), so a deadline-killed final attempt stays
            # attributable without inflating the attempt count.
            self._append_attempt(task_id, ledger_event, cause=event, **extra)
        else:
            self._append_attempt(task_id, ledger_event, **extra)
        return outcome

    def published_cell_timeout(self) -> Optional[float]:
        """The coordinator-published per-cell deadline, if any.

        Read from ``campaign.json`` so every worker — spawned or started
        by hand on another host — applies the same ``--cell-timeout``.
        """
        timeout = self.metadata().get("cell_timeout")
        if isinstance(timeout, (int, float)) and timeout > 0:
            return float(timeout)
        return None

    # -------------------------------------------------------------- quarantine
    def quarantined_task_ids(self) -> List[str]:
        return self._task_ids(self.quarantine_dir, ".json")

    def read_quarantined_task(self, task_id: str) -> SpoolTask:
        path = self.quarantine_dir / f"{task_id}.json"
        with path.open("r", encoding="utf-8") as handle:
            return SpoolTask.from_json_dict(json.load(handle))

    def quarantine_retry(self, task_id: str) -> bool:
        """Re-queue one quarantined task with a reset attempt counter."""
        source = self.quarantine_dir / f"{task_id}.json"
        try:
            os.rename(source, self.tasks_dir / f"{task_id}.json")
        except OSError:
            return False
        self._append_attempt(task_id, "reset")
        return True

    def _attempts(self, task_id: str) -> List[Dict[str, Any]]:
        """This task's attempts-ledger lines, in append order."""
        entries, _ = read_jsonl(self.attempts_path)
        return [entry for entry in entries if entry.get("task") == task_id]

    def reclaim_count(self, task_id: str) -> int:
        """Failed-claim count for a task since its last quarantine reset."""
        count = 0
        for entry in self._attempts(task_id):
            if entry.get("event") == "reset":
                count = 0
            elif entry.get("event") in ("reclaim", "timeout"):
                count += 1
        return count

    def timeout_indices(self, task_id: str) -> Set[int]:
        """Run-list indices a cell deadline killed for this task.

        Read back from the attempts ledger's ``timeout`` lines; the
        coordinator uses it to label a quarantined task's deadline-killed
        cells ``error_class=CellTimeout`` (the rest stay
        ``TaskQuarantined``).
        """
        return {
            entry["index"]
            for entry in self._attempts(task_id)
            if "timeout" in (entry.get("event"), entry.get("cause"))
            and isinstance(entry.get("index"), int)
        }

    def _append_attempt(self, task_id: str, event: str, **extra: Any) -> None:
        entry = {"task": task_id, "event": event, "ts": round(time.time(), 6)}
        entry.update(extra)
        try:
            append_jsonl(self.attempts_path, [entry])
        except OSError:
            pass  # the ledger is advisory; losing a line only delays quarantine

    # -------------------------------------------------------------- heartbeats
    def write_worker_heartbeat(self, worker_id: str, payload: Dict[str, Any]) -> bool:
        """Publish one worker's heartbeat summary (atomic; best-effort).

        Distinct from the task-lease mtime heartbeat: this one is for
        observers (``status``, the coordinator's progress file) and carries
        task counts and runtimes.  Never creates the spool, so a worker
        pointed at an uninitialised directory stays invisible.
        """
        if not self.workers_dir.is_dir():
            return False
        stamped = {"worker_id": worker_id, "ts": round(time.time(), 6)}
        stamped.update(payload)
        content = json.dumps(stamped, sort_keys=True)
        path = self.workers_dir / f"{worker_id}.json"
        try:
            rule = inject("spool.worker_heartbeat", worker=worker_id)
            if rule is not None and rule.kind == "torn_write":
                # Simulate the pre-atomic-write failure mode: a partial
                # heartbeat landing at the final path.  Readers must skip
                # it (invalid JSON) and the next stamp heals it.
                keep = int(rule.args.get("keep_bytes", max(1, len(content) // 2)))
                with path.open("w", encoding="utf-8") as handle:
                    handle.write(content[:keep])
                return True
            self._atomic_write(path, content)
        except OSError:
            return False
        return True

    def worker_heartbeats(self, now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Latest heartbeat per worker, each with a computed ``age_s``."""
        now = time.time() if now is None else now
        heartbeats: Dict[str, Dict[str, Any]] = {}
        if not self.workers_dir.is_dir():
            return heartbeats
        for entry in sorted(self.workers_dir.iterdir()):
            if entry.suffix != ".json" or entry.name.startswith("."):
                continue
            try:
                with entry.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            stamp = payload.get("ts")
            if isinstance(stamp, (int, float)):
                payload["age_s"] = round(max(0.0, now - float(stamp)), 3)
            heartbeats[entry.stem] = payload
        return heartbeats

    # ----------------------------------------------------------------- results
    def write_result_shard(
        self, task_id: str, records: Sequence[Tuple[int, RunRecord]]
    ) -> Path:
        """Atomically write one task's result shard (index-tagged records).

        The shard ends with a ``{"sha256": ...}`` trailer over the record
        lines; :meth:`read_result_shard` verifies it, so even a filesystem
        that tears the atomic rename's backing write (or an injected
        ``torn_write`` fault) cannot slip half a shard into a merge.
        """
        lines = [
            json.dumps({"index": index, "record": record.to_json_dict()}, sort_keys=True)
            for index, record in records
        ]
        body = "".join(line + "\n" for line in lines)
        trailer = json.dumps(
            {"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()},
            sort_keys=True,
        )
        content = body + trailer + "\n"
        path = self.results_dir / f"{task_id}.jsonl"
        rule = inject("spool.write_shard", task=task_id)
        if rule is not None and rule.kind == "torn_write":
            # Write a truncated shard straight to the final path, bypassing
            # tmp+rename — the failure the sha256 trailer exists to catch.
            keep = int(rule.args.get("keep_bytes", max(1, len(content) // 2)))
            with path.open("w", encoding="utf-8") as handle:
                handle.write(content[:keep])
            return path
        self._atomic_write(path, content)
        return path

    def read_result_shard(self, task_id: str) -> List[Tuple[int, RunRecord]]:
        """Read one verified shard; raises :class:`TornShardError` if torn."""
        path = self.results_dir / f"{task_id}.jsonl"
        with path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        if not text.endswith("\n"):
            raise TornShardError(task_id, "does not end with a newline")
        lines = text.splitlines()
        if not lines:
            raise TornShardError(task_id, "empty file")
        try:
            trailer = json.loads(lines[-1])
        except ValueError as exc:
            raise TornShardError(task_id, f"unparseable trailer: {exc}") from exc
        if not isinstance(trailer, dict) or "sha256" not in trailer:
            raise TornShardError(task_id, "missing sha256 trailer")
        body = text[: len(text) - len(lines[-1]) - 1]
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != trailer["sha256"]:
            raise TornShardError(task_id, "sha256 mismatch")
        results: List[Tuple[int, RunRecord]] = []
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            results.append(
                (int(payload["index"]), RunRecord.from_json_dict(payload["record"]))
            )
        return results

    def verify_shard(self, task_id: str) -> bool:
        """True when the shard exists and passes sha256 verification."""
        try:
            self.read_result_shard(task_id)
        except (TornShardError, OSError, ValueError, KeyError):
            return False
        return True

    def iter_result_records(self) -> Iterable[Tuple[int, RunRecord]]:
        """Every shard's records, in shard order then shard-line order.

        Torn shards raise :class:`TornShardError` — merging half a task's
        results would silently diverge from the serial store.
        """
        for task_id in self.completed_task_ids():
            yield from self.read_result_shard(task_id)

    # -------------------------------------------------------------- completion
    def mark_complete(self, campaign_id: Optional[str] = None) -> None:
        """Write the completion marker, naming the campaign it closes.

        The id is what lets a coordinator-spawned worker (told its campaign
        via :data:`CAMPAIGN_ENV`) trust a marker written before it started.
        """
        text = f"complete {campaign_id}\n" if campaign_id else "complete\n"
        self._atomic_write(self.complete_marker, text)

    def is_complete(self) -> bool:
        return self.complete_marker.exists()

    def completed_campaign(self) -> Optional[str]:
        """The campaign id the completion marker names (``None`` if bare or absent)."""
        try:
            words = self.complete_marker.read_text(encoding="utf-8").split()
        except OSError:
            return None
        return words[1] if len(words) == 2 else None

    def is_drained(self) -> bool:
        """No pending and no claimed tasks remain."""
        return not self.pending_task_ids() and not self.claimed_task_ids()

    # --------------------------------------------------------------- internals
    @staticmethod
    def _task_ids(directory: Path, suffix: str) -> List[str]:
        if not directory.is_dir():
            return []
        return sorted(
            entry.name[: -len(suffix)]
            for entry in directory.iterdir()
            if entry.name.endswith(suffix)
        )

    _atomic_write = staticmethod(atomic_write_text)


def shard_cells(
    cells: Sequence[Tuple[Dict[str, Any], int, int]],
    scenario: str,
    task_size: int,
) -> List[SpoolTask]:
    """Split a campaign's pending cells into :class:`SpoolTask` shards.

    Task ids are zero-padded so lexicographic claim order equals run-list
    order and workers drain the queue front to back.
    """
    if task_size < 1:
        raise ValueError(f"task_size must be >= 1, got {task_size}")
    tasks: List[SpoolTask] = []
    for start in range(0, len(cells), task_size):
        tasks.append(
            SpoolTask(
                task_id=f"task-{len(tasks):05d}",
                scenario=scenario,
                cells=tuple(cells[start : start + task_size]),
            )
        )
    return tasks
