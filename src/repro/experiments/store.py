"""JSONL persistence for campaign results.

One line per run, keyed by the canonical ``(scenario, params, seed)`` key,
in the append-only format of :mod:`repro.observability.jsonl` (which also
states what a crash can lose).  Re-running a campaign against an existing
store skips every run whose key already has a successful record (resume).
Wall-clock durations are deliberately *not* serialised so that the stores
written by parallel and serial executions of the same campaign are
byte-identical.  Stores are also the merge target for distributed
campaigns: :meth:`ResultStore.merge` appends foreign records (spool result
shards, another host's store) in the caller's order, preserving that
byte-identity for coordinator merges done in run-list order.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.experiments.runner import RunRecord
from repro.observability.jsonl import append_jsonl, read_jsonl


class ResultStore:
    """Append-only JSONL store of :class:`RunRecord` objects."""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)
        self._records: Dict[str, RunRecord] = {}
        self._loaded = False
        #: Lines that failed to parse during :meth:`load` (partial writes).
        self.malformed_lines = 0

    # -------------------------------------------------------------------- load
    def load(self) -> Dict[str, RunRecord]:
        """Read the JSONL file once.

        Malformed lines (typically a partial final line from an interrupted
        write) are skipped, counted in :attr:`malformed_lines`, and surfaced
        as a single warning so silent data loss is visible.
        """
        if self._loaded:
            return self._records
        self._loaded = True
        rows, self.malformed_lines = read_jsonl(self.path, strict=True)
        for payload in rows:
            try:
                record = RunRecord.from_json_dict(payload)
            except (ValueError, KeyError, TypeError):
                self.malformed_lines += 1
                continue
            self._records[record.key] = record
        if self.malformed_lines:
            warnings.warn(
                f"{self.path}: skipped {self.malformed_lines} malformed "
                "JSONL line(s) (interrupted write?); the affected runs "
                "will re-execute on resume",
                RuntimeWarning,
                stacklevel=2,
            )
        return self._records

    def get(self, key: str) -> Optional[RunRecord]:
        return self.load().get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.load()

    def __len__(self) -> int:
        return len(self.load())

    def keys(self) -> List[str]:
        return list(self.load())

    def records(self) -> List[RunRecord]:
        return list(self.load().values())

    def completed_keys(self) -> List[str]:
        """Keys whose stored record finished successfully."""
        return [key for key, record in self.load().items() if record.ok]

    # ------------------------------------------------------------------- write
    def add(self, record: RunRecord) -> None:
        self.add_many([record])

    def add_many(self, records: Iterable[RunRecord]) -> None:
        records = list(records)
        if not records:
            return
        self.load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.path, (record.to_json_dict() for record in records))
        for record in records:
            self._records[record.key] = record

    # ------------------------------------------------------------------- merge
    def merge(self, records: Iterable[RunRecord], prefer_ok: bool = True) -> int:
        """Append foreign records (shards, another store) in the given order.

        A record is skipped when this store already has its key — unless
        ``prefer_ok`` and the incoming record succeeded where the stored one
        failed.  Returns the number of records appended.  Merging a
        distributed campaign's shards in run-list order into a fresh store
        reproduces the ``jobs=1`` store byte-for-byte.
        """
        existing = self.load()
        to_add: List[RunRecord] = []
        queued: Dict[str, RunRecord] = {}
        for record in records:
            key = record.key
            current = queued.get(key)
            if current is None:
                current = existing.get(key)
            if current is not None and not (prefer_ok and record.ok and not current.ok):
                continue
            to_add.append(record)
            queued[key] = record
        self.add_many(to_add)
        return len(to_add)

    def merge_store(self, other: "ResultStore", prefer_ok: bool = True) -> int:
        """Merge every record of ``other`` into this store."""
        return self.merge(other.records(), prefer_ok=prefer_ok)
