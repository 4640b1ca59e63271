"""Content-addressed result cache shared across campaigns and hosts.

A :class:`CacheIndex` is a directory of cached :class:`RunRecord` objects
keyed by ``sha256(scenario source + canonical params + seed)`` (see
:func:`repro.experiments.spec.content_cache_key`).  Because the key hashes
the scenario's *source* rather than its name:

* editing one scenario's factory invalidates exactly that scenario's
  entries — every other scenario's completed runs stay warm;
* variants sharing a factory share cache entries cell-by-cell;
* renaming a scenario or moving a store keeps its cache hits.

Entries are one JSON file each under a two-character fan-out
(``objects/ab/abcdef….json``), written atomically (temp file + rename) so
concurrent writers on a shared filesystem never corrupt an entry; both
writers of a racing pair write identical bytes anyway, since runs are
deterministic.  Only successful records are cached — failures always
re-run.

Effectiveness bookkeeping (first slice of ROADMAP item 5): every index
counts its hits / misses / puts in-process and mirrors them into the
global telemetry registry (``cache.hit`` / ``cache.miss`` / ``cache.put``
counters).  :meth:`CacheIndex.flush_stats` appends the session's counts to
a ``stats.jsonl`` ledger inside the cache root (format:
:mod:`repro.observability.jsonl`), so ``cache stats`` can report lifetime
effectiveness across campaigns and hosts, not just the current process.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.experiments.runner import RunRecord
from repro.observability.jsonl import append_jsonl, read_jsonl
from repro.observability.progress import atomic_write_text
from repro.observability.telemetry import TELEMETRY
from repro.resilience.faults import inject

logger = logging.getLogger(__name__)


class CacheIndex:
    """Filesystem-backed content-addressed store of successful run records.

    Resilience semantics: a *corrupt* entry (garbled JSON, wrong shape) is
    repaired on read — the object is deleted so the re-executed run can
    re-publish a good one — and an *unreachable* cache (permission error,
    dead mount: any OSError other than a plain missing entry) degrades the
    whole index: one warning, then every get/put is a silent no-op.  A
    campaign never fails because its cache did; it just runs uncached.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        # Session counters; see flush_stats() for the cross-process ledger.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Corrupt entries deleted on read this session.
        self.repairs = 0
        self._flushed = (0, 0, 0, 0)
        #: Set after the first infrastructure-level OSError; see degraded.
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True once the cache has been abandoned for this session."""
        return self._degraded

    def _degrade(self, exc: OSError) -> None:
        if self._degraded:
            return
        self._degraded = True
        TELEMETRY.count("cache.degraded")
        logger.warning(
            "result cache %s is unreachable (%s); continuing uncached",
            self.root,
            exc,
        )

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def stats_path(self) -> Path:
        return self.root / "stats.jsonl"

    def path_for(self, key: str) -> Path:
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        return self.objects_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ access
    def get(self, key: Optional[str]) -> Optional[RunRecord]:
        """The cached record for ``key``, or ``None`` on miss.

        Corrupt entries are *repaired on read*: the garbled object is
        deleted (so the re-executed run re-publishes a good one) and the
        lookup counts as a miss.  Infrastructure failures degrade the
        whole index instead — see the class docstring.
        """
        if key is None or self._degraded:
            return None
        path = self.path_for(key)
        corrupt = False
        try:
            inject("cache.get", key=key)
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
            record = RunRecord.from_json_dict(payload)
        except FileNotFoundError:
            record = None
        except (ValueError, KeyError, TypeError):
            record = None
            corrupt = True
        except OSError as exc:
            self._degrade(exc)
            return None
        if corrupt:
            self.repairs += 1
            TELEMETRY.count("cache.repair")
            logger.warning(
                "corrupt cache object %s removed (repair-on-read); the cell re-executes",
                path.name,
            )
            try:
                path.unlink()
            except OSError:
                pass
        if record is not None and record.ok:
            self.hits += 1
            TELEMETRY.count("cache.hit")
            return record
        self.misses += 1
        TELEMETRY.count("cache.miss")
        return None

    def put(self, key: Optional[str], record: RunRecord) -> bool:
        """Cache one successful record; failures and key-less runs are skipped."""
        if key is None or not record.ok or self._degraded:
            return False
        path = self.path_for(key)
        try:
            rule = inject("cache.put", key=key)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(record.to_json_dict(), sort_keys=True))
        except OSError as exc:
            self._degrade(exc)
            return False
        if rule is not None and rule.kind == "corrupt":
            # Garble the just-written object in place (simulates a cache
            # host losing the tail of the write after the rename landed).
            keep = int(rule.args.get("keep_bytes", 10))
            with path.open("r+", encoding="utf-8") as handle:
                content = handle.read()
                handle.seek(0)
                handle.truncate()
                handle.write(content[:keep])
        self.puts += 1
        TELEMETRY.count("cache.put")
        return True

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------ effectiveness
    def session_stats(self) -> Dict[str, int]:
        """Hit/miss/put/repair counts recorded by *this* index instance."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "repairs": self.repairs,
        }

    def flush_stats(self) -> bool:
        """Append the not-yet-flushed session counts to the stats ledger.

        The ledger (``stats.jsonl``) holds one row per flush, shared by
        every process using the cache root.  Flushing is best-effort and
        idempotent per count: each call appends only the delta since the
        previous flush.
        """
        if self._degraded:
            return False
        delta = (
            self.hits - self._flushed[0],
            self.misses - self._flushed[1],
            self.puts - self._flushed[2],
            self.repairs - self._flushed[3],
        )
        if not any(delta):
            return False
        payload = {
            "ts": round(time.time(), 6),
            "hits": delta[0],
            "misses": delta[1],
            "puts": delta[2],
        }
        if delta[3]:
            payload["repairs"] = delta[3]
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            append_jsonl(self.stats_path, [payload])
        except OSError:
            return False
        self._flushed = (self.hits, self.misses, self.puts, self.repairs)
        return True

    def lifetime_stats(self) -> Dict[str, int]:
        """Hit/miss/put/repair totals accumulated in the ledger across sessions."""
        totals = {"hits": 0, "misses": 0, "puts": 0, "repairs": 0}
        for entry in read_jsonl(self.stats_path)[0]:
            for name in totals:
                value = entry.get(name)
                if isinstance(value, int):
                    totals[name] += value
        return totals

    # --------------------------------------------------------------- inventory
    def _entry_paths(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for entry in sorted(bucket.iterdir()):
                if entry.suffix == ".json" and not entry.name.startswith("."):
                    yield entry

    def keys(self) -> List[str]:
        return [path.stem for path in self._entry_paths()]

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def stats(self) -> Dict[str, Any]:
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
        stats: Dict[str, Any] = {"entries": entries, "bytes": total_bytes}
        stats["lifetime"] = self.lifetime_stats()
        return stats

    def clear(self) -> int:
        """Remove every cached entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
