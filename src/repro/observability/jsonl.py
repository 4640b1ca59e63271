"""The append-only JSONL format of the result store and the campaign logs.

The result store, ``events.jsonl``, ``ledger.jsonl``, ``trace-<pid>.jsonl``,
the cache's ``stats.jsonl`` and the spool's ``attempts.jsonl`` hold one
JSON object per line, ``json.dumps(row, sort_keys=True)``, appended with
one ``write()`` each on an append-mode handle: concurrent appenders
interleave whole lines and file order is append order.  Appending never
creates the directory and raises ``OSError``; the store lets it through,
the logs count a dropped row.  A crash mid-append leaves at most one torn
last line.  Readers skip it, blank lines, and any line that is not a UTF-8
JSON object, and tolerate fields they do not know.

**Durability.**  Campaigns are crash-consistent against *process*
crashes, not power loss.  No JSONL append is fsynced.
:func:`~repro.observability.progress.atomic_write_text` (progress files,
task files, result shards, cache objects) fsyncs the file before its
rename but not the directory, so a power loss can undo the rename: the
file is missing and its cells re-execute.  What a power loss can drop
from the JSONL files, and what then happens:

* the last rows of a result store — resume re-executes those cells;
* ``attempts.jsonl`` lines — a poison task is quarantined a few claims later;
* ``events``, ``ledger``, ``trace-<pid>`` and cache ``stats`` rows — lost.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

PathLike = Union[str, os.PathLike]


def append_jsonl(path: PathLike, rows: Iterable[Mapping[str, Any]]) -> None:
    """Append each row as one sorted-keys JSON line, on one append-mode open."""
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _parse(raw: bytes) -> Optional[Dict[str, Any]]:
    try:
        row = json.loads(raw.decode("utf-8"))
    except ValueError:  # torn line; UnicodeDecodeError is a ValueError too
        return None
    return row if isinstance(row, dict) else None


def read_jsonl(path: PathLike, strict: bool = False) -> Tuple[List[Dict[str, Any]], int]:
    """Every JSON-object row at ``path`` in file order, and the skipped-line count.

    Blank lines are ignored, not counted.  A missing file reads as no rows;
    any other ``OSError`` propagates when ``strict`` and reads as no rows
    otherwise.
    """
    try:
        handle = open(path, "rb")
    except OSError as error:
        if strict and not isinstance(error, (FileNotFoundError, NotADirectoryError)):
            raise
        return [], 0
    with handle:
        parsed = [_parse(raw) for raw in handle if raw.strip()]
    rows = [row for row in parsed if row is not None]
    return rows, len(parsed) - len(rows)


def _replaced(path: Path, handle: Any) -> bool:
    """Whether ``path`` now names a different file than ``handle``, or it shrank."""
    opened = os.fstat(handle.fileno())
    try:
        return opened.st_size < handle.tell() or not os.path.samestat(opened, os.stat(path))
    except OSError:
        return False  # unlinked and not yet recreated


def follow_jsonl(
    path: PathLike,
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield rows as they are appended, from the start of the file.

    A partial last line is held back until its newline lands.  When the
    file is replaced (unlinked and recreated, as a re-initialised spool
    does) or truncated, following starts again from its first byte; the
    open handle pins the old file, so its inode cannot be reused unseen.
    Returns once ``stop()`` is truthy *and* no unread data remains, so rows
    racing the stop condition still drain.  Without ``stop`` it follows
    forever.
    """
    path = Path(path)
    handle, buffer = None, b""
    try:
        while True:
            if handle is None:
                try:
                    handle = path.open("rb")
                except OSError:
                    pass
            chunk = handle.read() if handle is not None else b""
            if chunk:
                *lines, buffer = (buffer + chunk).split(b"\n")
                for raw in lines:
                    row = _parse(raw)
                    if row is not None:
                        yield row
            elif handle is not None and _replaced(path, handle):
                handle.close()
                handle, buffer = None, b""
            elif stop is not None and stop():
                return
            else:
                time.sleep(poll_interval)
    finally:
        if handle is not None:
            handle.close()
