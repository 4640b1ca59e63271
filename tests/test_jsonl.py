"""Tests for ``repro.observability.jsonl``: the append-only JSONL format
shared by the result store, the event log, the run ledger, span traces,
the cache stats ledger and the spool attempts ledger.

Every reader must survive what a crash or a concurrent writer leaves
behind (a torn last line, a blank line, a line that is JSON but not an
object), the follower must hold back a partial line and survive a
re-initialised spool, and the writers must keep their error contracts:
the store raises, the logs count a drop.
"""

import os

import pytest

from repro.distributed import CacheIndex, Spool
from repro.distributed.spool import shard_cells
from repro.experiments import ResultStore
from repro.experiments.registry import load_builtin_scenarios
from repro.experiments.runner import RunRecord
from repro.observability.events import EventLog, follow_events, read_events
from repro.observability.jsonl import append_jsonl, follow_jsonl, read_jsonl
from repro.observability.ledger import RunLedger, read_ledger
from repro.observability.trace import Tracer, read_trace_file


def _write_store(directory, n):
    ResultStore(directory / "store.jsonl").add(
        RunRecord(scenario="s", params={}, seed=n, metrics={"m": float(n)})
    )


def _read_store(directory):
    store = ResultStore(directory / "store.jsonl")
    return [record.seed for record in store.records()], store.malformed_lines


def _write_event(directory, n):
    EventLog(directory / "events.jsonl", source="w").emit("task_claimed", task=f"t{n}")


def _write_ledger(directory, n):
    RunLedger(directory / "ledger.jsonl").record("s", {}, n, "ok", "inline", 0.1)


def _write_span(directory, n):
    tracer = Tracer()
    tracer.configure(directory)
    with tracer.span(f"s{n}"):
        pass


def _write_stats(directory, n):
    cache = CacheIndex(directory / "cache")
    cache.hits = n + 1
    assert cache.flush_stats()


def _spool(directory):
    return Spool(directory / "spool", max_task_attempts=10)


def _write_attempt(directory, n):
    spool = _spool(directory)
    if n == 0:
        spool.initialise()
        spec = load_builtin_scenarios().get("demo/random_walk")
        cells = [(rs.params, rs.seed, rs.index) for rs in spec.runs(seeds=[1, 2])]
        spool.publish_task(shard_cells(cells, "demo/random_walk", task_size=2)[0])
    assert spool.requeue(spool.claim_next(), event="timeout", index=n) == "requeued"


#: reader name -> (writer, file it writes under the directory, reader, the
#: reader's result for rows 0 and 1).
READERS = {
    "ResultStore.load": (_write_store, "store.jsonl", _read_store, ([0, 1], 2)),
    "read_events": (
        _write_event,
        "events.jsonl",
        lambda d: [e["task"] for e in read_events(d / "events.jsonl")],
        ["t0", "t1"],
    ),
    "follow_events": (
        _write_event,
        "events.jsonl",
        lambda d: [
            e["task"]
            for e in follow_events(d / "events.jsonl", poll_interval=0.01, stop=lambda: True)
        ],
        ["t0", "t1"],
    ),
    "read_ledger": (
        _write_ledger,
        "ledger.jsonl",
        lambda d: [row["seed"] for row in read_ledger(d / "ledger.jsonl")],
        [0, 1],
    ),
    "read_trace_file": (
        _write_span,
        f"trace-{os.getpid()}.jsonl",
        lambda d: [span["name"] for span in read_trace_file(d / f"trace-{os.getpid()}.jsonl")],
        ["s0", "s1"],
    ),
    "CacheIndex.lifetime_stats": (
        _write_stats,
        "cache/stats.jsonl",
        lambda d: CacheIndex(d / "cache").lifetime_stats(),
        {"hits": 3, "misses": 0, "puts": 0, "repairs": 0},
    ),
    "Spool.reclaim_count": (
        _write_attempt,
        "spool/attempts.jsonl",
        lambda d: _spool(d).reclaim_count("task-00000"),
        2,
    ),
    "Spool.timeout_indices": (
        _write_attempt,
        "spool/attempts.jsonl",
        lambda d: _spool(d).timeout_indices("task-00000"),
        {0, 1},
    ),
}


@pytest.mark.filterwarnings("ignore:.*malformed JSONL:RuntimeWarning")
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_skips_torn_blank_and_non_object_lines(tmp_path, reader):
    write, name, read, expected = READERS[reader]
    path = tmp_path / name
    write(tmp_path, 0)
    first_line = path.read_bytes().split(b"\n")[0]
    with path.open("ab") as handle:
        handle.write(b"\n[1, 2]\n")  # a blank line, then JSON that is no object
    write(tmp_path, 1)
    with path.open("ab") as handle:
        handle.write(first_line[: len(first_line) // 2])  # torn last line
    assert read(tmp_path) == expected


def test_read_jsonl_counts_skipped_lines_but_not_blank_ones(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n[1]\n"x"\n\xff\xfe\n{"a": 2}\n{"a":')
    assert read_jsonl(path) == ([{"a": 1}, {"a": 2}], 4)
    assert read_jsonl(tmp_path / "absent.jsonl") == ([], 0)
    assert read_jsonl(tmp_path / "absent" / "rows.jsonl", strict=True) == ([], 0)


def test_read_jsonl_strict_raises_other_os_errors(tmp_path):
    assert read_jsonl(tmp_path) == ([], 0)
    with pytest.raises(OSError):
        read_jsonl(tmp_path, strict=True)


def test_append_writes_sorted_key_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    append_jsonl(path, [{"b": 1, "a": [2]}, {"c": None}])
    append_jsonl(path, [])
    assert path.read_bytes() == b'{"a": [2], "b": 1}\n{"c": null}\n'
    with pytest.raises(OSError):
        append_jsonl(tmp_path / "absent" / "rows.jsonl", [{"a": 1}])


def test_follow_holds_back_a_partial_line_until_its_newline_lands(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit("worker_start")
    log.emit("worker_exit")
    whole = path.read_bytes()
    cut = whole.index(b"\n") + 1 + 10
    path.write_bytes(whole[:cut])
    polls = []

    def stop():
        # The first idle poll lands the rest of the torn line; the second stops.
        if not polls:
            with path.open("ab") as handle:
                handle.write(whole[cut:])
        polls.append(True)
        return len(polls) > 1

    kinds = [e["kind"] for e in follow_events(path, poll_interval=0.01, stop=stop)]
    assert kinds == ["worker_start", "worker_exit"]


def test_follow_restarts_on_a_reinitialised_spool(tmp_path):
    """``Spool.initialise`` unlinks ``events.jsonl``; a follower must read
    the new campaign's log from its first byte, whatever its size."""
    spool = Spool(tmp_path / "spool")
    spool.initialise()
    log = EventLog(spool.events_path, source="coordinator")
    log.emit("campaign_start", campaign="old")
    log.emit("campaign_complete", campaign="old")
    done = []
    follower = follow_events(spool.events_path, poll_interval=0.01, stop=lambda: bool(done))
    assert [next(follower)["campaign"] for _ in range(2)] == ["old", "old"]
    spool.initialise()
    for task in range(5):
        log.emit("task_claimed", campaign="new", task=f"t{task}")
    done.append(True)
    assert [event.get("task") for event in follower] == [f"t{task}" for task in range(5)]


def test_follow_restarts_on_truncation(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = follow_jsonl(path, poll_interval=0.01, stop=lambda: True)
    append_jsonl(path, [{"n": 0}, {"n": 1}])
    assert [next(rows)["n"] for _ in range(2)] == [0, 1]
    path.write_text('{"n": 2}\n')  # truncated in place, same inode
    assert [row["n"] for row in rows] == [2]


def test_store_raises_where_the_logs_count_a_drop(tmp_path):
    blocked = tmp_path / "blocked"  # a directory where each writer wants a file
    blocked.mkdir()
    record = RunRecord(scenario="s", params={}, seed=1, metrics={})
    with pytest.raises(OSError):
        ResultStore(blocked).add(record)

    log = EventLog(blocked)
    assert log.emit("worker_start") is None and log.dropped == 1

    ledger = RunLedger(blocked)
    ledger.record("s", {}, 1, "ok", "inline", 0.1)
    assert (ledger.rows, ledger.dropped) == (0, 1)

    tracer = Tracer()
    tracer.configure(tmp_path)
    tracer.path.mkdir()
    with tracer.span("cell"):
        pass
    assert tracer.dropped == 1
