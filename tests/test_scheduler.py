"""Spool gray-failure handling: cell deadlines, worker health, last-resort
recovery, and spool fsck."""

import json
import random
import time

import pytest

from repro.distributed import (
    CellTimeout,
    Spool,
    SpoolBackend,
    WorkerHealth,
    cell_deadline,
    fsck_spool,
    merge_spool_results,
    run_worker,
)
from repro.distributed.coordinator import republish_missing
from repro.distributed.spool import shard_cells
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.observability.events import EVENT_KINDS, read_events
from repro.observability.progress import read_progress
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule, armed


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


# --------------------------------------------------------------------------
# Cell deadlines
# --------------------------------------------------------------------------


class TestCellDeadline:
    def test_kills_a_runaway_cell_within_twice_the_deadline(self):
        deadline = 0.2
        started = time.monotonic()
        with pytest.raises(CellTimeout) as excinfo:
            with cell_deadline(deadline, task="task-00000", index=3):
                time.sleep(30.0)  # blocking C call; SIGALRM must interrupt it
        elapsed = time.monotonic() - started
        assert elapsed < 2.0 * deadline
        assert excinfo.value.index == 3
        assert excinfo.value.task == "task-00000"
        assert excinfo.value.seconds == deadline

    def test_is_a_base_exception_so_failed_record_capture_cannot_eat_it(self):
        # execute_run turns `Exception` into failed in-shard records; a
        # deadline kill must instead abort the task with no shard at all.
        assert issubclass(CellTimeout, BaseException)
        assert not issubclass(CellTimeout, Exception)

    def test_none_or_nonpositive_deadline_is_a_noop(self):
        with cell_deadline(None):
            pass
        with cell_deadline(0.0):
            pass

    def test_previous_sigalrm_handler_is_restored(self):
        import signal

        previous = signal.getsignal(signal.SIGALRM)
        with cell_deadline(5.0, task="t", index=0):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_stall_directive_disables_the_watchdog(self):
        plan = FaultPlan([FaultRule(point="worker.deadline", kind="stall")])
        with armed(plan):
            with cell_deadline(0.05, task="t", index=0):
                time.sleep(0.15)  # would have been killed without the stall


# --------------------------------------------------------------------------
# Worker health
# --------------------------------------------------------------------------


class TestWorkerHealth:
    def test_fresh_worker_is_healthy_and_unbenched(self):
        health = WorkerHealth()
        assert health.score() == 1.0
        assert not health.benched()

    def test_repeated_timeouts_bench_the_worker(self):
        health = WorkerHealth(window=8, bench_below=0.5, min_events=4)
        for _ in range(4):
            health.record_timeout()
        assert health.benched()
        assert health.heartbeat_fields() == {"health": 0.0, "benched": True}

    def test_successes_rehabilitate_a_benched_worker(self):
        health = WorkerHealth(window=4, bench_below=0.5, min_events=4)
        for _ in range(4):
            health.record_io_failure()
        assert health.benched()
        for _ in range(4):
            health.record_success()
        assert not health.benched()
        assert health.score() == 1.0

    def test_idle_jitter_is_seeded_per_worker_id(self):
        # The thundering-herd fix: decorrelated but deterministic polling.
        first = [random.Random("worker-1").random() for _ in range(3)]
        again = [random.Random("worker-1").random() for _ in range(3)]
        other = [random.Random("worker-2").random() for _ in range(3)]
        assert first == again
        assert first != other


# --------------------------------------------------------------------------
# Cell-deadline campaigns
# --------------------------------------------------------------------------


class TestCellTimeoutCampaign:
    def test_runaway_cell_is_killed_and_quarantined_as_cell_timeout(
        self, tmp_path, monkeypatch
    ):
        deadline = 1.0
        plan = FaultPlan(
            [
                FaultRule(
                    point="run.cell", kind="sleep",
                    match={"seed": 2}, times=None, args={"seconds": 60.0},
                )
            ]
        )
        plan_path = plan.save(tmp_path / "plan.json")
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=1,
            task_size=1,
            poll_interval=0.02,
            timeout=120.0,
            max_task_attempts=2,
            cell_timeout=deadline,
        )
        store_path = tmp_path / "store.jsonl"
        started = time.monotonic()
        result = ParallelCampaignRunner(store=ResultStore(store_path), backend=backend).run(
            "demo/random_walk", seeds=[1, 2, 3]
        )
        elapsed = time.monotonic() - started
        assert elapsed < 60.0  # the 60s sleep never ran to completion
        assert result.failures == 1
        (failed,) = [record for record in result.records if not record.ok]
        assert failed.seed == 2
        assert failed.error_class == "CellTimeout"
        assert "deadline" in failed.error
        spool = Spool(tmp_path / "spool")
        assert spool.quarantined_task_ids() == ["task-00001"]
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        kills = [event for event in events if event["kind"] == "cell_timeout"]
        assert kills and all(event["seconds"] == deadline for event in kills)
        # The watchdog fired within twice the deadline of the claim.
        claims = {
            event["task"]: event["ts"]
            for event in events
            if event["kind"] == "task_claimed"
        }
        for kill in kills:
            assert kill["ts"] - claims[kill["task"]] < 2.0 * deadline

    def test_requeue_timeout_event_feeds_ledger_and_timeout_indices(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=2)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        assert (
            spool.requeue(spool.claim_next(), event="timeout", index=0) == "requeued"
        )
        assert spool.reclaim_count(task.task_id) == 1
        assert (
            spool.requeue(spool.claim_next(), event="timeout", index=0) == "quarantined"
        )
        # The cap-hitting attempt rides the quarantine line as its cause, so
        # the attempt count stays accurate and the index stays attributable.
        assert spool.reclaim_count(task.task_id) == 1
        assert spool.timeout_indices(task.task_id) == {0}


# --------------------------------------------------------------------------
# Task size and artifacts of the removed elastic policies
# --------------------------------------------------------------------------


class TestTaskSize:
    def test_bad_task_size_strings_are_rejected(self):
        for bad in ("huge", "adaptive", "auto", 0):
            with pytest.raises(ValueError):
                SpoolBackend("unused-spool", task_size=bad)

    def test_pre_v4_progress_and_events_still_read(self, tmp_path):
        """Spools written while speculation and work stealing existed hold
        a progress ``scheduler`` dict and ``task_speculated``/``shard_split``
        events; readers skip the one and pass the others through."""
        progress_path = tmp_path / "progress.json"
        progress_path.write_text(
            json.dumps(
                {"version": 1, "scenario": "s", "total": 2, "done": 2,
                 "complete": True, "scheduler": {"speculated": 1}}
            )
        )
        progress = read_progress(progress_path)
        assert progress is not None and progress.complete
        assert "scheduler" not in progress.to_json_dict()
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(
            "".join(
                json.dumps({"ts": 1.0, "kind": kind, "task": "task-00000"}) + "\n"
                for kind in ("task_speculated", "shard_split", "task_claimed")
            )
        )
        kinds = [event["kind"] for event in read_events(events_path)]
        assert kinds == ["task_speculated", "shard_split", "task_claimed"]
        assert "task_speculated" not in EVENT_KINDS
        assert "shard_split" not in EVENT_KINDS



# --------------------------------------------------------------------------
# fsck
# --------------------------------------------------------------------------


class TestFsck:
    def _damaged_spool(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=3)
        spool.initialise()
        _, cells = _demo_cells([1, 2, 3])
        tasks = shard_cells(cells, "demo/random_walk", task_size=1)
        for task in tasks:
            spool.publish_task(task)
        # Complete the first task legitimately so a valid shard exists.
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=1)
        assert spool.verify_shard(tasks[0].task_id)
        # Torn shard: bytes that can never pass the sha256 trailer.
        (spool.results_dir / f"{tasks[1].task_id}.jsonl").write_text("{torn\n")
        # Orphaned lease: claim still held although a valid shard exists
        # (shard verification checks only the trailer, so borrow good bytes).
        assert spool.claim(tasks[2].task_id) is not None
        good = (spool.results_dir / f"{tasks[0].task_id}.jsonl").read_bytes()
        (spool.results_dir / f"{tasks[2].task_id}.jsonl").write_bytes(good)
        # Stale + unparsable heartbeats:
        spool.workers_dir.mkdir(parents=True, exist_ok=True)
        (spool.workers_dir / "w-stale.json").write_text(
            json.dumps({"state": "idle", "ts": time.time() - 10_000})
        )
        (spool.workers_dir / "w-bad.json").write_text("not json")
        return spool, tasks

    def test_fsck_detects_damage_and_repair_heals_it(self, tmp_path):
        spool, tasks = self._damaged_spool(tmp_path)
        report = fsck_spool(spool)
        kinds = {issue["kind"] for issue in report["issues"]}
        assert "torn_shard" in kinds
        assert "orphaned_lease" in kinds
        assert "stale_heartbeat" in kinds
        assert "bad_heartbeat" in kinds
        assert report["ok"] is False

        repaired = fsck_spool(spool, repair=True)
        assert repaired["ok"] is True
        assert repaired["repaired"]
        clean = fsck_spool(spool)
        assert clean["issues"] == [] and clean["ok"] is True
        assert not (spool.results_dir / f"{tasks[1].task_id}.jsonl").exists()
        assert not (spool.workers_dir / "w-stale.json").exists()
        assert not (spool.workers_dir / "w-bad.json").exists()

    def test_fsck_lifts_quarantine_on_a_completed_task(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=1)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        # Execute it so a valid shard exists, then force it into quarantine.
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=1)
        assert spool.verify_shard(task.task_id)
        spool.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (spool.quarantine_dir / f"{task.task_id}.json").write_text(
            json.dumps(task.to_json_dict())
        )
        report = fsck_spool(spool, repair=True)
        assert any(
            issue["kind"] == "quarantine_completed" for issue in report["issues"]
        )
        assert spool.quarantined_task_ids() == []

    def test_fsck_cli_reports_and_repairs(self, tmp_path, capsys):
        spool, _ = self._damaged_spool(tmp_path)
        assert cli_main(["fsck", str(spool.root)]) == 1
        out = capsys.readouterr().out
        assert "issue(s)" in out and "--repair" in out
        assert cli_main(["fsck", str(spool.root), "--repair"]) == 0
        assert "repaired:" in capsys.readouterr().out
        assert cli_main(["fsck", str(spool.root), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["issues"] == [] and document["ok"] is True

    def test_fsck_cli_rejects_a_non_spool_directory(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path / "nowhere")]) == 1
        assert "not a campaign spool" in capsys.readouterr().out


# --------------------------------------------------------------------------
# Recovery of last resort
# --------------------------------------------------------------------------


class TestRepublishMissing:
    def test_recovery_task_ids_sort_after_every_numeric_id(self):
        assert "task-99999" < "task-r00000" < "task-r00001"

    def test_republish_missing_covers_the_cells(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2, 3])
        recovery = republish_missing(spool, "demo/random_walk", cells, spool.publish_task)
        assert len(recovery) == 1
        (pending,) = spool.pending_task_ids()
        assert pending.startswith("task-r")
        assert len(spool.claim(pending).task.cells) == 3
        # Numbering continues past recovery ids the spool already holds.
        (again,) = republish_missing(spool, "demo/random_walk", cells, spool.publish_task)
        assert again.task_id == "task-r00001"


    def test_torn_shard_under_a_held_claim_is_recovered_and_twins_discarded(
        self, tmp_path
    ):
        """The drain-time republish and the first-shard-wins discard, driven
        step by step by an external worker thread (``workers=0``)."""
        import threading

        from repro.distributed.worker import execute_task

        seeds = [1, 2, 3]
        serial = tmp_path / "serial.jsonl"
        ParallelCampaignRunner(jobs=1, store=ResultStore(serial)).run(
            "demo/random_walk", seeds=seeds
        )
        spool = Spool(tmp_path / "spool")
        registry = load_builtin_scenarios()
        failures = []

        def wait_for(predicate):
            deadline = time.monotonic() + 30.0
            while not predicate():
                if time.monotonic() > deadline:
                    raise TimeoutError("external worker step timed out")
                time.sleep(0.01)

        def external_worker():
            try:
                wait_for(lambda: "task-00001" in spool.pending_task_ids())
                first = spool.claim("task-00000")
                # Torn shard while the claim is held: the coordinator drops
                # it but cannot republish a task that is still claimed.
                torn = spool.results_dir / "task-00000.jsonl"
                torn.write_text('{"index": 0')
                wait_for(lambda: not torn.exists())
                spool.release(first)
                execute_task(spool.claim("task-00001"), spool, registry)
                # A byte-identical twin of a settled shard loses to it.
                spool.write_result_shard(
                    "task-00001-twin", spool.read_result_shard("task-00001")
                )
                wait_for(lambda: "task-r00000" in spool.pending_task_ids())
                execute_task(spool.claim("task-r00000"), spool, registry)
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)

        backend = SpoolBackend(
            spool.root, workers=0, task_size=2, timeout=60.0, poll_interval=0.01
        )
        thread = threading.Thread(target=external_worker)
        thread.start()
        store = tmp_path / "store.jsonl"
        try:
            result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
                "demo/random_walk", seeds=seeds
            )
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert not failures
        assert result.failures == 0
        assert store.read_bytes() == serial.read_bytes()
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        assert [e["task"] for e in events if e["kind"] == "shard_torn"] == ["task-00000"]
        superseded = [e["task"] for e in events if e["kind"] == "task_superseded"]
        assert superseded == ["task-00001-twin"]
        # The spool's merged view is equally byte-identical, twin and all.
        merged = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged))
        assert merged.read_bytes() == serial.read_bytes()


# --------------------------------------------------------------------------
# CLI validation
# --------------------------------------------------------------------------


class TestElasticCli:
    def test_task_size_rejects_garbage_and_adaptive(self, capsys):
        for bad in ("huge", "adaptive"):
            rc = cli_main(
                ["run", "demo/random_walk", "--seeds", "1", "--task-size", bad]
            )
            assert rc == 2
            assert "--task-size" in capsys.readouterr().err

    def test_cell_timeout_is_spool_only_and_positive(self, tmp_path, capsys):
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--cell-timeout", "5"]
        )
        assert rc == 2
        assert "--cell-timeout" in capsys.readouterr().err
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--backend", "spool",
             "--spool", str(tmp_path / "spool"), "--cell-timeout", "-1"]
        )
        assert rc == 2
        assert "--cell-timeout" in capsys.readouterr().err
