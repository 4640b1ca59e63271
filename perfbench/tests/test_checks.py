"""The output checks every campaign must pass."""

import hashlib
import json
from pathlib import Path

from perfbench.layers import PARTITION, PER_LAYER
from perfbench.run import END_TO_END, ROOT, check
from perfbench.workloads import CHECKED_COUNTS, plan, prefill_calls


def _store_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_store(path):
    from repro.experiments import ParallelCampaignRunner, ResultStore

    ParallelCampaignRunner(jobs=1, store=ResultStore(path)).run(
        "demo/random_walk", params={"steps": 50}, seeds=[1, 2, 3]
    )


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    store = tmp_path / "store.jsonl"
    _write_store(store)
    expected = {"digest": _store_digest(store), "counts": {"sim.events": 7}}
    result = {"digest": _store_digest(store), "counts": {"sim.events": 7}, "failed": 0}
    assert check(result, expected) == []

    data = bytearray(store.read_bytes())
    index = data.index(b'"seed": 2') + len(b'"seed": ')
    data[index : index + 1] = b"4"
    store.write_bytes(bytes(data))
    result["digest"] = _store_digest(store)
    problems = check(result, expected)
    assert len(problems) == 1 and problems[0].startswith("store sha256")


def test_same_campaign_gives_the_same_digest(tmp_path):
    _write_store(tmp_path / "a.jsonl")
    _write_store(tmp_path / "b.jsonl")
    assert _store_digest(tmp_path / "a.jsonl") == _store_digest(tmp_path / "b.jsonl")


def test_count_and_failure_checks():
    expected = {"digest": "d", "counts": {"sim.events": 1290231}}
    result = {"digest": "d", "counts": {"sim.events": 1290230}, "failed": 1}
    problems = check(result, expected)
    assert any(problem.startswith("sim.events") for problem in problems)
    assert any("failed cell" in problem for problem in problems)


def test_traced_partition_is_checked():
    expected = {"digest": "d", "counts": {}}
    layers = {name: 0.0 for name in PARTITION}
    layers.update({"other.self_s": 0.0, "unattributed_s": 0.5, "trace.wall_s": 1.0})
    problems = check({"digest": "d", "counts": {}, "failed": 0, "layers": layers}, expected)
    assert problems == ["layer self times + unattributed_s != traced wall"]


def test_workload_seed_offsets_seed_lists_disjointly():
    base = plan("vector_batch", 0)
    shifted = plan("vector_batch", 3)
    for a, b in zip(base, shifted):
        assert a.scenario == b.scenario and a.params == b.params and a.sweep == b.sweep
        assert not set(a.seeds) & set(b.seeds)
        assert b.seeds[0] - a.seeds[0] == 3 * len(a.seeds)
    assert set(CHECKED_COUNTS) == {"physics_inline", "spool_cached", "vector_batch"}


def test_prefill_covers_every_other_cell_of_the_run_list():
    from repro.experiments import load_builtin_scenarios

    registry = load_builtin_scenarios()
    (call,) = plan("spool_cached", 1)
    run_list = registry.get(call.scenario).runs(**call.kwargs())
    prefilled = set()
    for part in prefill_calls([call]):
        for run_spec in registry.get(part.scenario).runs(**part.kwargs()):
            prefilled.add(run_spec.key)
    assert prefilled == {run_spec.key for run_spec in run_list[::2]}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(CHECKED_COUNTS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    run_py = Path(__file__).resolve().parents[1] / "run.py"
    assert (ROOT / spec["command"][1]).resolve() == run_py
