"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload physics_inline --seed 0 --seconds 30 --trace 0

Run from anywhere; the repository is this file's grandparent directory and
the program is imported from its ``src``.  The load is a closed loop from
this process: each campaign runs in a fresh interpreter
(``perfbench.campaign``), and the next one starts only once the previous
has returned and written its store.  Campaigns keep starting while the
next one is expected to end less than half a campaign past ``--seconds``
(at least :data:`MIN_CAMPAIGNS` of each kind).

``--trace 0`` times the campaigns untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced campaigns and
reports the per-layer metrics of the traced campaign with the median wall
time, plus the tracing overhead.  Either way every campaign's store must
match the ``--jobs 1`` store byte for byte and its exact counts must match
(pinned in ``pinned.json`` for seed 0, computed in set-up otherwise).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Without the program's
source next to this directory, the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER, partition_error  # noqa: E402
from perfbench.stats import median, median_index, quartiles, relative_spread  # noqa: E402
from perfbench.workloads import CHECKED_COUNTS, STRUCTURAL_COUNTS, WORKLOADS  # noqa: E402

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"
WORK_ROOT = ROOT / ".perfbench"
MIN_CAMPAIGNS = 3
#: Extra fresh interpreters per run that only import and load the registry.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120.0
PARTITION_TOLERANCE_S = 1e-6

END_TO_END = (
    ("campaign_wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("PERFBENCH_WORKER_SPANS", None)
    return env


def run_child(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ``perfbench.campaign`` job; its set-up time rides along."""
    started = time.perf_counter()
    # A session of its own, so a hung campaign is killed with its workers.
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.campaign", json.dumps(job)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - started
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{job['mode']} campaign timed out after {CHILD_TIMEOUT_S:.0f}s")
    lines = out.strip().splitlines()
    if first.strip() != "ready" or process.returncode != 0 or not lines:
        raise ChildFailed(f"{job['mode']} campaign exited {process.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def setup_probe() -> float:
    """Seconds from spawning an interpreter to a loaded scenario registry."""
    code = "import repro.experiments as e; e.load_builtin_scenarios(); print('ready', flush=True)"
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    first = process.stdout.readline()
    elapsed = time.perf_counter() - started
    process.communicate(timeout=CHILD_TIMEOUT_S)
    if first.strip() != "ready" or process.returncode != 0:
        raise ChildFailed("set-up probe failed")
    return elapsed


def host_info() -> Dict[str, Any]:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def reference_outputs(workload: str, seed: int, work: Path) -> Dict[str, Any]:
    """Run the campaign through ``--jobs 1`` inline (set-up, untimed)."""
    reference = run_child(
        {"workload": workload, "seed": seed, "mode": "reference", "dir": str(work / "reference")}
    )
    if reference["failed"]:
        raise ChildFailed(f"reference campaign had {reference['failed']} failed cell(s)")
    return reference


def expected_outputs(workload: str, seed: int, work: Path) -> Dict[str, Any]:
    """Digest and counts every campaign must reproduce."""
    pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8"))[workload]
    if seed == 0:
        return pinned
    reference = reference_outputs(workload, seed, work)
    counts = {
        name: pinned["counts"][name] if name in STRUCTURAL_COUNTS else reference["counts"][name]
        for name in CHECKED_COUNTS[workload]
    }
    return {"digest": reference["digest"], "counts": counts, "cells": reference["cells"]}


def prefill(workload: str, seed: int, work: Path) -> Optional[Path]:
    """The ``spool_cached`` fixture: a cache holding every other cell."""
    if workload != "spool_cached":
        return None
    template = work / "cache-template"
    run_child(
        {
            "workload": workload,
            "seed": seed,
            "mode": "prefill",
            "dir": str(work / "prefill"),
            "cache": str(template),
        }
    )
    return template


def timed_job(
    workload: str, seed: int, directory: Path, template: Optional[Path], traced: bool = False
) -> Dict[str, Any]:
    job = {
        "workload": workload,
        "seed": seed,
        "mode": "timed",
        "traced": traced,
        "dir": str(directory),
    }
    if template is not None:
        shutil.copytree(template, directory / "cache")
        job["cache"] = str(directory / "cache")
    return job


def check(result: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    problems = []
    if result["digest"] != expected["digest"]:
        problems.append(f"store sha256 {result['digest'][:12]} != {expected['digest'][:12]}")
    for name, value in expected["counts"].items():
        if result["counts"].get(name) != value:
            problems.append(f"{name} {result['counts'].get(name)} != {value}")
    if result["failed"]:
        problems.append(f"{result['failed']} failed cell(s)")
    if "layers" in result and partition_error(result["layers"]) > PARTITION_TOLERANCE_S:
        problems.append("layer self times + unattributed_s != traced wall")
    if "layers" in result and result["layers"]["unattributed_s"] < -PARTITION_TOLERANCE_S:
        problems.append("layer self times exceed the traced wall")
    return problems


def summary_row(name: str, values: List[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return (
        f"{name:<18} {q2:>12.4f} {unit:<6} q1 {q1:.4f}  q3 {q3:.4f}  "
        f"spread {relative_spread(values):.4f}  n={len(values)}"
    )


def bench(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    host = host_info()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    print("host: " + json.dumps(host, sort_keys=True))
    # The reference run and the spool cache fixture are independent
    # set-up; they run side by side, one interpreter each.
    with ThreadPoolExecutor(max_workers=2) as pool:
        expected_job = pool.submit(expected_outputs, args.workload, args.seed, work)
        template_job = pool.submit(prefill, args.workload, args.seed, work)
        expected, template = expected_job.result(), template_job.result()
    setups = [setup_probe() for _ in range(SETUP_PROBES)]

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = {False: 0, True: 0}  # campaigns started, by with_trace
    attempted = failed = 0
    correct = True
    rounds: List[float] = []  # seconds per campaign, spawn to exit
    deadline = time.perf_counter() + args.seconds
    while (
        started[False] < MIN_CAMPAIGNS
        or (args.trace and started[True] < MIN_CAMPAIGNS)
        or time.perf_counter() + median(rounds) / 2 < deadline
    ):
        with_trace = bool(args.trace) and started[True] < started[False]
        started[with_trace] += 1
        index = started[False] + started[True]
        directory = work / f"campaign-{index}"
        round_started = time.perf_counter()
        try:
            result = run_child(
                timed_job(args.workload, args.seed, directory, template, with_trace)
            )
            problems = check(result, expected)
        except ChildFailed as exc:
            result, problems = None, [str(exc)]
        rounds.append(time.perf_counter() - round_started)
        label = "traced" if with_trace else "timed"
        if result is None:
            attempted += expected["cells"]
            failed += expected["cells"]
            correct = False
            print(f"campaign {index} ({label}): FAILED: {'; '.join(problems)}")
            continue
        attempted += result["cells"]
        if problems:
            correct = False
            failed += result["cells"]
        line = (
            f"campaign {index} ({label}): wall {result['wall_s']:.4f} s, "
            f"{result['cells']} cells, setup {result['setup_s']:.4f} s, "
            f"rss {result['rss_mb']:.1f} MB"
        )
        if "join_s" in result:
            line += (
                f", join {result['join_s']:.3f} s, "
                f"unclean worker exits {result['unclean_exits']}"
            )
        line += ", outputs ok" if not problems else f", CHECK FAILED: {'; '.join(problems)}"
        print(line)
        if with_trace:
            spans_file = work / f"spans-{index}.json"
            shutil.move(result["spans_file"], spans_file)
            result["spans_file"] = str(spans_file)
            traced.append(result)
        else:
            untraced.append(result)
            setups.append(result["setup_s"])
        shutil.rmtree(directory, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        raise ChildFailed("no campaign completed")
    series = {
        "campaign_wall_s": [result["wall_s"] for result in untraced],
        "cells_per_s": [result["cells"] / result["wall_s"] for result in untraced],
        "setup_s": setups,
        "peak_rss_mb": [result["rss_mb"] for result in untraced],
    }
    print()
    for name, unit in END_TO_END:
        print(summary_row(name, series[name], unit))
    print(
        f"{'failed_cell_ratio':<18} {failed / attempted:>12.4f} ratio  "
        f"({failed} of {attempted} cells)"
    )
    if args.trace:
        chosen = traced[median_index([result["wall_s"] for result in traced])]
        layers = dict(chosen["layers"])
        layers["trace.overhead_ratio"] = median(
            [result["wall_s"] for result in traced]
        ) / median(series["campaign_wall_s"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        print()
        for name, unit in PER_LAYER:
            print(f"{name:<36} {layers[name]:>14.6f} {unit}")
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        kept = traces / f"{args.workload}-seed{args.seed}.json"
        shutil.copyfile(chosen["spans_file"], kept)
        print(f"spans of the reported traced campaign: {kept.relative_to(ROOT)}")
    else:
        metrics = {
            name: {"value": median(series[name]), "unit": unit} for name, unit in END_TO_END
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "campaigns": untraced + traced,
        "metrics": metrics,
    }
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def pin(workload: str, work: Path) -> None:
    """Rewrite ``pinned.json``'s entry for ``workload`` from seed-0 runs.

    The digest and the seed-dependent counts come from the ``--jobs 1``
    reference; the structural counts from one campaign on the workload's
    own backend, whose store must match the reference.
    """
    reference = reference_outputs(workload, 0, work)
    template = prefill(workload, 0, work)
    timed = run_child(timed_job(workload, 0, work / "timed", template))
    if timed["digest"] != reference["digest"] or timed["failed"]:
        raise ChildFailed(f"{workload}: backend store differs from the --jobs 1 store")
    pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8")) if PINNED_PATH.exists() else {}
    pinned[workload] = {
        "digest": reference["digest"],
        "counts": {
            name: (timed if name in STRUCTURAL_COUNTS else reference)["counts"][name]
            for name in CHECKED_COUNTS[workload]
        },
        "cells": reference["cells"],
    }
    PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {workload}: {json.dumps(pinned[workload], sort_keys=True)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="re-pin the seed-0 digest and counts of --workload instead of measuring",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "experiments" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if args.pin:
            pin(args.workload, work)
            return 0
        result = bench(args, work)
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
