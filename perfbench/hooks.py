"""Wrappers the benchmark installs around the program's public calls.

The program is never edited: these functions replace methods on the
program's classes (and functions in its modules) from the outside, in the
benchmark's own campaign process only.  Two levels:

* :func:`install_counting` — used by every run, timed or traced.  It adds
  a few calls per *cell* (constructor registration of simulators and radio
  media, a wrapper around ``ScenarioSpec.build`` that harvests their
  counters, a timer around the spool join), never per simulator event.
* :func:`install_tracing` — the traced run only.  Every simulator event
  callback runs inside a span named for the ``repro`` package that
  defines it, and each layer's public entry points get spans of their
  own; :class:`~perfbench.spans.Recorder` folds them into self times.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional

from perfbench.spans import Recorder, layer_of


class Counts:
    """Deterministic per-campaign counts gathered in the campaign process."""

    def __init__(self) -> None:
        self.simulators: List[Any] = []
        self.media: List[Any] = []
        self.totals: Dict[str, float] = {
            "sim.events": 0,
            "network.frames_sent": 0,
            "network.deliveries": 0,
            "network.attempts": 0,
            "core.cycles": 0,
            "core.los_switches": 0,
            "sensors.reads": 0,
            "middleware.publishes": 0,
        }
        #: Wall seconds the coordinator spent joining its spawned workers.
        self.join_s = 0.0
        #: Traced run: ``time.time()`` of each task publish, and of each
        #: worker spawn by pid.
        self.published: Dict[str, float] = {}
        self.spawned: Dict[int, float] = {}

    def harvest(self) -> None:
        """Fold the finished cell's simulators and media into the totals."""
        totals = self.totals
        for simulator in self.simulators:
            totals["sim.events"] += simulator.events_processed
        for medium in self.media:
            stats = medium.stats
            totals["network.frames_sent"] += stats.frames_sent
            totals["network.deliveries"] += stats.deliveries
            totals["network.attempts"] += (
                stats.deliveries
                + stats.lost_random
                + stats.lost_collision
                + stats.lost_interference
            )
        self.simulators.clear()
        self.media.clear()


def _replace(cls: type, attr: str, make: Callable[[Any], Any]) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        function = original.__func__
        setattr(cls, attr, classmethod(functools.wraps(function)(make(function))))
    else:
        setattr(cls, attr, functools.wraps(original)(make(original)))


def _register_instances(cls: type, sink: List[Any]) -> None:
    def make(original: Callable[..., None]) -> Callable[..., None]:
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            sink.append(self)

        return __init__

    _replace(cls, "__init__", make)


def install_counting(counts: Counts) -> None:
    from repro.distributed.coordinator import SpoolBackend
    from repro.experiments.spec import ScenarioSpec
    from repro.network.medium import WirelessMedium
    from repro.sim.kernel import Simulator

    _register_instances(Simulator, counts.simulators)
    _register_instances(WirelessMedium, counts.media)

    def make_build(original: Callable[..., Any]) -> Callable[..., Any]:
        def build(self: Any, seed: int, params: Any) -> Any:
            try:
                return original(self, seed, params)
            finally:
                counts.harvest()

        return build

    _replace(ScenarioSpec, "build", make_build)

    def make_join(original: Callable[..., None]) -> Callable[..., None]:
        def _join_workers(self: Any, processes: Any) -> None:
            started = time.perf_counter()
            try:
                original(self, processes)
            finally:
                counts.join_s += time.perf_counter() - started

        return _join_workers

    _replace(SpoolBackend, "_join_workers", make_join)


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------


def _span_method(
    cls: type,
    attr: str,
    name: str,
    recorder: Recorder,
    after: Optional[Callable[[tuple, Any], None]] = None,
) -> None:
    enter, leave = recorder.enter, recorder.exit

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    _replace(cls, attr, make)


def _span_public_methods(cls: type, name: str, recorder: Recorder) -> None:
    for attr, value in list(vars(cls).items()):
        if not attr.startswith("_") and isinstance(value, types.FunctionType):
            _span_method(cls, attr, name, recorder)


def _span_function(module_name: str, attr: str, name: str, recorder: Recorder) -> None:
    """Wrap a module function everywhere ``repro`` imported it by name."""
    original = getattr(sys.modules[module_name], attr)
    enter, leave = recorder.enter, recorder.exit

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(name)
        try:
            return original(*args, **kwargs)
        finally:
            leave()

    for module in list(sys.modules.values()):
        module_name_ = getattr(module, "__name__", "") or ""
        if module_name_.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _traced_callbacks(recorder: Recorder) -> Callable[[Callable[[], Any]], Callable[[], Any]]:
    enter, leave = recorder.enter, recorder.exit

    def traced(callback: Callable[[], Any]) -> Callable[[], Any]:
        layer = layer_of(callback)

        def run() -> Any:
            enter(layer)
            try:
                return callback()
            finally:
                leave()

        return run

    return traced


def install_tracing(counts: Counts, recorder: Recorder) -> None:
    """Attribute the campaign process's time to layers (see module docstring).

    Call after :func:`install_counting`, once every ``repro`` module the
    campaign uses has been imported.
    """
    from repro.core.safety_manager import SafetyManager
    from repro.distributed.cache import CacheIndex
    from repro.distributed.coordinator import SpoolBackend
    from repro.distributed.spool import Spool
    from repro.experiments.runner import ParallelCampaignRunner, RunRecord
    from repro.experiments.spec import ScenarioSpec
    from repro.experiments.store import ResultStore
    from repro.middleware.broker import EventBroker
    from repro.network.mac_csma import CsmaMacNode
    from repro.network.medium import WirelessMedium
    from repro.network.r2t_mac import R2TMacNode
    from repro.observability.events import EventLog
    from repro.observability.ledger import RunLedger
    from repro.observability.progress import ProgressTracker
    from repro.observability.telemetry import TelemetryRegistry
    from repro.observability.trace import Tracer
    from repro.resilience.retry import CircuitBreaker, RetryPolicy
    from repro.sensors.abstract_sensor import AbstractReliableSensor, AbstractSensor
    from repro.sim.kernel import PeriodicTask, Simulator
    from repro.vectorized import programs
    from repro.vectorized.backend import VectorBatchBackend

    traced = _traced_callbacks(recorder)
    totals = counts.totals

    # Simulator: the event loop is `sim`; each callback runs in its layer.
    _span_method(Simulator, "run_until", "sim", recorder)
    for attr in ("schedule", "schedule_fast", "schedule_at", "schedule_at_fast"):

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def schedule(self: Any, when: float, callback: Any, priority: int = 0) -> Any:
                return original(self, when, traced(callback), priority)

            return schedule

        _replace(Simulator, attr, make)

    def make_periodic(original: Callable[..., None]) -> Callable[..., None]:
        def __init__(
            self: Any, simulator: Any, period: float, callback: Any, *args: Any, **kwargs: Any
        ) -> None:
            original(self, simulator, period, traced(callback), *args, **kwargs)

        return __init__

    _replace(PeriodicTask, "__init__", make_periodic)

    # Physics entry points, nested inside the callback spans.
    def bump(key: str) -> Callable[[tuple, Any], None]:
        def after(_args: tuple, _result: Any) -> None:
            totals[key] += 1

        return after

    def cycle_done(_args: tuple, decisions: Any) -> None:
        totals["core.cycles"] += 1
        totals["core.los_switches"] += sum(1 for decision in decisions if decision.changed)

    _span_method(WirelessMedium, "transmit", "network", recorder)
    _span_method(CsmaMacNode, "send", "network", recorder)
    _span_method(R2TMacNode, "send", "network", recorder)
    _span_method(SafetyManager, "run_cycle", "core", recorder, after=cycle_done)
    _span_method(AbstractSensor, "read", "sensors", recorder, after=bump("sensors.reads"))
    _span_method(
        AbstractReliableSensor, "read", "sensors", recorder, after=bump("sensors.reads")
    )
    _span_method(
        EventBroker, "publish", "middleware", recorder, after=bump("middleware.publishes")
    )

    # Campaign plumbing.
    _span_method(ParallelCampaignRunner, "run", "experiments.runner", recorder)
    _span_method(ScenarioSpec, "build", "scenario.build", recorder)
    for attr in ("runs", "coerce_params", "source_fingerprint"):
        _span_method(ScenarioSpec, attr, "experiments.spec", recorder)
    for attr in ("canonical_key", "content_cache_key", "jsonable"):
        _span_function("repro.experiments.spec", attr, "experiments.spec", recorder)
    _span_method(RunRecord, "to_json_dict", "experiments.serialize", recorder)
    _span_method(RunRecord, "from_json_dict", "experiments.serialize", recorder)
    for attr in ("add_many", "merge", "load"):
        _span_method(ResultStore, attr, "experiments.store", recorder)

    _span_method(VectorBatchBackend, "execute", "vectorized", recorder)
    for value in vars(programs).values():
        if isinstance(value, type) and "run" in vars(value):
            _span_method(value, "run", "vectorized", recorder)

    def published(args: tuple, _result: Any) -> None:
        counts.published[args[1].task_id] = time.time()

    def make_spawn(original: Callable[..., Any]) -> Callable[..., Any]:
        def _spawn_worker(self: Any, *args: Any, **kwargs: Any) -> Any:
            spawned_at = time.time()
            process = original(self, *args, **kwargs)
            counts.spawned[process.pid] = spawned_at
            return process

        return _spawn_worker

    _replace(SpoolBackend, "_spawn_worker", make_spawn)

    _span_method(SpoolBackend, "execute", "distributed.coordinator.collect", recorder)
    _span_method(SpoolBackend, "_join_workers", "distributed.coordinator.join", recorder)
    _span_method(
        Spool, "publish_task", "distributed.coordinator.publish", recorder, after=published
    )
    _span_method(Spool, "read_result_shard", "distributed.spool.shard_read", recorder)
    _span_method(CacheIndex, "get", "distributed.cache.get", recorder)
    _span_method(CacheIndex, "put", "distributed.cache.put", recorder)

    # The "free when off" guards: these layers should cost ~nothing.
    for cls in (EventLog, ProgressTracker, RunLedger, TelemetryRegistry, Tracer):
        _span_public_methods(cls, "observability", recorder)
    for cls in (RetryPolicy, CircuitBreaker):
        _span_public_methods(cls, "resilience", recorder)
    _span_function("repro.resilience.faults", "inject", "resilience", recorder)
