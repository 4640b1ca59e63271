"""The three benchmark workloads as campaign plans.

A plan is the list of ``ParallelCampaignRunner.run`` calls one campaign
makes, in order, into one store.  The workload seed offsets every call's
seed list by ``seed * len(seeds)``, so different workload seeds give
disjoint seed windows and the program only ever sees
``(scenario, params, seeds)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Sensor-fault classes the lockstep E2 program covers (RNG-silent ones).
VECTOR_FAULT_CLASSES = ("stuck_at", "permanent_offset", "delay")
ALL_FAULT_CLASSES = VECTOR_FAULT_CLASSES + ("sporadic_offset", "stochastic_offset")


@dataclass(frozen=True)
class Call:
    """One ``runner.run(scenario, params=..., sweep=..., seeds=...)``."""

    scenario: str
    seeds: Tuple[int, ...]
    params: Tuple[Tuple[str, Any], ...] = ()
    sweep: Optional[Tuple[Tuple[Tuple[str, Any], ...], ...]] = None

    def kwargs(self) -> Dict[str, Any]:
        sweep = None if self.sweep is None else [dict(point) for point in self.sweep]
        return {"params": dict(self.params), "sweep": sweep, "seeds": list(self.seeds)}

    def points(self) -> List[Dict[str, Any]]:
        """The parameter points, outer loop of the run list."""
        if self.sweep is None:
            return [dict(self.params)]
        return [{**dict(self.params), **dict(point)} for point in self.sweep]


def _call(scenario: str, seeds: Sequence[int], sweep: Any = None, **params: Any) -> Call:
    frozen_sweep = None
    if sweep is not None:
        frozen_sweep = tuple(tuple(sorted(point.items())) for point in sweep)
    return Call(scenario, tuple(seeds), tuple(sorted(params.items())), frozen_sweep)


#: Base plans (workload seed 0).  Sizes are chosen so that one campaign takes
#: a few seconds and a run fits several of them, and so that the ``--jobs 1``
#: reference run for a new seed stays affordable during set-up.
BASE_PLANS: Dict[str, List[Call]] = {
    # The composed use cases plus E1/E3/E5 at their default seeds; the three
    # longest use cases run shorter (urban_grid's last brake starts at 27 s),
    # so one campaign is ~0.85M simulator events, radio-heavy.
    "physics_inline": [
        _call("corridor", [9], duration=75.0),
        _call("urban_grid", [1], duration=30.0),
        _call("mixed_airspace", [3], duration=200.0),
        _call("platoon", [1]),
        _call("intersection/vtl_fallback", [7]),
        _call("lane_change", [11]),
        _call("r2t_mac", [0]),
        _call("event_channels", [0]),
    ],
    # 160 cheap E2 cells (~25 ms each) over every fault class; set-up
    # caches every other cell, so half are hits and half run on workers.
    "spool_cached": [
        _call(
            "sensor_validity",
            range(32),
            sweep=[{"fault_class": name} for name in ALL_FAULT_CLASSES],
        ),
    ],
    # Over a thousand seeds for the three vector programs, plus a small
    # ineligible group that falls back to the scalar path.  E2 is the
    # costliest cell in the scalar reference, so it gets the fewest seeds.
    "vector_batch": [
        _call(
            "sensor_validity",
            range(64),
            sweep=[{"fault_class": name} for name in VECTOR_FAULT_CLASSES],
        ),
        _call("tdma_convergence", range(1, 513), rows=12, cols=12, slots=60),
        _call("demo/random_walk", range(1, 513)),
        _call("sensor_validity", range(8), fault_class="stochastic_offset"),
    ],
}

WORKLOADS = tuple(BASE_PLANS)

#: Exact counts each workload's output check compares.  The structural ones
#: depend on the plan's shape, not on the seed, and are always the pinned
#: seed-0 values; the others come from the ``--jobs 1`` reference run.
CHECKED_COUNTS: Dict[str, Tuple[str, ...]] = {
    "physics_inline": ("sim.events", "network.frames_sent", "network.deliveries"),
    "spool_cached": ("distributed.cache.hits",),
    "vector_batch": ("vectorized.fast_cells",),
}
STRUCTURAL_COUNTS = frozenset({"distributed.cache.hits", "vectorized.fast_cells"})


def plan(workload: str, seed: int) -> List[Call]:
    """The campaign for ``workload`` at workload seed ``seed``."""
    calls = []
    for call in BASE_PLANS[workload]:
        shift = seed * len(call.seeds)
        calls.append(
            Call(call.scenario, tuple(s + shift for s in call.seeds), call.params, call.sweep)
        )
    return calls


def prefill_calls(calls: Sequence[Call]) -> List[Call]:
    """Every other cell of each call's run list, as runnable calls.

    The run list is sweep points (outer) by seeds (inner); with an even
    seed count, the even-indexed cells are the even-positioned seeds of
    every point.
    """
    out = []
    for call in calls:
        if len(call.seeds) % 2:
            raise ValueError(f"{call.scenario}: prefill needs an even seed count")
        for point in call.points():
            out.append(
                Call(call.scenario, call.seeds[::2], tuple(sorted(point.items())))
            )
    return out
