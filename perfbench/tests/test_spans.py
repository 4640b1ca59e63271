"""Self-time arithmetic and layer attribution of the traced run."""

import functools
import random

import pytest

from perfbench.layers import OTHER, PARTITION, layer_metrics, partition_error
from perfbench.spans import Recorder, layer_of, module_layer, self_time, union_length


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0), (1.5, 3.0)]) == pytest.approx(4.0)
    assert union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 5.5)]) == pytest.approx(6.0)


def test_self_time_with_nested_children():
    # A grandchild inside a child covers nothing the child does not.
    children = [(1.0, 4.0), (2.0, 3.0), (6.0, 7.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(6.0)


def test_self_time_with_overlapping_children():
    # Two workers' spans overlap: the parent is covered 1..5 once, not 6 s.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_recorder_self_times_partition_the_root():
    clock = FakeClock()
    recorder = Recorder(clock=clock, keep=("root",))
    recorder.enter("root")
    clock.now = 1.0
    recorder.enter("a")
    clock.now = 2.0
    recorder.enter("b")
    clock.now = 4.0
    recorder.exit()  # b: 2..4
    clock.now = 5.0
    recorder.exit()  # a: 1..5, self 2
    clock.now = 6.0
    recorder.enter("b")
    clock.now = 7.0
    recorder.exit()  # b: 6..7
    clock.now = 10.0
    recorder.exit()  # root: 0..10, self 10 - 4 - 1
    assert recorder.self_s == pytest.approx({"root": 5.0, "a": 2.0, "b": 3.0})
    assert sum(recorder.self_s.values()) == pytest.approx(10.0)
    assert recorder.kept == [("root", 0.0, 10.0, 0)]


def test_recorder_matches_offline_self_time_on_random_nesting():
    rng = random.Random(7)
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    spans = []  # (name, start, end, parent index)
    open_stack = []

    def tick():
        clock.now += rng.random()

    recorder.enter("root")
    open_stack.append(0)
    spans.append(["root", 0.0, None, None])
    for _ in range(200):
        tick()
        if open_stack and len(open_stack) > 1 and rng.random() < 0.5:
            recorder.exit()
            spans[open_stack.pop()][2] = clock.now
        else:
            name = rng.choice("xyz")
            recorder.enter(name)
            spans.append([name, clock.now, None, open_stack[-1]])
            open_stack.append(len(spans) - 1)
    while open_stack:
        tick()
        recorder.exit()
        spans[open_stack.pop()][2] = clock.now

    expected = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        children = [(s, e) for _n, s, e, p in spans if p == index]
        expected[name] = expected.get(name, 0.0) + self_time(start, end, children)
    assert recorder.self_s == pytest.approx(expected)
    assert sum(recorder.self_s.values()) == pytest.approx(spans[0][2] - spans[0][1])


def _function_in(module, source="lambda: None"):
    return eval(source, {"__name__": module})


def test_module_layer():
    assert module_layer("repro.network.medium") == "network"
    assert module_layer("repro.sim") == "sim"
    assert module_layer("repro.experiments.scenarios") == "experiments.scenarios"
    assert module_layer("numpy.random") == "other"
    assert module_layer(None) == "other"


def test_layer_of_lambdas_and_functions():
    assert layer_of(_function_in("repro.usecases.corridor")) == "usecases"
    assert layer_of(lambda: None) == "other"
    assert layer_of(print) == "other"


def test_layer_of_bound_methods():
    from repro.network.medium import WirelessMedium
    from repro.sim.kernel import Simulator

    simulator = Simulator()
    medium = WirelessMedium(simulator)
    assert layer_of(simulator.stop) == "sim"
    assert layer_of(medium.transmit) == "network"
    assert layer_of([].append) == "other"


def test_layer_of_partials_unwraps_every_level():
    from repro.core.safety_manager import SafetyManager

    inner = functools.partial(_function_in("repro.sensors.fusion", "lambda a, b: a"), 1)
    assert layer_of(functools.partial(inner, 2)) == "sensors"
    assert layer_of(functools.partial(SafetyManager.run_cycle, None)) == "core"


def test_layer_of_callable_instances():
    namespace = {"__call__": lambda self: None, "__module__": "repro.cooperation.x"}
    Callable = type("Callable", (), namespace)
    assert layer_of(Callable()) == "cooperation"


def test_layer_metrics_partition_adds_up_to_the_wall():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    recorder.enter("experiments.runner")
    clock.now = 1.0
    recorder.enter("sim")
    clock.now = 2.5
    recorder.enter("a-name-no-layer-claims")
    clock.now = 3.0
    recorder.exit()
    recorder.exit()
    clock.now = 3.25
    recorder.exit()
    totals = {
        "sim.events": 10,
        "network.frames_sent": 4,
        "network.deliveries": 3,
        "network.attempts": 4,
        "core.cycles": 0,
        "core.los_switches": 0,
        "sensors.reads": 0,
        "middleware.publishes": 0,
    }
    metrics = layer_metrics(recorder, totals, wall_s=3.5)
    assert metrics[OTHER] == pytest.approx(0.5)
    assert metrics["sim.self_s"] == pytest.approx(1.5)
    assert metrics["experiments.runner.self_s"] == pytest.approx(1.25)
    assert metrics["unattributed_s"] == pytest.approx(0.25)
    assert metrics["sim.us_per_event"] == pytest.approx(1.5e5)
    assert metrics["network.delivery_ratio"] == pytest.approx(0.75)
    assert metrics["network.us_per_frame"] == 0.0
    assert partition_error(metrics) < 1e-12
    assert set(PARTITION) <= set(metrics)
