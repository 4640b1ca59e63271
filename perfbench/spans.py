"""Span bookkeeping for the traced run: self time and layer attribution.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (the union of the children, so overlapping
children are not counted twice).  :func:`self_time` computes it for a span
whose children are known up front; :class:`Recorder` computes the same
quantity online for spans that open and close on one thread, without
keeping the millions of per-event spans of a physics campaign in memory.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(start: float, end: float, children: Iterable[Interval]) -> float:
    """``end - start`` minus the union of ``children`` clipped to the span."""
    clipped = [
        (max(lo, start), min(hi, end)) for lo, hi in children if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)


def module_layer(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to.

    ``repro.<package>.*`` maps to ``<package>``; the ``experiments``
    package is split by module (``experiments.scenarios`` holds the
    scenario factories, ``experiments.runner`` the campaign engine).
    Anything outside ``repro`` is ``other``.
    """
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if parts[1] == "experiments" and len(parts) > 2:
        return f"experiments.{parts[2]}"
    return parts[1]


def layer_of(callback: Any) -> str:
    """The layer that defines ``callback``.

    Unwraps ``functools.partial`` and bound methods; lambdas and nested
    functions carry the module they were written in; a callable instance
    is attributed to its class's module.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    target = getattr(callback, "__func__", callback)
    module = getattr(target, "__module__", None)
    if module is None or not isinstance(module, str):
        module = getattr(type(callback), "__module__", None)
    return module_layer(module)


class Recorder:
    """Per-name self time of nested spans on one thread.

    Each open span is a frame ``[name, start, covered, last_end]``:
    ``covered`` is the union of the child spans closed so far, merged
    incrementally because children on one thread close in start order.
    Only spans whose name is in ``keep`` are retained as records (for
    writing out at the end); everything else is folded into the totals.
    """

    def __init__(
        self, clock: Callable[[], float] = perf_counter, keep: Sequence[str] = ()
    ):
        self.clock = clock
        self.stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = {}
        self.keep = frozenset(keep)
        self.kept: List[Tuple[str, float, float, int]] = []

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, float("-inf")])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered, _ = self.stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - covered)
        if name in self.keep:
            self.kept.append((name, start, end, len(self.stack)))
        if self.stack:
            parent = self.stack[-1]
            lo = start if start > parent[3] else parent[3]
            if end > lo:
                parent[2] += end - lo
            if end > parent[3]:
                parent[3] = end
