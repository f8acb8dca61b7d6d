"""In-memory span tracer for the benchmark's traced run.

The traced run wraps public callables of the program's layers from the
outside — every module binding of a function and every class that
defines a method — records one span per call (name, start, end, parent)
and folds the spans into per-layer totals after the pass.  The program
never imports this module, and untraced passes never install it, so
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

#: ``tally(args, kwargs, result) -> {counter: increment}``, run after the
#: span closes so its cost stays out of the span.
Tally = Callable[[tuple, dict, Any], "dict[str, float]"]


@dataclass
class LayerTotals:
    """Spans of one name, folded.

    ``inclusive_s`` sums only the outermost span of each same-name
    nesting, so a recursive call is not counted twice; ``self_s`` sums
    every span's duration minus the part of it its children cover.
    """

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def fold(
    names: list[str],
    starts: list[float],
    ends: list[float],
    parents: list[int],
) -> dict[str, LayerTotals]:
    """Fold spans into per-name totals.

    Span ``i`` is ``(names[i], starts[i], ends[i])`` with parent index
    ``parents[i]`` (``-1`` for a root).  Self time is the span's duration
    minus the union of its children's intervals within it, so children
    that overlap each other, or spill past their parent, are not
    subtracted twice or beyond the parent.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    totals: dict[str, LayerTotals] = {}
    for index, name in enumerate(names):
        start, end = starts[index], ends[index]
        kids = children.get(index, ())
        covered = covered_length(
            ((starts[k], ends[k]) for k in kids), start, end
        )
        entry = totals.setdefault(name, LayerTotals())
        entry.calls += 1
        entry.self_s += (end - start) - covered
        ancestor = parents[index]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            entry.inclusive_s += end - start
    return totals


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Records spans and counters for one traced pass.

    Spans are four parallel lists indexed by span id; a span's slot is
    taken when it starts, so a parent's id is always below its
    children's.  ``install`` patches the program in place and
    ``uninstall`` restores every patched attribute.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        #: One list of pull stamps per ``timed_pulls`` call.
        self.pull_times: list[list[float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, fn: Callable, tally: Tally | None = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock, counts = self._stack, self.clock, self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                for counter, value in tally(args, kwargs, result).items():
                    counts[counter] = counts.get(counter, 0) + value
            return result

        return functools.update_wrapper(traced, fn)

    def count(self, name: str, fn: Callable, failed: Callable[[Any], bool] | None = None) -> Callable:
        """``fn`` counting calls as ``name`` (and, given ``failed``,
        results it flags as ``name.failed``) without recording spans —
        for callables too cheap and frequent for a span."""
        counts = self.counts
        failed_name = f"{name}.failed"

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if failed is not None and failed(result):
                counts[failed_name] = counts.get(failed_name, 0) + 1
            return result

        return functools.update_wrapper(counted, fn)

    def timed_pulls(self, items: Iterable[Any]) -> Iterator[Any]:
        """Yield ``items``, stamping the host clock at each pull."""
        stamps, clock = [], self.clock
        self.pull_times.append(stamps)
        for item in items:
            stamps.append(clock())
            yield item

    # -- patching -------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace every ``repro`` module binding of the function named by
        ``target`` (``"module:function"``), under any alias."""
        module_name, attr = target.split(":")
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch_method(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap the method named by ``target`` (``"module:Class.method"``)
        on that class and on every subclass that overrides it."""
        module_name, path = target.split(":")
        class_name, attr = path.split(".")
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def fold(self) -> dict[str, LayerTotals]:
        return fold(self.names, self.starts, self.ends, self.parents)

    def ingest_gaps_us(self) -> list[float]:
        """Host gaps between consecutive pulls of one stream, in us."""
        return [
            (b - a) * 1e6 for stamps in self.pull_times for a, b in zip(stamps, stamps[1:])
        ]

    def dump(self, path: Path) -> None:
        """Write the spans as arrays (``.npz``) plus the name table."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
                start=np.array(self.starts, dtype=np.float64),
                end=np.array(self.ends, dtype=np.float64),
                parent=np.array(self.parents, dtype=np.int64),
                names=np.array(json.dumps(table)),
            )
