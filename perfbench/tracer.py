"""In-memory span tracer that wraps functions at their module attributes.

A span is one call of a wrapped function. Spans nest through a stack: when
a span ends, its duration is charged to its parent as child time, and its
own self time is its duration minus the child time it covered. Spans are
aggregated per name (calls, total, self) as they end, so memory stays flat
however many calls a run makes; names listed in ``keep`` also keep every
call's duration for percentiles.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterable

# Called as hook(counters, args, kwargs, result, duration_ns) after a call
# returns; it counts work at the boundary where the work happens.
Hook = Callable[[Counter, tuple, dict, object, int], None]


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, keep: Iterable[str] = ()):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.durations: dict[str, list[int]] = {name: [] for name in keep}
        self.counters: Counter = Counter()
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        stat = self.stats.setdefault(name, Stat())
        kept = self.durations.get(name)
        stack = self._stack
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[0]
                if kept is not None:
                    kept.append(duration)
            if hook is not None:
                hook(counters, args, kwargs, result, duration)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install_modules(
        self,
        layers: dict[str, ModuleType],
        namespaces: Iterable[ModuleType],
        hooks: dict[str, Hook] | None = None,
    ) -> None:
        """Wrap every public function defined in each layer module.

        The span is named ``<layer>.<function>``. Every module attribute in
        ``namespaces`` that is bound to the original function (``from x
        import f`` copies) is pointed at the same wrapper, so callers that
        imported the name see the span too.
        """
        hooks = hooks or {}
        namespaces = list(namespaces)
        for layer, module in layers.items():
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for other, value in vars(ns).copy().items():
                        if value is fn:
                            self.patch(ns, other, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(s.self_ns for n, s in self.stats.items() if n.startswith(prefix))

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total_ns / 1e9 if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0
