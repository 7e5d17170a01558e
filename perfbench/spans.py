"""Span recorder for the traced benchmark run (standard library only).

Functions are wrapped from outside the program: ``Recorder.patch`` replaces
a function at every module attribute that is bound to it, because
``from .x import y`` copies the binding into the importing module. A span
records its name, start, end, parent span and the operation it belongs to.
Counters are filled by hooks that run after a span closes; each hook runs
inside a ``trace.hook`` span, so its cost is charged to tracing and never to
the caller's self time. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

HOOK_SPAN = "trace.hook"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, op]
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def spanned(self, fn, name: str, hook=None):
        """Wrap ``fn`` in a span; ``hook(counters, result, args, kwargs)``
        runs after it returns. An exception counts as ``<name>.raised.<Class>``."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(HOOK_SPAN)
                try:
                    hook(self.counters, result, args, kwargs)
                finally:
                    self._close(h)
            return result

        return wrapper

    def counted(self, fn, name: str):
        """Wrap ``fn`` to count calls in ``<name>.calls`` without a span."""
        counters = self.counters
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, package: str, wrappers: dict) -> None:
        """Bind ``wrappers[original]`` wherever ``original`` is bound in a
        module of ``package``."""
        by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], Counter, Counter]:
        """Per name: summed self time (span minus its direct children),
        call count, and call count per parent name."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        under: Counter = Counter()
        for i, (name, parent, start, end, _op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent >= 0:
                under[(name, self.spans[parent][0])] += 1
        return dict(self_s), calls, under

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start", "end", "op"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
            )
