"""In-memory span recorder that wraps devolve's public functions from outside.

A span is (id, name, start, end, parent). Wrappers are installed on module
attributes and class attributes, so calls the program makes through those
names are recorded too. Spans stay in memory until `dump` writes them at the
end of a run.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; a worker thread's outermost span takes the main
        thread's innermost open span as its parent (the pool's caller)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, owner, attr: str, name):
        """Replace owner.attr by a recording wrapper with the same call
        signature (plain functions, methods and classmethods). `name` is the
        span name, or a function of the call's arguments that returns it."""
        static = inspect.getattr_static(owner, attr)
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return orig(*args, **kwargs)

        setattr(owner, attr, staticmethod(wrapper) if isinstance(static, classmethod)
                else wrapper)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(sid, [])):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[sid] = (end - start) - covered
        return out

    def dump(self, path: str):
        selfs = self.self_times()
        with open(path, "w") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "self"],
                       "spans": [[sid, name, start, end, parent, selfs[sid]]
                                 for sid, name, start, end, parent in self.spans]},
                      f)
