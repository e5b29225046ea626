"""In-memory spans around the calls between the package's modules.

Each module of the package binds the functions it uses from other modules
at import time (`from .canon import canonical_key`).  `Tracer.instrument`
replaces those bindings, where the consuming module holds them, with a
wrapper that records a span: name (defining module and function), site
(the consuming module), parent span, start and end.  `embedded_map` also
calls its own `validate` and `facial_walks` (through `_checked` and
`euler_characteristic`); those two are wrapped in their own module too,
so a candidate's repeated validation shows as calls.

Spans stay in memory; `Tracer.take` hands them over and clears the list.
Forked worker processes inherit the wrappers, but record nothing: only
spans of the process that created the tracer are kept.
"""

from __future__ import annotations

import os
import types
from dataclasses import dataclass
from time import perf_counter

# functions a module calls on itself that count as a layer boundary
SELF_CALLS = {"embedded_map": ("validate", "facial_walks")}


@dataclass(slots=True)
class Span:
    name: str
    site: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations.

    The tracer's spans come from one stack, so children nest strictly inside
    their parent and one after another.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._observers: dict = {}
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self.active = False

    def observe(self, name: str, callback) -> None:
        """Call callback(site, args, result) after every `name` span ends."""
        self._observers[name] = callback

    def open(self, name: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, site, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, site: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            watcher = tracer._observers.get(name)
            if watcher is not None:
                watcher(site, args, result)
            return result

        return traced

    def instrument(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every cross-module function binding among `modules`.

        modules maps a layer name ("canon") to its module object.
        """
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                home = layer_of.get(obj.__module__)
                if home is None:
                    continue
                if home == site and attr not in SELF_CALLS.get(site, ()):
                    continue
                setattr(mod, attr, self.wrap(f"{home}.{attr}", site, obj))
                self._patches.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans
