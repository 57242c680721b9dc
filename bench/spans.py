"""Span tracing of rispilot from outside the package.

The tracer wraps every public function, every public method and every
class constructor that a rispilot module defines, and installs the
wrapper under each module attribute that refers to the original, so a
caller that did ``from .adaptive import run_adaptive_estimation`` sees
the wrapper too. ``uninstall`` puts every original back, so untraced
operations run the unmodified program.

Per span name the tracer keeps the call count, the total time and the
self time: the span's duration minus the part its child spans cover.
Complete span records (name, start, end, parent) are kept in memory only
while ``recording`` is set and are written out by the caller at the end.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

#: Modules whose public names are wrapped, in rispilot's layer order.
LAYERS = ("model", "estimators", "adaptive", "simulate", "io", "cli")


def _targets(module: ModuleType, layer: str):
    """(span name, owner, attribute) for each public callable ``module`` defines."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for name, member in sorted(vars(obj).items()):
                if not inspect.isfunction(member):
                    continue
                if name == "__init__":
                    yield f"{layer}.{attr}", obj, name
                elif not name.startswith("_"):
                    yield f"{layer}.{attr}.{name}", obj, name


class Tracer:
    """Wraps rispilot's public callables and aggregates their spans."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.targets = [
            target
            for layer, module in self.modules.items()
            for target in _targets(module, layer)
        ]
        self.names = {name for name, _, _ in self.targets}
        #: span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        self.records: list[tuple[str, float, float, int]] = []
        self.recording = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        records = self.records
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            record_id = len(records) if tracer.recording else -1
            if record_id >= 0:
                records.append((name, 0.0, 0.0, parent))
            frame = [0.0, record_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if record_id >= 0:
                    records[record_id] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Replace every target, under every module name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [self.package, *self.modules.values()]
        for name, owner, attr in self.targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            owners = [owner] if inspect.isclass(owner) else [
                namespace
                for namespace in namespaces
                if vars(namespace).get(attr) is original
            ]
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original callable."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()
