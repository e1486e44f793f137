"""In-memory span recorder and the wrappers that feed it from outside.

The benchmark traces the package without changing it: every public
function of a layer module is replaced, in every package namespace that
binds it, by a wrapper that records one span per call. A span is
(name, start, end, parent), with the parent being the span that was open
when the call began. Spans live in flat arrays and are written to a
compressed ``.npz`` file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Layers in call-graph order: the package's own modules.
LAYERS = ("em_arrays", "channel_model", "numerics", "strategies", "montecarlo", "cli")


class SpanRecorder:
    """Spans of one process, appended in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        # Per span name, what an observer extracted from each return value.
        self.observations: dict[str, list[Any]] = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Any], Any] | None = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call under ``name``."""
        nid = self.intern(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        seen = self.observations.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()
            if seen is not None:
                seen.append(observe(result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(
    parent: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap because the traced program runs
    on one thread, so their covered time is the sum of their durations.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def install(
    recorder: SpanRecorder,
    package: str,
    observers: dict[str, Callable[[Any], Any]] | None = None,
) -> list[tuple[Any, str, Any]]:
    """Wrap every public function of each layer wherever the package binds it.

    A function counts as public in the module that defines it and whose
    name has no leading underscore; it is traced as ``<layer>.<name>``.
    Returns the replaced bindings for :func:`uninstall`.
    """
    observers = observers or {}
    root = importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    namespaces = [root, *modules.values()]
    replaced: list[tuple[Any, str, Any]] = []
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            name = f"{layer}.{attr}"
            wrapper = recorder.wrap(name, obj, observers.get(name))
            for ns in namespaces:
                if vars(ns).get(attr) is obj:
                    setattr(ns, attr, wrapper)
                    replaced.append((ns, attr, obj))
    return replaced


def uninstall(replaced: list[tuple[Any, str, Any]]) -> None:
    for ns, attr, obj in reversed(replaced):
        setattr(ns, attr, obj)
