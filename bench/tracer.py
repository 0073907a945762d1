"""Span tracer that wraps dxml's public functions from outside the package.

``install`` replaces every module-level binding of each public function of
the traced modules with a wrapper that records a span (name, start, end,
parent, run id).  Copies made by ``from x import f`` (``cli.kmeans``,
``predictor.forward``, the re-exports in ``dxml/__init__``) are separate
bindings and get the same wrapper.  Counters are read from arguments and
results at the same boundary.  Spans stay in memory until ``dump``.

Spans are recorded for the calling thread only, in call order; the
benchmark runs single-threaded (``predict --threads 1``), so a span's
children never overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["LAYERS", "CLI_COMMANDS", "Tracer", "aggregate"]

LAYERS = (
    "data_io", "label_graph", "graph_embed", "label_projection", "net",
    "cluster", "model_io", "predictor", "metrics", "cli",
)
# cli.cmd_sweep_k is reported under its subcommand name, cli.sweep-k.
CLI_COMMANDS = {"cmd_train": "train", "cmd_predict": "predict", "cmd_evaluate": "evaluate",
                "cmd_sweep_k": "sweep-k", "cmd_embed_labels": "embed-labels"}


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func in CLI_COMMANDS:
        return f"cli.{CLI_COMMANDS[func]}"
    return f"{module}.{func}"


# Counters: span name -> function(bound arguments, result, counts).
def _count_knn(args, result, counts):
    k = args["k"]
    returned = int(result[0].size)
    counts["predictor.rows_scanned"] += int(args["vectors"].shape[0])
    counts["predictor.neighbors_returned"] += returned
    counts["predictor.knn_shortfall"] += int(returned < k)


def _count_kmeans(args, result, counts):
    counts["cluster.kmeans.iters"] += len(result.wcss_history) - 1


def _count_skipgram(args, result, counts):
    counts["graph_embed.skipgram_tokens"] += args["corpus"].total_tokens * args["config"].epochs


def _count_model_bytes(args, result, counts):
    counts["model_io.model_bytes"] = os.path.getsize(args["path"])


COUNTERS: dict[str, Callable[[dict, Any, dict], None]] = {
    "predictor.knn_search": _count_knn,
    "cluster.kmeans": _count_kmeans,
    "graph_embed.fit_skipgram": _count_skipgram,
    "model_io.save_model": _count_model_bytes,
}


class Tracer:
    """Collects spans and counters for one process; ``run_id`` tags its spans."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        # Parallel lists of plain numbers keep the cyclic GC from rescanning
        # every span record while the traced program allocates.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent index or -1) per span, in call order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(bound.arguments, result, self.counts)
                except (KeyError, AttributeError, TypeError, IndexError):
                    # A later signature the counter does not know: keep running.
                    self.counts["tracer.counter_errors"] += 1
            return result

        return traced

    def install(self, package: str = "dxml", layers=LAYERS) -> list[str]:
        """Wrap the public functions of ``layers``; return the span names wrapped.

        A layer that cannot be imported, or a function a later version
        removed, is simply not in the returned list.
        """
        wrappers: dict[int, Callable] = {}
        names = []
        for layer in layers:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = _span_name(layer, attr)
                    wrappers[id(fn)] = self.wrap(name, fn)
                    names.append(name)
        # Rebind every module-level copy of a wrapped function in the package.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        return sorted(names)

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), **(extra or {})}, fh)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds ``s`` and self seconds ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children.  Nested calls of the same name add their inclusive time twice;
    none of the traced functions recurse.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return dict(out)
