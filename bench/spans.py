"""In-memory spans recorded around calls into the package's public functions.

A span records its name, start, end (``time.perf_counter`` seconds), the
index of the span that was open when it started (``-1`` for a root) and the
index of its root span, so every span of one query shares that query's root.
Optional counts are taken from the call's result at the same boundary, and
a call that raises records the exception's class name.

Spans are recorded from the benchmark's files only: :meth:`Tracer.instrument`
swaps module attributes for timing wrappers and puts the originals back on
exit. Nothing is written until :meth:`Tracer.write` is called at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable


class Tracer:
    """Spans of the calls made through ``targets``: ``(module, attr,
    observe)`` triples, where ``observe`` maps a result to counts or is None."""

    def __init__(self, targets) -> None:
        self.targets = targets
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "root": self.spans[parent]["root"] if parent >= 0 else index,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn: Callable, name: str, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record["counts"] = observe(result)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Trace calls made through each target's ``module.attr``. The span
        is named ``<layer>.<function>`` after the function's defining module,
        so a name imported into another module keeps its own layer."""
        saved = []
        try:
            for module, attr, observe in self.targets:
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}", observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self, root_name: str) -> dict[str, float]:
        """Self time per layer over the spans under roots called
        ``root_name``: each span's duration less the part its children cover.
        Root spans themselves count as the benchmark's own layer ``bench``."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if self.spans[s["root"]]["name"] != root_name:
                continue
            layer = "bench" if s["parent"] < 0 else s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[i]
        return totals

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)
