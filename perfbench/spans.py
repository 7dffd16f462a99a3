"""In-memory spans around the public functions a workload calls into.

The benchmark never edits ``src/``: a traced run wraps public functions and
methods from the outside (module attributes, class attributes or instance
attributes), records one span per call, and undoes every wrap when it is
done.  A span is ``(name, start, end, parent)``; the layer is the part of
the name before the first dot (``engine.sample`` belongs to ``engine``).

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Whatever the
root span covers that no layer span does is reported as unattributed.
"""

from __future__ import annotations

import functools
import gzip
import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("games", "core", "engine", "stats", "parallel", "analysis")

_MISSING = object()


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them once at the end."""

    def __init__(self):
        # each span is a list [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapped

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class Patches:
    """Attribute wraps that are undone in reverse order by :meth:`undo`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, *args, **kwargs)`` runs once the span has closed, so
        bookkeeping done there is not charged to the wrapped function.
        """
        original = getattr(owner, attr)
        # an instance attribute shadowing a class attribute must be deleted,
        # not overwritten, to restore the instance
        previous = owner.__dict__.get(attr, _MISSING)
        timed = self.recorder.wrap(name, original)
        if after is None:
            replacement = timed
        else:

            @functools.wraps(original)
            def replacement(*args, **kwargs):
                result = timed(*args, **kwargs)
                after(result, *args, **kwargs)
                return result

        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, previous))

    def undo(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def analyse(spans: list[list], root: int = 0) -> dict:
    """Inclusive time per span name, self time per layer, and coverage.

    Returns ``{"inclusive": {name: s}, "self": {name: s}, "calls":
    {name: n}, "layer_self": {layer: s}, "wall": s, "unattributed": s}``.
    Inclusive time counts only the outermost span of a name, so a function
    that recurses into itself is not counted twice.
    """
    children_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children_time[parent] += end - start
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - children_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_time.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    _, start, end, _ = spans[root]
    return {
        "inclusive": inclusive,
        "self": self_time,
        "calls": calls,
        "layer_self": layer_self,
        "wall": end - start,
        # the root span's own self time: benchmark glue and code no wrap covers
        "unattributed": end - start - children_time[root],
    }
