"""Tracers: counters, gauges, timers and structured trace events.

Two implementations share one duck-typed surface:

- :class:`Tracer` — the real thing.  Aggregates counters/gauges/timer
  totals in memory, assigns every event a per-run monotonic sequence
  number and wall-clock timestamp, and forwards each event to an
  optional :class:`~repro.obs.sink.TraceSink` (e.g. a JSONL file).
- :class:`NullTracer` — the default.  Every method is a no-op and the
  hot-path methods (``count``/``gauge``/``event``/``timing``/``timer``)
  allocate nothing, so instrumented code can call them unconditionally
  cheaply — though hot loops should still guard with ``if
  tracer.enabled:`` to skip argument construction entirely.

``as_tracer`` is the pass-through resolver used by every ``tracer=``
knob, mirroring ``as_executor``/``as_store``: ``None`` means the shared
no-op singleton, a tracer instance passes through untouched, and a path
becomes a :class:`Tracer` writing JSONL to that file.
"""

from __future__ import annotations

import os
import time
import uuid

from .manifest import RunManifest
from .sink import JsonlTraceSink, TraceSink

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "as_tracer",
]


class _NullTimer:
    """Shared no-op context manager; ``NullTracer.timer`` returns it."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


class NullTracer:
    """Do-nothing tracer; the default for every ``tracer=`` knob.

    ``enabled`` is False so hot paths can skip instrumentation with a
    single attribute check.  All methods are allocation-free no-ops.
    """

    enabled = False
    run_id = "null"

    def count(self, name, value=1):
        pass

    def gauge(self, name, value):
        pass

    def event(self, name, payload=None, **fields):
        pass

    def timing(self, name, seconds, payload=None):
        pass

    def timer(self, name):
        return _NULL_TIMER

    def annotate(self, **fields):
        pass

    def flush(self):
        pass

    def close(self):
        pass


NULL_TRACER = NullTracer()


class _TimerContext:
    """Context manager emitted by ``Tracer.timer``."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer.timing(self._name, time.perf_counter() - self._start)
        return False


class Tracer:
    """Aggregating tracer with an optional durable event stream.

    Counters, gauges and timer totals accumulate in ``self.counters`` /
    ``self.gauges`` / ``self.timers`` for in-process inspection.  Every
    emission also produces a structured event — a dict with the common
    fields ``run`` (run id), ``seq`` (per-run monotonic counter), ``t``
    (wall-clock epoch seconds), ``kind`` and ``name`` — kept in
    ``self.events`` and forwarded to the sink, if any.  The first event
    of every trace is the run manifest.
    """

    enabled = True

    def __init__(self, sink=None, run_id=None, manifest=None, clock=time.time):
        self.sink = sink
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self._clock = clock
        self._seq = 0
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # name -> [call count, total seconds]
        self.timers: dict[str, list] = {}
        self.events: list[dict] = []
        if manifest is None:
            manifest = RunManifest.collect(pid=os.getpid())
        self.manifest = manifest
        self._emit("manifest", "run.manifest", payload=manifest.as_payload())

    def _emit(self, kind, name, **fields):
        event = {
            "run": self.run_id,
            "seq": self._seq,
            "t": self._clock(),
            "kind": kind,
            "name": name,
        }
        event.update(fields)
        self._seq += 1
        self.events.append(event)
        if self.sink is not None:
            self.sink.emit(event)

    def count(self, name, value=1):
        """Increment counter ``name`` by ``value`` and emit a counter event."""
        total = self.counters.get(name, 0) + value
        self.counters[name] = total
        self._emit("counter", name, inc=value, total=total)

    def gauge(self, name, value):
        """Set gauge ``name`` to ``value`` and emit a gauge event."""
        self.gauges[name] = value
        self._emit("gauge", name, value=value)

    def event(self, name, payload=None, **fields):
        """Emit a structured trace event with an arbitrary JSON payload."""
        if payload is None:
            payload = fields
        elif fields:
            payload = {**payload, **fields}
        self._emit("event", name, payload=payload)

    def timing(self, name, seconds, payload=None):
        """Record ``seconds`` against timer ``name`` and emit a timer event."""
        bucket = self.timers.setdefault(name, [0, 0.0])
        bucket[0] += 1
        bucket[1] += seconds
        if payload is None:
            self._emit("timer", name, seconds=seconds)
        else:
            self._emit("timer", name, seconds=seconds, payload=payload)

    def timer(self, name):
        """Context manager timing a block on the monotonic clock."""
        return _TimerContext(self, name)

    def annotate(self, **fields):
        """Attach extra manifest-level provenance (seed, spec digests, ...)."""
        self.manifest.extra.update(fields)
        self._emit("annotate", "run.annotate", payload=dict(fields))

    def flush(self):
        if self.sink is not None:
            self.sink.flush()

    def close(self):
        if self.sink is not None:
            self.sink.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def as_tracer(tracer):
    """Normalise a ``tracer=`` argument, mirroring ``as_executor``/``as_store``.

    - ``None`` -> the shared :data:`NULL_TRACER` no-op singleton
    - a tracer (anything with ``enabled`` + ``count``) -> unchanged
    - a ``str`` / ``os.PathLike`` -> a new :class:`Tracer` appending JSONL
      events to that path

    >>> as_tracer(None) is NULL_TRACER
    True
    >>> t = Tracer()
    >>> as_tracer(t) is t
    True
    """
    if tracer is None:
        return NULL_TRACER
    if hasattr(tracer, "enabled") and hasattr(tracer, "count"):
        return tracer
    if isinstance(tracer, (str, os.PathLike)):
        return Tracer(sink=JsonlTraceSink(tracer))
    raise TypeError(
        "tracer= expects None, a Tracer-like object, or a path for a JSONL "
        f"trace file; got {type(tracer).__name__}"
    )
