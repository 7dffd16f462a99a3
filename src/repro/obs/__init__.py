"""Structured run telemetry: counters, timers, trace events, JSONL sinks.

``repro.obs`` is the observability layer threaded through the engine,
the sample driver, the sharded executor, the experiment store and the
sweeps via the ``tracer=`` knob (the same pass-through discipline as
``executor=`` / ``store=``).  It deliberately imports nothing from the
rest of ``repro`` at module scope, so even the lowest layer (the engine)
can emit events through it.

Quickstart::

    from repro.obs import JsonlTraceSink, Tracer

    tracer = Tracer(sink=JsonlTraceSink("TRACE_sweep.jsonl"))
    result = dynamics_family_sweep(game, families, seed=7, store=store,
                                   executor=executor, tracer=tracer)
    tracer.close()
    # then: PYTHONPATH=src python tools/trace_summary.py TRACE_sweep.jsonl
"""

from .manifest import RunManifest, git_revision
from .sink import JsonlTraceSink, MemorySink, TraceSink, read_trace
from .summary import (
    RunSummary,
    load_trace_files,
    render_run_summary,
    summarize_runs,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    as_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "JsonlTraceSink",
    "MemorySink",
    "RunManifest",
    "RunSummary",
    "TraceSink",
    "Tracer",
    "as_tracer",
    "git_revision",
    "load_trace_files",
    "read_trace",
    "render_run_summary",
    "summarize_runs",
]
