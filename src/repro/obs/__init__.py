"""``repro.obs`` — observability substrate for the whole Papyrus stack.

Two process-wide singletons thread through every subsystem:

* :data:`TRACER` — a :class:`~repro.obs.tracer.Tracer` recording hierarchical
  spans and point events on the virtual clock.  Disabled by default; every
  instrumentation site guards with ``if TRACER.enabled:`` so the disabled
  cost is one attribute read.
* :data:`METRICS` — a :class:`~repro.obs.metrics.MetricsRegistry` of named
  counters/gauges/histograms.  Always live: an instrument with a fixed name
  is a module-level handle created at import, so it reads 0 before its
  first update and an update is one float add; snapshot with
  :func:`metrics_snapshot`.

Both singletons are mutated in place (``TRACER.enable()``), never rebound,
so ``from repro.obs import TRACER`` is safe at module level everywhere.

Enable tracing for an installation::

    from repro import Papyrus, obs

    papyrus = Papyrus.standard()
    obs.enable_tracing(papyrus.clock)
    ...
    obs.TRACER.export_jsonl("trace.jsonl")     # or export_chrome(...)
"""

from __future__ import annotations

from repro.clock import VirtualClock
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    WindowedSeries,
)
from repro.obs.tracer import CATEGORIES, Span, Tracer, read_jsonl

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "TRACER",
    "Tracer",
    "WindowedSeries",
    "disable_tracing",
    "enable_tracing",
    "metrics_snapshot",
    "read_jsonl",
]

# repro.obs.analysis (span-tree model, critical path, utilization, diff) and
# repro.obs.slo (the `top` console) are imported lazily by their consumers —
# they depend only on the tracer's event record and the registry, and keeping
# them out of the package root keeps `import repro` lean.

#: The process-wide tracer every subsystem reports to.
TRACER = Tracer()


def enable_tracing(clock: VirtualClock | None = None,
                   observe_clock: bool = False,
                   stream_to: str | None = None) -> Tracer:
    """Turn the global tracer on, timestamped by ``clock``.

    ``observe_clock=True`` additionally emits a ``clock.advance`` event each
    time the clock moves (verbose; off by default).  ``stream_to=PATH``
    appends every event to PATH as it is emitted, so long runs stay complete
    on disk even if the in-memory buffer hits ``capacity``.
    """
    TRACER.enable(clock=clock)
    if observe_clock and clock is not None:
        TRACER.observe_clock(clock)
    if stream_to is not None:
        TRACER.stream_to(stream_to)
    return TRACER


def disable_tracing() -> None:
    TRACER.disable()


def metrics_snapshot() -> dict:
    """Snapshot of the process-wide registry."""
    return METRICS.snapshot()
