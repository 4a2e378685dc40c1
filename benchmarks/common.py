"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the thesis's tables/figures (or a
quantitative experiment for a mechanism the thesis claims qualitatively) and
prints the rows it reproduces; pytest-benchmark additionally times the core
operation.  Simulated quantities (makespans, compute seconds) come from the
virtual clock, so they are deterministic and machine-independent.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro import Papyrus, obs

#: Wall clock at harness import — the origin for the always-recorded
#: ``wall_seconds`` meta key (real process time).
_T0 = time.perf_counter()

#: Run metadata embedded as the ``meta`` block of every ``BENCH_*.json``
#: (host count, workload seed).  Benchmarks add keys via
#: :func:`note_run_meta`; :func:`fresh_papyrus` records the host count.
#: ``wall_seconds`` and ``max_rss_bytes`` are refreshed on every call so
#: the meta block always carries real-clock figures.
_RUN_META: dict = {}


def max_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (0 if unknown).

    ``resource.getrusage`` reports kilobytes on Linux and bytes on macOS;
    platforms without the module (Windows) report 0 rather than failing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-posix
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


def note_run_meta(**kwargs) -> None:
    """Record metadata for the current run's ``BENCH_*.json`` meta block."""
    _RUN_META.update({k: v for k, v in kwargs.items() if v is not None})
    _RUN_META["wall_seconds"] = round(time.perf_counter() - _T0, 6)
    _RUN_META["max_rss_bytes"] = max_rss_bytes()


def trace_out() -> str | None:
    """The ``--trace-out PATH`` option (or ``PAPYRUS_TRACE_OUT`` env var).

    When set, benchmarks run with tracing enabled, the JSONL trace is
    written to PATH and each benchmark's ``BENCH_<name>.json`` carries a
    metrics snapshot alongside its timing rows (see
    :func:`export_observability`).
    """
    argv = sys.argv
    if "--trace-out" in argv:
        index = argv.index("--trace-out")
        if index + 1 < len(argv):
            return argv[index + 1]
    for arg in argv:
        if arg.startswith("--trace-out="):
            return arg.split("=", 1)[1]
    return os.environ.get("PAPYRUS_TRACE_OUT")


def fresh_papyrus(hosts: int = 4, **kwargs) -> Papyrus:
    papyrus = Papyrus.standard(hosts=hosts, **kwargs)
    note_run_meta(hosts=hosts)
    path = trace_out()
    if path:
        # Stream events to disk as they happen: long benchmark runs stay
        # complete on file even if the in-memory buffer hits capacity.
        obs.enable_tracing(papyrus.clock, observe_clock=True, stream_to=path)
    return papyrus


def export_observability(bench_name: str, extra: dict | None = None) -> dict | None:
    """Write the trace to ``--trace-out`` and a ``BENCH_*.json`` snapshot
    next to it: metrics, plus a profile summary (critical-path shape,
    per-host utilization, overhead fraction) computed by
    ``repro.obs.analysis`` — so each benchmark's perf trajectory is
    self-explaining.  Asserts the bounded trace buffer dropped nothing.
    Returns the written document; a no-op (``None``) when tracing is not
    requested."""
    path = trace_out()
    if not path:
        return None
    from repro.obs.analysis import TraceModel, profile_summary

    if obs.TRACER.stream_path == path:
        # Streaming wrote the file already; just flush and count.
        events_written = obs.TRACER.streamed
        obs.TRACER.close_stream()
    else:
        events_written = obs.TRACER.export_jsonl(path)
    note_run_meta()    # refresh wall_seconds / max_rss_bytes at export time
    payload = {
        "bench": bench_name,
        "meta": dict(_RUN_META),
        "metrics": obs.metrics_snapshot(),
        "profile": profile_summary(TraceModel.from_tracer(obs.TRACER)),
        "trace": {"path": path, "events": events_written,
                  "buffered": len(obs.TRACER.events),
                  "dropped": obs.TRACER.dropped},
    }
    if extra:
        payload.update(extra)
    out = Path(path).with_name(f"BENCH_{bench_name}.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    print(f"\n[obs] trace -> {path}  metrics -> {out}")
    assert obs.TRACER.dropped == 0, (
        f"trace buffer dropped {obs.TRACER.dropped} events")
    return payload


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def table(headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(_fmt(c).ljust(w) for c, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
