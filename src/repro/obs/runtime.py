"""Wall-clock runtime profiling — the system observing *itself*.

Everything else in ``repro.obs`` watches the simulated world on the virtual
clock; this module meters the real Python system underneath it.  The north
star is a system that runs as fast as the hardware allows, and that claim
needs numbers: how many real seconds go to the scheduler pump, to scope
synchronization, to memo fingerprinting, to chunk encode/decode, to journal
fsyncs — and how much of the total the observability layer itself costs.

:class:`RuntimeProfiler` provides near-zero-cost scoped wall-time meters.
Hot paths wrap themselves in ``with PROFILER.section("engine.pump"):``; when
the profiler is disabled the context manager is a shared no-op singleton
(one method call, no allocation, exceptions propagate untouched).  When
enabled, each section records **exclusive** (self) wall seconds — a
section's time excludes its nested children — so the per-section sums can
never exceed total wall time, and the tracer's own emission cost (folded in
via :meth:`RuntimeProfiler.account` from ``Tracer._append``) is never
double-counted inside an enclosing section.  Sections publish
``runtime.wall_seconds{section=}`` / ``runtime.calls{section=}`` into the
process-wide metrics registry.

The module is import-light (no Papyrus subsystem): hot paths import
:data:`PROFILER` at module level exactly like they import ``TRACER``.
"""

from __future__ import annotations

import json
import sys
import time as _time
from typing import IO, Any

__all__ = [
    "PROFILER",
    "RuntimeProfiler",
    "max_rss_bytes",
    "process_wall_seconds",
    "render_report",
    "render_wall_flame",
    "runtime_block",
    "self_test",
]

#: Wall clock at module import — the "process wall seconds" origin used when
#: the profiler itself is disabled (the BENCH runtime block must always
#: carry a wall-seconds figure, profiling or not).
_IMPORT_T0 = _time.perf_counter()

#: Sections that *are* the observability layer: their summed self-time over
#: total wall time is the obs-overhead fraction the CI band gates.
_OBS_SECTION_PREFIXES = ("trace.", "runtime.")


def process_wall_seconds() -> float:
    """Wall seconds since this module was first imported."""
    return _time.perf_counter() - _IMPORT_T0


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


class _NullSection:
    """The context manager returned when profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SECTION = _NullSection()


class _Section:
    """One open scoped meter (exclusive-time accounting via a frame stack)."""

    __slots__ = ("_profiler", "name", "child_seconds", "_t0")

    def __init__(self, profiler: "RuntimeProfiler", name: str):
        self._profiler = profiler
        self.name = name
        self.child_seconds = 0.0

    def __enter__(self) -> "_Section":
        self._profiler._stack.append(self)
        self._t0 = _time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = _time.perf_counter() - self._t0
        profiler = self._profiler
        stack = profiler._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - mis-nested exit
            stack.remove(self)
        if stack:
            # The parent's exclusive time must not include this section.
            stack[-1].child_seconds += elapsed
        profiler._record(self.name, max(0.0, elapsed - self.child_seconds))
        return False


class RuntimeProfiler:
    """Scoped wall-time meters over the real (hardware) clock.

    Disabled by default; ``section()`` then returns a shared no-op context
    manager and ``account()`` returns immediately, so instrumented hot
    paths pay one attribute read and one call.  Enabled, every section
    records its **exclusive** wall seconds into both a local table and the
    metrics registry (``runtime.wall_seconds{section=}`` /
    ``runtime.calls{section=}``).  Single-threaded by design, like the
    simulator it meters: sections opened on other threads would mis-nest.
    """

    def __init__(self, enabled: bool = False, registry: Any | None = None):
        self.enabled = False
        self._registry = registry
        self._stack: list[_Section] = []
        self._totals: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._counters: dict[str, tuple[Any, Any]] = {}
        self._t0: float | None = None
        self._accumulated = 0.0
        if enabled:
            self.enable()

    # ------------------------------------------------------------- lifecycle

    def enable(self, registry: Any | None = None) -> "RuntimeProfiler":
        """Turn profiling on; attaches to the tracer so emission cost folds
        into this accounting (as the ``trace.emit`` section) instead of
        being double-counted inside whichever section emitted."""
        if registry is not None:
            self._registry = registry
            self._counters.clear()
        if self._registry is None:
            from repro import obs
            self._registry = obs.METRICS
        if not self.enabled:
            self.enabled = True
            self._t0 = _time.perf_counter()
        if self is PROFILER:
            from repro import obs
            obs.TRACER.attach_profiler(self)
        return self

    def disable(self) -> None:
        if self.enabled and self._t0 is not None:
            self._accumulated += _time.perf_counter() - self._t0
        self.enabled = False
        self._t0 = None
        self._stack.clear()

    def clear(self) -> None:
        """Drop accumulated section totals (a fresh measurement window)."""
        self._totals.clear()
        self._calls.clear()
        self._stack.clear()
        self._accumulated = 0.0
        if self.enabled:
            self._t0 = _time.perf_counter()

    # ------------------------------------------------------------- recording

    def section(self, name: str) -> "_Section | _NullSection":
        """A scoped wall-time meter (use as a context manager)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def account(self, name: str, seconds: float) -> None:
        """Fold pre-measured wall seconds in as a leaf section.

        The tracer times its own ``_append`` already; routing that number
        through here charges it to ``trace.emit`` *and* subtracts it from
        the enclosing open section, so emission cost is counted exactly
        once no matter where it happens.
        """
        if not self.enabled:
            return
        if self._stack:
            self._stack[-1].child_seconds += seconds
        self._record(name, seconds)

    def _record(self, name: str, seconds: float) -> None:
        self._totals[name] = self._totals.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1
        pair = self._counters.get(name)
        if pair is None:
            pair = (self._registry.counter("runtime.wall_seconds",
                                           section=name),
                    self._registry.counter("runtime.calls", section=name))
            self._counters[name] = pair
        pair[0].inc(seconds)
        pair[1].inc()

    # --------------------------------------------------------------- queries

    def total_wall_seconds(self) -> float:
        """Wall seconds the profiler has been enabled (across windows)."""
        live = (_time.perf_counter() - self._t0
                if self.enabled and self._t0 is not None else 0.0)
        return self._accumulated + live

    def sections(self) -> dict[str, dict[str, float]]:
        """Per-section ``{calls, wall_seconds, mean_us}``, heaviest first."""
        out: dict[str, dict[str, float]] = {}
        for name in sorted(self._totals,
                           key=lambda n: (-self._totals[n], n)):
            total = self._totals[name]
            calls = self._calls[name]
            out[name] = {
                "calls": calls,
                "wall_seconds": total,
                "mean_us": (total / calls * 1e6) if calls else 0.0,
            }
        return out

    def obs_overhead_seconds(self) -> float:
        """Self-time spent *being observable* (trace emission et al.)."""
        return sum(total for name, total in self._totals.items()
                   if name.startswith(_OBS_SECTION_PREFIXES))

    def report(self) -> dict[str, Any]:
        """The runtime report: totals, per-section breakdown, obs overhead.

        ``obs_overhead_fraction`` is obs-section self-time over total
        enabled wall time — the number the CI ``runtime-overhead`` band
        keeps under 10%.
        """
        total = self.total_wall_seconds()
        overhead = self.obs_overhead_seconds()
        return {
            "enabled": self.enabled,
            "total_wall_seconds": total,
            "sections": self.sections(),
            "obs_overhead_seconds": overhead,
            "obs_overhead_fraction": (overhead / total) if total > 0 else 0.0,
        }


#: The process-wide profiler every hot path reports to (mutated in place,
#: never rebound — ``from repro.obs.runtime import PROFILER`` is safe at
#: module level everywhere, mirroring ``TRACER``).
PROFILER = RuntimeProfiler()


# -------------------------------------------------------------- BENCH block


def runtime_block(top: int = 5) -> dict[str, Any]:
    """The ``runtime`` block every ``BENCH_*.json`` carries.

    Present whether or not the profiler ran: wall seconds and peak RSS are
    measured unconditionally; the per-section top-``top`` breakdown and the
    obs-overhead fraction need the profiler to have been enabled.
    """
    report = PROFILER.report()
    total = (report["total_wall_seconds"] if report["total_wall_seconds"] > 0
             else process_wall_seconds())
    sections = dict(list(report["sections"].items())[:top])
    return {
        "wall_seconds": total,
        "max_rss_bytes": max_rss_bytes(),
        "profiler_enabled": 1 if PROFILER.enabled else 0,
        "sections": sections,
        "sections_total_seconds": sum(
            s["wall_seconds"] for s in report["sections"].values()),
        "obs_overhead_fraction": report["obs_overhead_fraction"],
    }


# --------------------------------------------------------------- rendering


def render_wall_flame(sections: dict[str, dict[str, Any]],
                      width: int = 40) -> list[str]:
    """Plain-text wall-time flame: one bar per section, heaviest first."""
    if not sections:
        return ["no profiled sections (was the runtime profiler enabled?)"]
    rows = sorted(sections.items(),
                  key=lambda kv: (-float(kv[1].get("wall_seconds", 0.0)),
                                  kv[0]))
    grand = sum(float(s.get("wall_seconds", 0.0)) for _, s in rows)
    top = max(float(s.get("wall_seconds", 0.0)) for _, s in rows)
    lines = [f"wall-clock self time by section, {grand:.4f}s total:"]
    for name, stats in rows:
        wall = float(stats.get("wall_seconds", 0.0))
        calls = int(stats.get("calls", 0))
        mean_us = float(stats.get("mean_us",
                                  wall / calls * 1e6 if calls else 0.0))
        bar = "#" * max(1 if wall > 0 else 0,
                        round(wall / top * width) if top > 0 else 0)
        lines.append(f"  {name:<24} {wall:10.4f}s {calls:8}x "
                     f"mean {mean_us:9.1f}us |{bar:<{width}}|")
    return lines


def render_report(block: dict[str, Any], width: int = 40) -> list[str]:
    """Render a runtime report/block (live or from a BENCH file)."""
    total = float(block.get("total_wall_seconds",
                            block.get("wall_seconds", 0.0)))
    lines = [f"runtime: {total:.3f}s wall"]
    rss = block.get("max_rss_bytes")
    if rss:
        lines[0] += f", peak rss {rss / (1 << 20):.1f} MiB"
    fraction = block.get("obs_overhead_fraction")
    if fraction is not None:
        lines[0] += f", obs overhead {fraction:.2%}"
    lines.extend(render_wall_flame(block.get("sections", {}), width=width))
    return lines


# ---------------------------------------------------------------- self-test


def self_test() -> dict[str, Any]:
    """Prove the accounting invariant on a scratch profiler.

    Runs nested sections (with tracer-style ``account`` folds inside) and
    asserts the sum of per-section self times never exceeds the total wall
    time the profiler was enabled — the property that makes the BENCH
    breakdown trustworthy.  Returns the scratch report.
    """
    from repro.obs.metrics import MetricsRegistry

    profiler = RuntimeProfiler(registry=MetricsRegistry())
    profiler.enable(registry=profiler._registry)

    def spin(seconds: float) -> None:
        deadline = _time.perf_counter() + seconds
        while _time.perf_counter() < deadline:
            pass

    for _ in range(3):
        with profiler.section("outer"):
            spin(0.002)
            with profiler.section("inner"):
                spin(0.002)
                profiler.account("trace.emit", 0.0005)
            profiler.account("trace.emit", 0.0005)
    profiler.disable()
    report = profiler.report()
    section_sum = sum(s["wall_seconds"]
                      for s in report["sections"].values())
    total = report["total_wall_seconds"]
    if section_sum > total + 1e-9:
        raise AssertionError(
            f"per-section sum {section_sum:.6f}s exceeds total wall "
            f"{total:.6f}s — exclusive-time accounting is broken")
    report["section_sum_seconds"] = section_sum
    return report


# --------------------------------------------------------------- entry point


def _load_block(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if isinstance(document, dict) and isinstance(document.get("runtime"),
                                                 dict):
        return document["runtime"]
    if isinstance(document, dict):
        return document
    raise ValueError(f"{path}: not a BENCH document or runtime block")


def main(argv: list[str] | None = None,
         out: IO[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = out if out is not None else sys.stdout
    usage = ("usage: python -m repro.obs.runtime "
             "report <BENCH.json> | flame <BENCH.json> [width] | self-test")
    if not argv:
        print(usage, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    try:
        if command == "report" and len(rest) == 1:
            for line in render_report(_load_block(rest[0])):
                print(line, file=out)
            return 0
        if command == "flame" and rest:
            width = int(rest[1]) if len(rest) > 1 else 40
            block = _load_block(rest[0])
            for line in render_wall_flame(block.get("sections", block),
                                          width=width):
                print(line, file=out)
            return 0
        if command == "self-test" and not rest:
            report = self_test()
            print(f"self-test OK: {len(report['sections'])} sections, "
                  f"sum {report['section_sum_seconds']:.6f}s <= total "
                  f"{report['total_wall_seconds']:.6f}s", file=out)
            return 0
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"runtime: {exc}", file=sys.stderr)
        return 2
    print(usage, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - console entry point
    sys.exit(main())
