"""Experiment E-RUNTIME: what does observing the system cost the system?

The whole obs stack exists on a promise: tracing and metrics are cheap
enough to leave on.  This benchmark prices that promise on real hardware.
It runs the rework ping-pong workload (the event-dense scenario from
``bench_scale``) three ways —

* **off** — tracer disabled (the bare system; metrics are always live),
* **on** — tracer buffering events + metrics (the "leave it on in
  production" configuration),
* **streaming** — everything above plus per-event JSONL streaming to disk
  (the exporter configuration used when a trace file is requested),

best-of-N wall clock each, and reports the overhead fraction
``(on - off) / off``.  :func:`check_overhead` holds the **on** fraction
below 10%; the streaming figure is reported (and loosely bounded) but not
tightly bounded — disk throughput varies too much across runners for a
tight band, and streaming is opt-in.

Per-layer wall attribution is not measured here; it comes from the
repository benchmark's outside-in tracer
(``python -m benchmarks.e2e --workload W --trace spans``).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro import obs

from benchmarks.bench_scale import measure_ping_pong
from benchmarks.common import (banner, export_observability, max_rss_bytes,
                               note_run_meta, table, trace_out)

#: Workload size: big enough that per-event costs dominate timer noise,
#: small enough for a CI smoke job.
COMMITS = 60
MOVES = 20
REPEATS = 5


def _reset_obs() -> None:
    obs.TRACER.close_stream()
    obs.TRACER.clear()
    obs.TRACER.disable()


def _one_run(mode: str, stream_path: str | None = None) -> float:
    """One measured workload pass; returns wall seconds."""
    _reset_obs()
    if mode == "on":
        obs.enable_tracing()
    elif mode == "streaming":
        obs.enable_tracing(stream_to=stream_path)
    start = time.perf_counter()
    measure_ping_pong(commits=COMMITS, moves=MOVES)
    elapsed = time.perf_counter() - start
    _reset_obs()
    return elapsed


def measure_overhead(repeats: int = REPEATS,
                     stream_path: str | None = None) -> dict:
    """Best-of-``repeats`` walls for each mode plus derived fractions.

    Minimum (not mean) is the comparison statistic: scheduler noise and
    page-cache state only ever add time, so the minima are the closest
    observable approximations of each mode's true cost.  Each repeat runs
    the three modes back to back, so a slow spell of the machine (another
    tenant, a frequency drop) lands on every mode rather than on whichever
    one was being timed at the time.
    """
    stream_path = stream_path or "_runtime_overhead_trace.jsonl"
    _one_run("off")                                     # warm-up (imports,
    note_run_meta(seed=11)                              # allocator, caches)
    modes = ("off", "on", "streaming")
    walls = {mode: float("inf") for mode in modes}
    for _ in range(repeats):
        for mode in modes:
            walls[mode] = min(walls[mode], _one_run(mode, stream_path))
    off, on, streaming = walls["off"], walls["on"], walls["streaming"]
    return {
        "commits": COMMITS,
        "moves": MOVES,
        "repeats": repeats,
        "off_wall_seconds": off,
        "on_wall_seconds": on,
        "streaming_wall_seconds": streaming,
        "fraction": max(0.0, on - off) / off if off > 0 else 0.0,
        "streaming_fraction":
            max(0.0, streaming - off) / off if off > 0 else 0.0,
        "max_rss_bytes": max_rss_bytes(),
    }


def check_overhead(result: dict) -> None:
    assert result["off_wall_seconds"] >= 0.001, result
    assert result["max_rss_bytes"] >= 1, result
    assert result["fraction"] < 0.10, (
        f"obs-on overhead {result['fraction']:.1%} >= 10% — the "
        f"leave-it-on promise is broken")
    assert result["streaming_fraction"] < 0.50, (
        f"streaming overhead {result['streaming_fraction']:.1%} is "
        f"pathological")


def test_runtime_overhead(benchmark):
    result = benchmark(measure_overhead, repeats=2)
    check_overhead(result)
    banner("E-RUNTIME: observability overhead (real seconds, best-of-N)")
    table(
        ["mode", "wall seconds", "overhead"],
        [
            ["obs off", result["off_wall_seconds"], "—"],
            ["obs on (buffered)", result["on_wall_seconds"],
             f"{result['fraction']:.1%}"],
            ["obs on + streaming", result["streaming_wall_seconds"],
             f"{result['streaming_fraction']:.1%}"],
        ],
    )


if __name__ == "__main__":
    # CI runtime-overhead entry point (no pytest needed): measure, assert
    # the bands hold locally, then run one fully-observed pass so the
    # exported trace and BENCH file have a run to describe.
    path = trace_out()
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    result = measure_overhead(stream_path=path)
    print(f"overhead: off {result['off_wall_seconds']:.3f}s, "
          f"on {result['on_wall_seconds']:.3f}s "
          f"({result['fraction']:.1%}), streaming "
          f"{result['streaming_wall_seconds']:.3f}s "
          f"({result['streaming_fraction']:.1%})")
    check_overhead(result)
    print("runtime overhead smoke OK")
    if path:
        obs.enable_tracing(stream_to=path)
        measure_ping_pong(commits=COMMITS, moves=MOVES)
        export_observability("runtime_overhead", {"overhead": result})
