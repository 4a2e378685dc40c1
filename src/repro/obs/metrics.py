"""A process-wide metrics registry: counters, gauges, histograms.

Replaces the ad-hoc counter bags scattered through the stack (most notably
``ClusterStats``) with named, labelled instruments that snapshot to plain
JSON — so benchmarks can attach a metrics snapshot to their ``BENCH_*.json``
outputs and the shell's ``stats`` command can print one view of the whole
installation.

``registry.counter("x", host="a")`` creates an instrument on its first call
and returns the same object for the same name + labels after that.  An
instrument of :data:`METRICS` with a fixed name and fixed labels is created
once, at module level beside its use (``_STEPS_ISSUED =
METRICS.counter("engine.steps_issued")``), so it exists at 0 from import and
a hot path updates it with no look-up.  Only instruments whose label values
are computed at run time (``step.latency{tool=...}``) are looked up where
they are used.  So an instrument that is absent from a registry is either a
run-time label set not seen yet or an instrument of another registry (a
cluster's ``ClusterStats``, a monitor's windowed samples).
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Iterable

from repro.errors import PapyrusError

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")
_LABEL_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Default histogram bucket boundaries (virtual seconds / generic magnitudes).
DEFAULT_BUCKETS = (0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, float("inf"))


class MetricError(PapyrusError):
    """Invalid metric name, label, or kind collision."""


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    for key in labels:
        if not _LABEL_KEY_RE.match(key):
            raise MetricError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_quantile(
    bounds: tuple[float, ...],
    counts: list[int] | tuple[int, ...],
    count: int,
    q: float,
    lo: float | None = None,
    hi: float | None = None,
) -> float | None:
    """Quantile ``q`` estimated from cumulative bucket counts.

    Interpolates linearly inside the selected bucket and clamps to the
    observed ``[lo, hi]`` range, so degenerate distributions stay exact:
    an empty series returns None (never a fabricated 0.0), and a
    single-sample series returns that sample for every ``q``.  Shared by
    :meth:`Histogram.quantile` and the health engine's cross-label merge.
    """
    if count <= 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    rank = q * count
    cum = 0.0
    prev_bound = lo if lo is not None else 0.0
    for bound, n in zip(bounds, counts):
        cum += n
        if n and cum >= rank:
            lower = prev_bound
            upper = bound if bound != float("inf") else \
                (hi if hi is not None else lower)
            frac = (rank - (cum - n)) / n
            value = lower + (upper - lower) * frac
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        if bound != float("inf"):
            prev_bound = bound
    return hi


class Counter:
    """A monotonically non-decreasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, busy seconds...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A distribution summarised by fixed buckets plus count/sum/min/max."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "bucket_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        if not self.buckets or self.buckets[-1] != float("inf"):
            self.buckets = self.buckets + (float("inf"),)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated quantile ``q`` (0..1) of the observed distribution.

        None when no sample has landed yet — alert rules treat a None
        signal as "not evaluable" rather than comparing against a phantom
        zero.  With one sample, every quantile is that sample.
        """
        return bucket_quantile(self.buckets, self.bucket_counts, self.count,
                               q, lo=self.min, hi=self.max)

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                ("inf" if bound == float("inf") else f"{bound:g}"): n
                for bound, n in zip(self.buckets, self.bucket_counts)
            },
        }


class WindowedSeries:
    """A ring buffer of ``(virtual_ts, value)`` samples with retention.

    The windowed substrate under the SLO engine: cumulative quantities
    (counters, gap seconds, elapsed time) are sampled on the health
    cadence, and burn rates are deltas between the boundary samples of a
    trailing window.  Retention is time-based (``retention`` virtual
    seconds) with a hard sample cap (``maxlen``), so a long-lived session
    holds a bounded record no matter how often it samples.

    Windowed deltas obey the missing-metric contract from the health
    engine: an **empty window or a single-sample window yields None**
    (the rule is skipped), never a fabricated 0.0 — one sample tells you
    a level, not a rate.
    """

    kind = "window"
    __slots__ = ("name", "labels", "retention", "samples")

    def __init__(self, name: str, labels: LabelKey,
                 retention: float = 7200.0, maxlen: int = 4096):
        self.name = name
        self.labels = labels
        self.retention = float(retention)
        self.samples: deque[tuple[float, float]] = deque(maxlen=maxlen)

    def record(self, ts: float, value: float) -> None:
        """Append one sample; prune anything older than the retention.

        A timestamp *before* the last sample means the virtual clock was
        rebuilt (a fresh run in the same process) — the stale epoch's
        samples are dropped rather than interleaved into nonsense.
        """
        if self.samples and ts < self.samples[-1][0]:
            self.samples.clear()
        self.samples.append((float(ts), float(value)))
        horizon = ts - self.retention
        while self.samples and self.samples[0][0] < horizon:
            self.samples.popleft()

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def latest(self) -> tuple[float, float] | None:
        return self.samples[-1] if self.samples else None

    def bounds(self, now: float,
               seconds: float) -> tuple[tuple[float, float],
                                        tuple[float, float]] | None:
        """The boundary samples of the window ``[now - seconds, now]``.

        The lower boundary is the newest sample at or before the window
        start (so the delta spans the whole window), falling back to the
        oldest in-window sample while the series is still shorter than the
        window.  None when fewer than two distinct-time samples cover the
        window — the caller must skip, not assume zero.
        """
        lo = now - seconds
        start = end = None
        for ts, value in self.samples:
            if ts > now:
                break
            if ts <= lo:
                start = (ts, value)
            elif start is None:
                start = (ts, value)
            end = (ts, value)
        if start is None or end is None or end[0] <= start[0]:
            return None
        return start, end

    def delta_over(self, now: float, seconds: float) -> float | None:
        """Value increase across the trailing window (None when empty or
        single-sample — mirrors the health engine's missing-metric
        contract)."""
        boundary = self.bounds(now, seconds)
        if boundary is None:
            return None
        (_, v0), (_, v1) = boundary
        return v1 - v0

    def rate_over(self, now: float, seconds: float) -> float | None:
        """Per-virtual-second increase across the trailing window, using
        the *actual* elapsed time between the boundary samples (partial
        windows are rated over what they cover, not the nominal width)."""
        boundary = self.bounds(now, seconds)
        if boundary is None:
            return None
        (t0, v0), (t1, v1) = boundary
        return (v1 - v0) / (t1 - t0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": len(self.samples),
            "first_ts": self.samples[0][0] if self.samples else None,
            "last_ts": self.samples[-1][0] if self.samples else None,
            "last": self.samples[-1][1] if self.samples else None,
        }


class MetricsRegistry:
    """A namespace of instruments, keyed by (name, sorted labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Any] = {}
        self._kinds: dict[str, str] = {}

    # -------------------------------------------------------------- creation

    def _get(self, cls, name: str, labels: dict[str, Any],
             **kwargs: Any):
        key = (name, _label_key(labels) if labels else ())
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise MetricError(
                    f"{name!r} is registered as a {metric.kind}, "
                    f"not a {cls.kind}"
                )
            return metric
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        registered = self._kinds.setdefault(name, cls.kind)
        if registered != cls.kind:
            raise MetricError(
                f"{name!r} is registered as a {registered}, not a {cls.kind}"
            )
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    def window(self, name: str, retention: float | None = None,
               maxlen: int | None = None, **labels: Any) -> WindowedSeries:
        """A ring-buffered windowed series (see :class:`WindowedSeries`)."""
        kwargs: dict[str, Any] = {}
        if retention is not None:
            kwargs["retention"] = retention
        if maxlen is not None:
            kwargs["maxlen"] = maxlen
        return self._get(WindowedSeries, name, labels, **kwargs)

    # --------------------------------------------------------------- queries

    def value(self, name: str, **labels: Any) -> Any:
        """The snapshot value of one instrument (0.0 if absent)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.snapshot() if metric is not None else 0.0

    def get(self, name: str, **labels: Any) -> Any | None:
        """The instrument itself, or None if this registry does not hold it.

        Unlike :meth:`value` this distinguishes "missing" from 0.0, which
        the health engine needs: a rule over an absent instrument is
        skipped, not compared against zero.
        """
        return self._metrics.get((name, _label_key(labels)))

    def series(self, name: str) -> list[Any]:
        """Every instrument registered under ``name``, across label sets."""
        return [metric for (metric_name, _), metric
                in sorted(self._metrics.items()) if metric_name == name]

    def __iter__(self):
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able view: ``name{k=v,...}`` → value (sorted, stable)."""
        out: dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                out[f"{name}{{{rendered}}}"] = metric.snapshot()
            else:
                out[name] = metric.snapshot()
        return out


#: The process-wide registry, re-exported as ``repro.obs.METRICS``.  It lives
#: here, beside its class, so the tracer can import it at module level.
METRICS = MetricsRegistry()
