"""The bench scripts' own acceptance checks (``check_*`` in
``benchmarks/bench_*.py``): the sub-second scenarios pass them, and every
bound fires.  For each bound, a copy of a passing result set exactly at the
bound passes and one pushed just past it raises ``AssertionError``.  The
slow scenarios (10k-step bigdag, the 100k-version persistence workspace,
the wall-clock overhead runs) are checked on a copy of a measured result.
"""

from __future__ import annotations

import copy
import math

import pytest

from benchmarks.bench_fig37_rework import (check_memoized_replay,
                                           measure_memoized_replay)
from benchmarks.bench_persistence import check_persistence
from benchmarks.bench_runtime_overhead import check_overhead
from benchmarks.bench_scale import (BIGDAG_MAKESPAN, SITE_RULESET,
                                    check_bigdag, check_ping_pong,
                                    check_stall, measure_bigdag,
                                    measure_ping_pong, measure_stall)
from repro import obs
from repro.obs.analysis import TraceModel, profile_summary

MAX, MIN = math.inf, -math.inf


def with_value(result: dict, path: str, value: float) -> dict:
    """A deep copy of ``result`` with the dotted ``path`` set to ``value``."""
    out = copy.deepcopy(result)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def assert_bound(check, result: dict, path: str, bound: float,
                 toward: float, inclusive: bool = True, **kwargs) -> None:
    """``check`` accepts ``path`` at ``bound`` (when ``inclusive``) and
    rejects it one float step past ``bound`` toward ``toward`` (``MAX``
    for an upper bound, ``MIN`` for a lower one)."""
    if inclusive:
        check(with_value(result, path, bound), **kwargs)
    with pytest.raises(AssertionError):
        check(with_value(result, path, math.nextafter(bound, toward)),
              **kwargs)


# ---------------------------------------------------------- induced stall


@pytest.fixture(scope="module")
def stall() -> tuple[dict, dict]:
    result = measure_stall(rules_path=SITE_RULESET)
    profile = profile_summary(TraceModel.from_tracer(obs.TRACER))
    return result, profile


class TestStall:
    def test_scenario_passes(self, stall):
        result, profile = stall
        check_stall(result, profile=profile)
        check_stall(measure_stall())          # default ruleset: no SLOs

    @pytest.mark.parametrize("path, bound, toward, inclusive", [
        ("makespan_seconds", 40.0 * 1.02, MAX, True),
        ("gap_seconds", 20.0 * 1.02, MAX, True),
        ("gap_seconds", 10.0, MIN, False),
        ("gap_by_host.ws01", 10.0, MIN, False),
        ("slo_alert_count", 1, MIN, True),
        ("slo_budget_remaining", -1.29, MIN, True),
        ("slo_budget_remaining", -1.28, MAX, True),
        ("budget_monotonic", 1.0, MIN, True),
    ])
    def test_bound_fires(self, stall, path, bound, toward, inclusive):
        assert_bound(check_stall, stall[0], path, bound, toward, inclusive)

    def test_profile_gap_bound_fires(self, stall):
        result, profile = stall
        assert_bound(lambda p: check_stall(result, profile=p), profile,
                     "scheduler_gap_seconds", 20.0 * 1.02, MAX)

    def test_alerts_must_name_scheduler_gap(self, stall):
        result = stall[0]
        with pytest.raises(AssertionError):
            check_stall(with_value(result, "alerts", ["slo:other"]))
        with pytest.raises(AssertionError):
            check_stall(with_value(result, "slo_alerts", ["slo:other"]))

    def test_budget_samples_must_not_increase(self, stall):
        result = stall[0]
        samples = result["budget_samples"]
        ts, previous = samples[-2]
        wobble = with_value(result, "budget_samples",
                            samples[:-1] + [[ts + 1, previous + 0.5e-9]])
        check_stall(wobble)                    # within the 1e-9 tolerance
        rise = with_value(result, "budget_samples",
                          samples[:-1] + [[ts + 1, previous + 2e-9]])
        with pytest.raises(AssertionError):
            check_stall(rise)
        with pytest.raises(AssertionError):
            check_stall(with_value(result, "budget_samples", samples[:3]))


# -------------------------------------------------- memoized Fig 3.7 replay


@pytest.fixture(scope="module")
def replay() -> dict:
    return measure_memoized_replay()


class TestMemoizedReplay:
    def test_scenario_passes(self, replay):
        check_memoized_replay(replay)

    @pytest.mark.parametrize("path, bound, toward", [
        ("cold_makespan_seconds", 24.385 * 1.05, MAX),
        ("warm_makespan_seconds", 3.0 * 1.05, MAX),
        ("reused_fraction", 0.8888 * 0.95, MIN),
        ("speedup", 8.12 * 0.95, MIN),
        ("memo_hits", 0.0, MIN),
    ])
    def test_bound_fires(self, replay, path, bound, toward):
        assert_bound(check_memoized_replay, replay, path, bound, toward,
                     inclusive=path != "memo_hits")

    def test_no_version_hashed_twice(self, replay):
        assert_bound(check_memoized_replay, replay, "fingerprints",
                     replay["versions_created"], MAX)


# ------------------------------------------------------ rework ping-pong


@pytest.fixture(scope="module")
def ping_pong() -> dict:
    return measure_ping_pong(60, 20)


class TestPingPong:
    def test_scenario_passes(self, ping_pong):
        check_ping_pong(ping_pong)

    @pytest.mark.parametrize("path, bound, toward", [
        ("visit_ratio", 27.0 * 0.9, MIN),
        ("cached_visits", 40, MAX),
        ("cache_hits", 1, MIN),
        ("memo_hits", 1, MIN),
    ])
    def test_bound_fires(self, ping_pong, path, bound, toward):
        assert_bound(check_ping_pong, ping_pong, path, bound, toward)


# ------------------------------------------------------------------ bigdag

#: The 10 x 1000 bigdag as measured: 10,001 steps, ~1 wake check each.
BIGDAG = {"chains": 10, "depth": 1000, "steps": 10001,
          "makespan_seconds": BIGDAG_MAKESPAN,
          "scheduler_overhead_seconds": 2.0, "wake_checks": 10000,
          "wake_checks_per_step": 10000 / 10001}


class TestBigdag:
    def test_small_dag_passes(self):
        check_bigdag(measure_bigdag(chains=4, depth=50), steps=4 * 50 + 1)

    @pytest.mark.parametrize("path, bound, toward", [
        ("makespan_seconds", BIGDAG_MAKESPAN * 1.01, MAX),
        ("wake_checks", 30003, MAX),
        ("wake_checks_per_step", 3.0, MAX),
        ("scheduler_overhead_seconds", 60.0, MAX),
    ])
    def test_bound_fires(self, path, bound, toward):
        assert_bound(check_bigdag, BIGDAG, path, bound, toward,
                     steps=10001, makespan=BIGDAG_MAKESPAN)

    def test_step_count_is_exact(self):
        for steps in (10000, 10002):
            with pytest.raises(AssertionError):
                check_bigdag(with_value(BIGDAG, "steps", steps),
                             steps=10001)


# -------------------------------------------------------------- persistence

#: E-PERSIST rows as measured at the default 2000 bases x 50 versions
#: (restore wall time on a 2-vCPU VM).
PERSIST = {"dedup_fraction": 0.985, "incremental_bytes_ratio": 96.73,
           "restore_touch_seconds": 0.88, "lazy_decode_fraction": 0.0066,
           "journal_entries": 1101, "chunks_collected": 1000,
           "versions_reclaimed": 1000, "memo_entries_warmed": 148}


class TestPersistence:
    @pytest.mark.parametrize("path, bound, toward", [
        ("dedup_fraction", 0.5, MIN),
        ("incremental_bytes_ratio", 10, MIN),
        ("restore_touch_seconds", 5.0, MAX),
        ("lazy_decode_fraction", 0.02, MAX),
        ("journal_entries", 1, MIN),
        ("chunks_collected", 1, MIN),
        ("versions_reclaimed", 1, MIN),
        ("memo_entries_warmed", 1, MIN),
    ])
    def test_bound_fires(self, path, bound, toward):
        check_persistence(PERSIST)
        assert_bound(check_persistence, PERSIST, path, bound, toward)


# ------------------------------------------------------- runtime overhead

#: An E-RUNTIME result inside its bounds (wall seconds on a 2-vCPU VM).
OVERHEAD = {"off_wall_seconds": 0.318, "on_wall_seconds": 0.329,
            "streaming_wall_seconds": 0.352, "fraction": 0.035,
            "streaming_fraction": 0.107, "max_rss_bytes": 29_806_592}


class TestOverhead:
    @pytest.mark.parametrize("path, bound, toward, inclusive", [
        ("fraction", 0.10, MAX, False),
        ("streaming_fraction", 0.50, MAX, False),
        ("off_wall_seconds", 0.001, MIN, True),
        ("max_rss_bytes", 1, MIN, True),
    ])
    def test_bound_fires(self, path, bound, toward, inclusive):
        check_overhead(OVERHEAD)
        assert_bound(check_overhead, OVERHEAD, path, bound, toward,
                     inclusive)


# ------------------------------------------------------------- trace export


def test_export_asserts_no_dropped_events(tmp_path, monkeypatch):
    from benchmarks.common import export_observability

    monkeypatch.setenv("PAPYRUS_TRACE_OUT", str(tmp_path / "t.jsonl"))
    obs.TRACER.clear()
    doc = export_observability("clean")
    assert doc["trace"]["dropped"] == 0
    assert (tmp_path / "BENCH_clean.json").exists()
    monkeypatch.setattr(obs.TRACER, "dropped", 3)
    with pytest.raises(AssertionError, match="dropped 3 events"):
        export_observability("lossy")
