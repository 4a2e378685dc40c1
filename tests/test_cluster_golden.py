"""Frozen simulator output for seeded scenarios.

``tests/fixtures/cluster_golden.json`` holds, per scenario, every
completion as ``[pid, host, repr(finished_at)]`` in finish order, each
process's migration and eviction counts, the integer counters, the
scheduler-gap seconds and the final clock.  Times are stored as ``repr`` so
the comparison is bit-exact: any change to the order in which the simulator
adds up floats, picks among near-tied completions or walks stranded
processes shows here.

The scenarios cover owner-return evictions, re-migration and gap feedback
each on and off, mixed priorities, ``kill``, processes homed on a host other
than ``home``, and ``run_until``.

Regenerate (only for an intended, documented change) with
``PYTHONPATH=src python -m tests.test_cluster_golden --write``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.sprite import Cluster, OwnerSchedule, Workstation

GOLDEN = Path(__file__).parent / "fixtures" / "cluster_golden.json"


def _owned_hosts(rng: random.Random, n: int) -> list[Workstation]:
    """``home``, a ``lab`` server that homes its own work, and ``n``
    workstations whose owners come and go on random schedules."""
    hosts = [Workstation("home"),
             Workstation("lab", schedule=OwnerSchedule(period=40, busy=6,
                                                       offset=3))]
    for i in range(n):
        period = rng.choice((9.0, 13.0, 17.5, 25.0))
        hosts.append(Workstation(f"ws{i + 1:02d}", schedule=OwnerSchedule(
            period=period, busy=round(period * rng.uniform(0.2, 0.6), 3),
            offset=round(rng.uniform(0, period), 3))))
    return hosts


def _drive(cluster: Cluster, rng: random.Random, ops: int,
           homes: tuple[str, ...] = ("home",),
           use_run_until: bool = False) -> tuple[list[list], list]:
    """Random submits, kills, steps (or ``run_until`` hops), then a drain;
    returns the completions in finish order and the processes submitted."""
    completions = []
    live = []

    def record(done):
        for proc in done:
            completions.append([proc.pid, proc.host, repr(proc.finished_at)])

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45 or not cluster.running():
            live.append(cluster.submit(
                f"p{len(live)}", work=rng.choice((0.5, 1.0, 1.5, 2.0, 3.7)),
                migratable=rng.random() < 0.85,
                priority=rng.choice((0, 0, 1, 5)),
                home=rng.choice(homes)))
        elif roll < 0.5:
            cluster.kill(rng.choice(live))
        elif use_run_until:
            record(cluster.run_until(cluster.clock.now + rng.uniform(0.1, 4)))
        else:
            record(cluster.step())
    record(cluster.drain())
    return completions, live


def run(scenario: str) -> dict:
    seed, kwargs, drive = SCENARIOS[scenario]
    kwargs = dict(kwargs)
    rng = random.Random(seed)
    hosts = _owned_hosts(rng, kwargs.pop("workstations", 5))
    cluster = Cluster(hosts, clock=VirtualClock(), **kwargs)
    completions, submitted = _drive(cluster, rng, **drive)
    return {
        "completions": completions,
        "processes": [[p.pid, p.state.value, p.migrations, p.evictions]
                      for p in submitted],
        "counters": {field: getattr(cluster.stats, field)
                     for field in cluster.stats.FIELDS},
        "gap_seconds": repr(cluster.stats.registry.value(
            "cluster.gap_seconds")),
        "gap_by_host": {host: repr(seconds) for host, seconds
                        in cluster.stats.gap_seconds.items()},
        "clock": repr(cluster.clock.now),
    }


#: name -> (seed, Cluster keyword arguments, ``_drive`` keyword arguments).
SCENARIOS: dict = {}


def _scenario(name, seed, drive, **kwargs):
    SCENARIOS[name] = (seed, kwargs, drive)


for _seed in (1, 2):
    _scenario(f"evict_remigrate_{_seed}", _seed, {"ops": 400})
    _scenario(f"evict_no_remigrate_{_seed}", _seed, {"ops": 400},
              remigration=False)
    _scenario(f"gap_feedback_{_seed}", _seed, {"ops": 400},
              gap_feedback=True)
    _scenario(f"gap_feedback_no_remigrate_{_seed}", _seed, {"ops": 400},
              remigration=False, gap_feedback=True)
    _scenario(f"lab_homes_{_seed}", _seed,
              {"ops": 400, "homes": ("home", "lab", "lab")})
    _scenario(f"run_until_{_seed}", _seed,
              {"ops": 300, "homes": ("home", "lab"), "use_run_until": True},
              gap_feedback=True)
    _scenario(f"crowded_{_seed}", _seed, {"ops": 600}, workstations=2)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cluster_matches_golden(scenario):
    assert run(scenario) == json.loads(GOLDEN.read_text())[scenario]


def test_scenarios_exercise_every_path():
    """The recorded runs really evict, re-migrate, kill and place work
    off ``home`` — otherwise the lock guards nothing."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(SCENARIOS)
    total = {field: sum(case["counters"][field] for case in golden.values())
             for field in ("evictions", "remigrations", "killed",
                           "ran_remote", "ran_at_home")}
    assert all(total.values()), total
    assert any(host == "lab" for case in golden.values()
               for _, host, _ in case["completions"])
    assert all(case["counters"]["remigrations"] == 0
               for name, case in golden.items() if "no_remigrate" in name)
    assert any(float(case["gap_seconds"]) > 0 for case in golden.values())


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_cluster_golden --write")
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(run(name), sort_keys=True)}"
        for name in sorted(SCENARIOS)) + "\n}\n")
