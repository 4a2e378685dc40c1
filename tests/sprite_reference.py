"""Whole-cluster-scan reference for the cluster simulator.

This is the event loop ``repro.sprite.Cluster`` had before each host kept
its residents ordered by work: every event visits every process to find the
next completion and the processes that finished.  It is kept as the oracle
for ``test_sprite_differential``: driven by the same operations, the
optimised cluster must finish the same processes on the same hosts at the
same float times, and charge the same counters, busy and gap seconds.

Two differences from that code are deliberate:

* the next completion is found by the rule as stated, over every process:
  of the processes finishing within ``_EPS`` of the earliest finish time,
  the lowest pid is the event, at its own finish time (the old code scanned
  in pid order and took a later pid only when it finished more than
  ``_EPS`` sooner than the best so far; the two differ only for chains of
  three or more finish times spread over more than ``_EPS``);
* counters, busy and gap seconds are plain numbers, not registry
  instruments, and nothing is traced.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, defaultdict
from typing import Any

from repro.clock import VirtualClock
from repro.errors import SchedulerError
from repro.sprite import OwnerSchedule, ProcessState, SimProcess

_EPS = 1e-9
_DONE = _EPS * 10


class ReferenceHost:
    def __init__(self, name: str, speed: float = 1.0,
                 schedule: OwnerSchedule | None = None):
        self.name = name
        self.speed = speed
        self.schedule = schedule or OwnerSchedule()
        self.resident: set[int] = set()

    def is_owner_busy(self, t: float) -> bool:
        return self.schedule.is_busy(t)

    def rate(self) -> float:
        return self.speed / (len(self.resident) or 1)


class ReferenceCluster:
    def __init__(self, hosts: list[ReferenceHost], clock: VirtualClock,
                 remigration: bool = True, gap_feedback: bool = False):
        self.clock = clock
        self.hosts: dict[str, ReferenceHost] = {}
        for host in hosts:
            self.add_host(host)
        self.remigration = remigration
        self.gap_feedback = gap_feedback
        self.counters: Counter[str] = Counter()
        self.busy_seconds: dict[str, float] = defaultdict(float)
        self.gap_seconds: dict[str, float] = defaultdict(float)
        self.gap_total = 0.0
        self.procs: dict[int, SimProcess] = {}       # pid order
        self._stranded: list[tuple[int, int]] = []
        self._pid = itertools.count(1)
        self._last_charge = clock.now

    def add_host(self, host: ReferenceHost) -> None:
        if host.name in self.hosts:
            raise SchedulerError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host

    def _sorted_hosts(self) -> list[ReferenceHost]:
        return sorted(self.hosts.values(), key=lambda h: h.name)

    def find_idle_host(self) -> ReferenceHost | None:
        now = self.clock.now
        idle = [h for h in self._sorted_hosts() if not h.resident
                and h.name != "home" and not h.is_owner_busy(now)]
        if self.gap_feedback:
            return min(idle, key=lambda h: self.gap_seconds.get(h.name, 0.0),
                       default=None)
        return idle[0] if idle else None

    def submit(self, label: str, work: float, migratable: bool = True,
               priority: int = 0, home: str = "home") -> SimProcess:
        if home not in self.hosts:
            raise SchedulerError(f"unknown home host {home!r}")
        self._charge_elapsed()
        idle = self.find_idle_host() if migratable else None
        target = idle or self.hosts[home]
        proc = SimProcess(pid=next(self._pid), label=label,
                          work=max(work, _EPS), home=home, host=target.name,
                          migratable=migratable, priority=priority,
                          started_at=self.clock.now)
        target.resident.add(proc.pid)
        self.procs[proc.pid] = proc
        self.counters["submitted"] += 1
        if idle is not None:
            proc.migrations += 1
            self.counters["migrations"] += 1
            self.counters["ran_remote"] += 1
        else:
            self.counters["ran_at_home"] += 1
        if migratable and proc.is_at_home:
            heapq.heappush(self._stranded, (-proc.priority, proc.pid))
        return proc

    def kill(self, proc: SimProcess) -> None:
        if proc.state is not ProcessState.RUNNING:
            return
        self._charge_elapsed()
        proc.state = ProcessState.KILLED
        proc.finished_at = self.clock.now
        self.hosts[proc.host].resident.discard(proc.pid)
        del self.procs[proc.pid]
        self.counters["killed"] += 1

    def _rates(self) -> dict[str, float]:
        return {h.name: h.rate() for h in self.hosts.values() if h.resident}

    def _charge_elapsed(self, now: float | None = None) -> None:
        if now is None:
            now = self.clock.now
        span = now - self._last_charge
        if span > _EPS:
            rates = self._rates()
            for proc in self.procs.values():
                proc.work -= span * rates[proc.host]
            hosts = self._sorted_hosts()
            occupied = [h for h in hosts if h.resident]
            for host in occupied:
                self.busy_seconds[host.name] += span * len(host.resident)
            if len(occupied) < len(hosts) and any(
                    len(h.resident) > 1 for h in occupied):
                idle = [h.name for h in hosts if not h.resident
                        and not h.is_owner_busy(self._last_charge)]
                if idle:
                    self.gap_total += span
                    for name in idle:
                        self.gap_seconds[name] += span
        self._last_charge = now

    def _advance_to(self, when: float) -> None:
        self._charge_elapsed(max(when, self.clock.now))
        self.clock.advance_to(when)

    def _next_completion(self) -> tuple[float, SimProcess | None]:
        now, rates = self.clock.now, self._rates()
        finish = {pid: now + proc.work / rates[proc.host]
                  for pid, proc in self.procs.items()}
        if not finish:
            return math.inf, None
        m = min(finish.values())
        pid = min(pid for pid, t in finish.items() if t - _EPS <= m)
        return finish[pid], self.procs[pid]

    def _next_owner_transition(self) -> float:
        now, best = self.clock.now, math.inf
        for host in self.hosts.values():
            t = host.schedule.next_transition(now)
            if t is not None and t > now + _EPS:
                best = min(best, t)
        return best

    def _evict(self) -> None:
        now = self.clock.now
        for host in self._sorted_hosts():
            if host.name == "home" or not host.is_owner_busy(now):
                continue
            for pid in sorted(host.resident):
                proc = self.procs[pid]
                if proc.home == host.name:
                    continue
                host.resident.discard(pid)
                self.hosts[proc.home].resident.add(pid)
                proc.host = proc.home
                proc.evictions += 1
                heapq.heappush(self._stranded, (-proc.priority, proc.pid))
                self.counters["evictions"] += 1

    def remigrate(self) -> int:
        self._charge_elapsed()
        idle = self.find_idle_host()
        loads: dict[str, int] = {}
        moved, skipped = 0, []
        while idle is not None and self._stranded:
            entry = heapq.heappop(self._stranded)
            proc = self.procs.get(entry[1])
            if proc is None or not proc.is_at_home:
                continue
            if loads.setdefault(proc.home,
                                len(self.hosts[proc.home].resident)) < 2:
                skipped.append(entry)
                continue
            self.hosts[proc.host].resident.discard(proc.pid)
            idle.resident.add(proc.pid)
            proc.host = idle.name
            proc.migrations += 1
            moved += 1
            self.counters["remigrations"] += 1
            idle = self.find_idle_host()
        for entry in skipped:
            heapq.heappush(self._stranded, entry)
        return moved

    def _owner_transition(self, when: float) -> None:
        self._advance_to(when)
        self._evict()
        if self.remigration:
            self.remigrate()

    def step(self) -> list[SimProcess]:
        if not self.procs:
            raise SchedulerError("no running processes to wait for")
        t_done, proc = self._next_completion()
        t_owner = self._next_owner_transition()
        if t_owner < t_done - _EPS:
            self._owner_transition(t_owner)
            return []
        assert proc is not None
        self._advance_to(t_done)
        done = [p for p in self.procs.values() if p.work <= _DONE] or [proc]
        for finished in done:
            finished.state = ProcessState.DONE
            finished.finished_at = self.clock.now
            self.hosts[finished.host].resident.discard(finished.pid)
            del self.procs[finished.pid]
            self.counters["completed"] += 1
        if self.remigration:
            self.remigrate()
        return done

    def drain(self) -> list[SimProcess]:
        finished: list[SimProcess] = []
        while self.procs:
            finished.extend(self.step())
        return finished

    def run_until(self, when: float) -> list[SimProcess]:
        finished: list[SimProcess] = []
        while self.clock.now < when - _EPS:
            t_done, _ = self._next_completion()
            t_next = min(t_done, self._next_owner_transition())
            if t_next <= when + _EPS:
                if self.procs:
                    finished.extend(self.step())
                else:
                    self._owner_transition(t_next)
                continue
            self._advance_to(when)
        return finished


def snapshot(cluster: Any) -> dict[str, Any]:
    """The reference's counters, busy and gap seconds, in the form the
    differential test reads from a ``repro.sprite.Cluster``."""
    return {
        "counters": {name: cluster.counters[name] for name in
                     ("submitted", "completed", "killed", "migrations",
                      "evictions", "remigrations", "ran_at_home",
                      "ran_remote")},
        "gap_total": repr(cluster.gap_total),
        "gap_by_host": {h: repr(s) for h, s in
                        sorted(cluster.gap_seconds.items())},
        "busy_by_host": {h: repr(s) for h, s in
                         sorted(cluster.busy_seconds.items())},
    }
