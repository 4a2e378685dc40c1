"""The cluster simulator.

A work-remaining discrete-event model: on every event (submission,
completion, owner transition) the simulator charges elapsed compute to every
running process at its host's timeshared rate, then recomputes the next event
time.  This keeps the model exact under arbitrary load changes without
fixed-step ticking.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from typing import Any, Callable, Iterator

from repro.clock import GLOBAL_CLOCK, VirtualClock
from repro.errors import SchedulerError
from repro.obs import TRACER
from repro.obs.metrics import MetricsRegistry
from repro.sprite.host import OwnerSchedule, Workstation
from repro.sprite.process import ProcessState, SimProcess

_EPS = 1e-9
_DONE = _EPS * 10           # work left at which a process counts as finished


class _PerHost(Mapping):
    """Dict-facing view over one ``NAME{host=...}`` instrument per host.

    Keeps the ``stats.busy_seconds[host]`` / ``stats.gap_seconds[host]``
    read API while the storage lives in the metrics registry.  Each host's
    instrument is resolved once and kept, so charging a host is one
    increment.
    """

    def __init__(self, make: Callable[..., Any], name: str):
        self._make = make                   # registry.gauge / .counter
        self._name = name
        self._instruments: dict[str, Any] = {}   # host -> instrument

    def instrument(self, host: str):
        instrument = self._instruments.get(host)
        if instrument is None:
            instrument = self._make(self._name, host=host)
            self._instruments[host] = instrument
        return instrument

    def __getitem__(self, host: str) -> float:
        if host not in self._instruments:
            raise KeyError(host)
        return self._instruments[host].value

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._instruments))

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return repr(dict(self))


class ClusterStats:
    """Counters the benchmarks report, backed by a metrics registry.

    The historical attribute API (``stats.migrations``, ``stats.submitted``,
    ``stats.busy_seconds[host]``...) is preserved; the storage is named
    instruments in ``stats.registry``, so the shell's ``stats`` command and
    benchmark snapshots see the same numbers the benchmarks print.

    ``cluster.gap_seconds`` counts scheduler-gap seconds: time during which
    some host timeshared two or more processes while another host sat
    empty with its owner away.  The label-less counter adds each such span
    once; ``stats.gap_seconds[host]`` adds it to every host idle through it.
    """

    FIELDS = ("submitted", "completed", "killed", "migrations", "evictions",
              "remigrations", "ran_at_home", "ran_remote")

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {name: self.registry.counter(f"cluster.{name}")
                          for name in self.FIELDS}
        self.busy_seconds = _PerHost(self.registry.gauge,
                                     "cluster.busy_seconds")
        self.gap_seconds = _PerHost(self.registry.counter,
                                    "cluster.gap_seconds")
        self._gap_total = self.registry.counter("cluster.gap_seconds")

    def inc(self, field: str, amount: float = 1.0) -> None:
        self._counters[field].inc(amount)

    def add_busy(self, hosts: list[Workstation], seconds: float) -> None:
        """Charge ``seconds`` of busy time to each of ``hosts`` as
        process-seconds: one increment per host of the span times its
        resident count, not one per resident."""
        instrument = self.busy_seconds.instrument
        for host in hosts:
            instrument(host.name).inc(seconds * len(host.resident))

    def add_gap(self, idle_hosts: list[str], seconds: float) -> None:
        """Charge one scheduler-gap span to the total and each idle host."""
        self._gap_total.inc(seconds)
        for host in idle_hosts:
            self.gap_seconds.instrument(host).inc(seconds)

    def __getattr__(self, name: str) -> int:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {f: int(c.value)
                               for f, c in self._counters.items()}
        out["busy_seconds"] = dict(self.busy_seconds)
        return out

    def __repr__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ClusterStats({rendered})"


class Cluster:
    """A network of workstations with migration, eviction and re-migration."""

    def __init__(
        self,
        hosts: list[Workstation] | None = None,
        clock: VirtualClock | None = None,
        remigration: bool = True,
        gap_feedback: bool = False,
    ):
        self.clock = clock or GLOBAL_CLOCK
        self.hosts: dict[str, Workstation] = {}
        #: Name-ordered view of ``hosts``, maintained by ``add_host`` so the
        #: per-submission idle-host scan doesn't re-sort on every event.
        self._hosts_sorted: list[Workstation] = []
        #: Hosts whose owner ever comes or goes: all owner lookahead asks.
        self._owned: list[Workstation] = []
        for host in hosts or [Workstation("home")]:
            self.add_host(host)
        self.remigration = remigration
        #: History feedback into placement: when enabled, ``find_idle_host``
        #: prefers the idle host with the fewest scheduler-gap seconds
        #: (``stats.gap_seconds``: time it sat idle while another host
        #: timeshared work — on owner-prone machines that is the signature
        #: of eviction churn: the host keeps going empty and stranding its
        #: work elsewhere).  Ties, including no gap history at all, keep
        #: the plain name order.
        self.gap_feedback = gap_feedback
        self.stats = ClusterStats()
        #: pid → process.  Pids increase monotonically and entries are
        #: inserted at submission, so iteration order is pid order — views
        #: over this dict never need sorting.
        self._procs: dict[int, SimProcess] = {}
        #: Heap of ``(-priority, pid)`` for migratable processes at home,
        #: pushed at submission and eviction; entries of processes that
        #: finished or left home are skipped when popped.
        self._stranded: list[tuple[int, int]] = []
        self._pid = itertools.count(1)
        self._last_charge = self.clock.now

    # ------------------------------------------------------------------ hosts

    def add_host(self, host: Workstation) -> Workstation:
        if host.name in self.hosts:
            raise SchedulerError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._hosts_sorted.append(host)
        self._hosts_sorted.sort(key=lambda h: h.name)
        if host.schedule.next_transition(self.clock.now) is not None:
            self._owned.append(host)
        if TRACER.enabled:
            # The host inventory, with each console's state: trace replay
            # must know a host exists even if no process or owner
            # transition ever names it.
            TRACER.event("cluster.host", cat="cluster", host=host.name,
                         busy=host.is_owner_busy(self.clock.now))
        return host

    @classmethod
    def homogeneous(
        cls,
        n_hosts: int,
        clock: VirtualClock | None = None,
        owner_period: float = 0.0,
        owner_busy: float = 0.0,
        remigration: bool = True,
        gap_feedback: bool = False,
    ) -> "Cluster":
        """A home node plus ``n_hosts - 1`` colleague workstations.

        ``owner_period``/``owner_busy`` > 0 gives the colleague machines
        returning owners (staggered offsets) so evictions happen.
        """
        hosts = [Workstation("home")]
        for i in range(max(0, n_hosts - 1)):
            if owner_period > 0 and owner_busy > 0:
                schedule = OwnerSchedule(
                    period=owner_period,
                    busy=owner_busy,
                    offset=(i + 1) * owner_period / max(1, n_hosts),
                )
            else:
                schedule = OwnerSchedule()
            hosts.append(Workstation(f"ws{i + 1:02d}", schedule=schedule))
        return cls(hosts, clock=clock, remigration=remigration,
                   gap_feedback=gap_feedback)

    def find_idle_host(self) -> Workstation | None:
        """An idle host by Sprite's rule: not ``home``, no resident
        processes, owner away.  The cheap tests go first: most hosts of a
        busy cluster have work."""
        now = self.clock.now
        idle = (h for h in self._hosts_sorted if not h.resident
                and h.name != "home" and not h.is_owner_busy(now))
        if self.gap_feedback:
            gaps = self.stats.gap_seconds
            return min(idle, key=lambda h: gaps.get(h.name, 0.0), default=None)
        return next(idle, None)

    # -------------------------------------------------------------- processes

    def submit(
        self,
        label: str,
        work: float,
        payload: Any = None,
        migratable: bool = True,
        priority: int = 0,
        home: str = "home",
    ) -> SimProcess:
        """Start a process: on an idle host if the work is migratable and one
        exists, otherwise on the home node (§4.3.2)."""
        if home not in self.hosts:
            raise SchedulerError(f"unknown home host {home!r}")
        self._charge_elapsed()
        idle = self.find_idle_host() if migratable else None
        target = idle or self.hosts[home]
        migrated = idle is not None
        proc = SimProcess(pid=next(self._pid), label=label,
                          work=max(work, _EPS), home=home, host=target.name,
                          migratable=migratable, priority=priority,
                          payload=payload, started_at=self.clock.now)
        target.resident.add(proc.pid)
        self._procs[proc.pid] = proc
        self.stats.inc("submitted")
        if migrated:
            proc.migrations += 1
            self.stats.inc("migrations")
            self.stats.inc("ran_remote")
        else:
            self.stats.inc("ran_at_home")
        if migratable and proc.is_at_home:
            self._strand(proc)
        if TRACER.enabled:
            TRACER.event("cluster.submit", cat="cluster", pid=proc.pid,
                         step=label, host=target.name, migrated=migrated,
                         work=proc.work)
        return proc

    def kill(self, proc: SimProcess) -> None:
        if proc.state is not ProcessState.RUNNING:
            return
        self._charge_elapsed()
        proc.state = ProcessState.KILLED
        proc.finished_at = self.clock.now
        self.hosts[proc.host].resident.discard(proc.pid)
        del self._procs[proc.pid]
        self.stats.inc("killed")
        if TRACER.enabled:
            TRACER.event("cluster.kill", cat="cluster", pid=proc.pid,
                         step=proc.label, host=proc.host)

    def running(self) -> list[SimProcess]:
        # Insertion order is pid order (see ``_procs``): no per-call sort.
        return list(self._procs.values())

    # ------------------------------------------------------------- accounting

    def _charge_elapsed(self, now: float | None = None,
                        rates: dict[str, float] | None = None) -> None:
        """Charge compute progress (and any scheduler gap) for the span
        from the last charge to ``now`` (default: the clock's time), at
        ``rates`` if the caller already has them (see :meth:`_rates`)."""
        if now is None:
            now = self.clock.now
        span = now - self._last_charge
        if span > _EPS:
            # Timeshared rates are per *host*, not per process: each
            # occupied host's ``span * rate`` is worked out once, and busy
            # time is charged once per host (the engine's 10k-step graphs
            # make this the simulator's hottest loop).
            occupied = [host for host in self._hosts_sorted if host.resident]
            done = {name: span * rate
                    for name, rate in (rates or self._rates()).items()}
            for proc in self._procs.values():
                proc.work -= done[proc.host]
            self.stats.add_busy(occupied, span)
            # No event falls inside a span, so residency and owner state
            # hold throughout it: the same rule as trace replay's
            # ``repro.obs.analysis.scheduler_gaps``.  A gap needs a host
            # with no resident while another one timeshares.
            if len(occupied) < len(self._hosts_sorted) and any(
                    len(host.resident) > 1 for host in occupied):
                idle = [host.name for host in self._hosts_sorted
                        if not host.resident
                        and not host.is_owner_busy(self._last_charge)]
                if idle:
                    self.stats.add_gap(idle, span)
        self._last_charge = now

    def _advance_to(self, when: float, rates: dict | None = None) -> None:
        """Charge up to ``when``, move the clock there, and trace every
        console that changed hands on the way.

        Charging first means clock observers (a health monitor's throttled
        evaluation) read counters that already cover the span.  The
        ``cluster.owner`` events let trace replay tell an *available* idle
        host from one whose owner is at the keyboard, and see hosts that
        never ran a process at all.
        """
        since = self.clock.now
        self._charge_elapsed(max(when, since), rates)
        self.clock.advance_to(when)
        if TRACER.enabled:
            for host in self._hosts_sorted:
                busy = host.is_owner_busy(self.clock.now)
                if busy != host.is_owner_busy(since):
                    TRACER.event("cluster.owner", cat="cluster",
                                 host=host.name, busy=busy)

    def _rates(self) -> dict[str, float]:
        """Each occupied host's per-process rate, by host name."""
        return {h.name: h.rate() for h in self._hosts_sorted if h.resident}

    def _next_completion(self, rates: dict) -> tuple[float, SimProcess | None]:
        best_t, best_p, now = math.inf, None, self.clock.now
        # ``_procs`` iterates in pid order, so a completion within _EPS of
        # the best so far has the larger pid and never wins: the lowest pid
        # wins a tie without comparing pids.
        for proc in self._procs.values():
            t = now + proc.work / rates[proc.host]
            if t < best_t - _EPS:
                best_t, best_p = t, proc
        return best_t, best_p

    def _next_owner_transition(self) -> float:
        best = math.inf
        for host in self._owned:
            t = host.schedule.next_transition(self.clock.now)
            if t is not None and t > self.clock.now + _EPS:
                best = min(best, t)
        return best

    # ----------------------------------------------------------------- events

    def _evict(self) -> None:
        """Owner-return policy: foreign processes go back to their home node."""
        for host in self._hosts_sorted:
            if not host.resident or host.name == "home" \
                    or not host.is_owner_busy(self.clock.now):
                continue
            # Resident pids were inserted in submission (= pid) order only
            # for fresh processes; evictions/remigrations reshuffle the set,
            # so order here must come from the pids themselves — but only
            # for the (rare) owner-busy hosts that actually have residents.
            for pid in sorted(host.resident):
                proc = self._procs[pid]
                if proc.home == host.name:
                    continue
                host.resident.discard(pid)
                self.hosts[proc.home].resident.add(pid)
                proc.host = proc.home
                proc.evictions += 1
                self._strand(proc)
                self.stats.inc("evictions")
                if TRACER.enabled:
                    TRACER.event("cluster.evict", cat="cluster", pid=pid,
                                 step=proc.label, host=host.name,
                                 to=proc.home)

    def _strand(self, proc: SimProcess) -> None:
        """Queue ``proc``, now at home, for re-migration."""
        if len(self._stranded) > 2 * len(self._procs):   # drop finished ones
            self._stranded = sorted(e for e in self._stranded
                                    if e[1] in self._procs)   # still a heap
        heapq.heappush(self._stranded, (-proc.priority, proc.pid))

    def remigrate(self) -> int:
        """Move stranded migratable processes from home to idle hosts
        (§4.3.3), highest priority (then lowest pid) first, while an idle
        host remains.  Only homes timesharing two or more processes when
        the pass starts strand work.  Returns how many were moved."""
        self._charge_elapsed()
        idle = self.find_idle_host()
        if idle is None or not self._stranded:
            return 0
        # Each home's load before any move, read when first needed: a move
        # only empties its home and fills an idle host (home to none here).
        loads: dict[str, int] = {}
        moved, skipped = 0, []
        while idle is not None and self._stranded:
            entry = heapq.heappop(self._stranded)
            proc = self._procs.get(entry[1])
            if proc is None or not proc.is_at_home:
                continue
            if loads.setdefault(proc.home, self.hosts[proc.home].load()) < 2:
                skipped.append(entry)
                continue
            source = proc.host
            self.hosts[proc.host].resident.discard(proc.pid)
            idle.resident.add(proc.pid)
            proc.host = idle.name
            proc.migrations += 1
            moved += 1
            self.stats.inc("remigrations")
            if TRACER.enabled:
                TRACER.event("cluster.remigrate", cat="cluster", pid=proc.pid,
                             step=proc.label, host=source, to=idle.name)
            idle = self.find_idle_host()
        for entry in skipped:
            heapq.heappush(self._stranded, entry)
        return moved

    def _owner_transition(self, when: float) -> None:
        """Advance to an owner arrival/departure: evict, then re-migrate."""
        self._advance_to(when)
        self._evict()
        if self.remigration:
            self.remigrate()

    def step(self) -> list[SimProcess]:
        """Advance simulated time to the next event; return any completions.

        The next event is whichever comes first: a process finishing or an
        owner arriving/leaving.  Owner transitions trigger eviction and (if
        enabled) re-migration, then return an empty completion list.
        """
        if not self._procs:
            raise SchedulerError("no running processes to wait for")
        rates = self._rates()         # residency holds until the completion
        t_done, proc = self._next_completion(rates)
        t_owner = self._next_owner_transition()
        if t_owner < t_done - _EPS:
            self._owner_transition(t_owner)
            return []
        assert proc is not None
        self._advance_to(t_done, rates)
        # The numeric corner (nothing done) forces the chosen one through.
        done = [p for p in self._procs.values() if p.work <= _DONE] or [proc]
        now = self.clock.now
        for finished in done:
            finished.state = ProcessState.DONE
            finished.finished_at = now
            self.hosts[finished.host].resident.discard(finished.pid)
            del self._procs[finished.pid]
            self.stats.inc("completed")
        if TRACER.enabled:
            for finished in done:
                TRACER.event("cluster.complete", cat="cluster",
                             pid=finished.pid, step=finished.label,
                             host=finished.host,
                             elapsed=self.clock.now - finished.started_at)
        if self.remigration:
            self.remigrate()
        return done

    def wait_any(self) -> list[SimProcess]:
        """Advance until at least one process completes."""
        while True:
            done = self.step()
            if done:
                return done

    def drain(self) -> list[SimProcess]:
        """Run everything to completion; return processes in finish order."""
        finished: list[SimProcess] = []
        while self._procs:
            finished.extend(self.wait_any())
        return finished

    def run_until(self, when: float) -> list[SimProcess]:
        """Advance the simulation to absolute virtual time ``when``.

        A bounded :meth:`drain`: every completion and owner transition on
        the way is processed, and if no event lands exactly at ``when``
        the clock still advances there (compute progress charged at the
        rates in force).  Lets monitors and SLO engines sample a run at a
        fixed cadence — ``cluster.run_until(clock.now + 5)`` in a loop
        produces one clock advance (and thus one throttled health
        evaluation) per five virtual seconds, regardless of how sparse
        the simulation's own events are.
        """
        finished: list[SimProcess] = []
        while self.clock.now < when - _EPS:
            t_done, _ = self._next_completion(self._rates())
            t_next = min(t_done, self._next_owner_transition())
            if t_next <= when + _EPS:
                if self._procs:
                    finished.extend(self.step())
                else:
                    self._owner_transition(t_next)
                continue
            self._advance_to(when)
        return finished
