"""The cluster simulator.

A work-remaining discrete-event model: on every event (submission,
completion, owner transition) the simulator charges elapsed compute to every
running process at its host's timeshared rate, then recomputes the next event
time.  This keeps the model exact under arbitrary load changes without
fixed-step ticking.

Each host keeps its residents ordered by work left (``Workstation.resident``),
so the next event and the processes that finished are read from the list
fronts; only the charge itself touches every process.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Callable, Iterator

from repro.clock import GLOBAL_CLOCK, VirtualClock
from repro.errors import SchedulerError
from repro.obs import TRACER
from repro.obs.metrics import MetricsRegistry
from repro.sprite.host import OwnerSchedule, Workstation
from repro.sprite.process import ProcessState, SimProcess

_EPS = 1e-9
_DONE = _EPS * 10           # work left at which a process counts as finished
_WORK = attrgetter("work")
_PID = attrgetter("pid")


class _Handles(dict):
    """Host name -> ``NAME{host=...}`` instrument, made on the host's first
    charge: a host never charged has none (health rules skip it)."""

    def __init__(self, make: Callable[..., Any], name: str):
        super().__init__()
        self._make = make                   # registry.gauge / .counter
        self._name = name

    def __missing__(self, host: str):
        instrument = self[host] = self._make(self._name, host=host)
        return instrument


class _PerHost(Mapping):
    """Dict-facing view over one ``NAME{host=...}`` instrument per host.

    Keeps the ``stats.busy_seconds[host]`` / ``stats.gap_seconds[host]``
    read API while the storage lives in the metrics registry; the cluster
    charges through :attr:`handles`.
    """

    def __init__(self, make: Callable[..., Any], name: str):
        self.handles = _Handles(make, name)

    def __getitem__(self, host: str) -> float:
        instrument = self.handles.get(host)     # never makes one
        if instrument is None:
            raise KeyError(host)
        return instrument.value

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.handles))

    def __len__(self) -> int:
        return len(self.handles)

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
    With tracing on, the cluster also emits each span as one ``cluster.gap``
    event, so a trace's gap events sum to these counters.
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

    def add_gap(self, idle_hosts: list[str], seconds: float) -> None:
        """Charge one scheduler-gap span to the total and each idle host."""
        self._gap_total.inc(seconds)
        gaps = self.gap_seconds.handles
        for host in idle_hosts:
            gaps[host].inc(seconds)

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
        #: How many hosts have no resident, kept by every placement: with
        #: none, there is no idle host and no scheduler gap to look for.
        self._empty = 0
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
        # The counters' handles, resolved once (in ``FIELDS`` order).
        (self._submitted, self._completed, self._killed, self._migrations,
         self._evictions, self._remigrations, self._ran_at_home,
         self._ran_remote) = self.stats._counters.values()
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
        self._empty += not host.resident
        if host.schedule.next_transition(self.clock.now) is not None:
            self._owned.append(host)
        if TRACER.enabled:
            # The host inventory, with each console's state: the Gantt
            # timeline shows a host even if no process ever runs there.
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
        if not self._empty:
            return None
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
        self._place(proc, target)
        self._procs[proc.pid] = proc
        self._submitted.inc()
        if migrated:
            proc.migrations += 1
            self._migrations.inc()
            self._ran_remote.inc()
        else:
            self._ran_at_home.inc()
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
        self._unplace(proc, self.hosts[proc.host])
        del self._procs[proc.pid]
        self._killed.inc()
        if TRACER.enabled:
            TRACER.event("cluster.kill", cat="cluster", pid=proc.pid,
                         step=proc.label, host=proc.host)

    def running(self) -> list[SimProcess]:
        # Insertion order is pid order (see ``_procs``): no per-call sort.
        return list(self._procs.values())

    def _place(self, proc: SimProcess, host: Workstation) -> None:
        if not host.resident:
            self._empty -= 1
        host.admit(proc)
        proc.host = host.name

    def _unplace(self, proc: SimProcess, host: Workstation) -> None:
        host.release(proc)
        if not host.resident:
            self._empty += 1

    # ------------------------------------------------------------- accounting

    def _charge_elapsed(self, now: float | None = None) -> None:
        """Charge compute progress (and any scheduler gap) for the span
        from the last charge to ``now`` (default: the clock's time)."""
        if now is None:
            now = self.clock.now
        span = now - self._last_charge
        if span > _EPS:
            # Timeshared rates are per *host*, not per process: each
            # occupied host's ``span * rate`` is worked out once, and busy
            # time is charged once per host as process-seconds.  This
            # subtraction is the one loop over every process an event makes.
            busy = self.stats.busy_seconds.handles
            crowded = False
            for host in self._hosts_sorted:
                resident = host.resident
                if resident:
                    n = len(resident)
                    done = span * (host.speed / n)
                    for proc in resident:
                        proc.work -= done
                    busy[host.name].inc(span * n)
                    crowded = crowded or n > 1
            # No event falls inside a span, so residency and owner state
            # hold throughout it.  A gap needs a host with no resident and
            # no owner at its console while another one timeshares.
            if crowded and self._empty:
                idle = [host.name for host in self._hosts_sorted
                        if not host.resident
                        and not host.is_owner_busy(self._last_charge)]
                if idle:
                    self.stats.add_gap(idle, span)
                    if TRACER.enabled:
                        TRACER.event("cluster.gap", cat="cluster",
                                     start=float(self._last_charge),
                                     dur=float(span), hosts=idle)
        self._last_charge = now

    def _advance_to(self, when: float) -> None:
        """Charge up to ``when``, then move the clock there.

        Charging first means clock observers (a health monitor's throttled
        evaluation) read counters that already cover the span.
        """
        self._charge_elapsed(max(when, self.clock.now))
        self.clock.advance_to(when)

    def _next_completion(self) -> tuple[float, SimProcess | None]:
        """The next completion by one rule: let ``m`` be the earliest
        finish time; of the processes finishing within ``_EPS`` of ``m``,
        the lowest pid is the event, at its own finish time.

        A host's finish times rise along its work-ordered residents, so
        ``m`` is among the fronts and the ``_EPS`` window is a prefix of
        each list.  The window test, ``t - _EPS <= m``, is the pid-order
        scan's test for keeping a lower pid (``not t_later < t - _EPS``),
        so two near-tied processes resolve exactly as that scan did.
        """
        now = self.clock.now
        fronts = []
        m = math.inf
        for host in self._hosts_sorted:
            resident = host.resident
            if resident:
                rate = host.speed / len(resident)
                t = now + resident[0].work / rate
                fronts.append((t, rate, resident))
                if t < m:
                    m = t
        best_t, best_p = math.inf, None
        for t, rate, resident in fronts:
            if t - _EPS > m:
                continue
            for proc in resident:
                t = now + proc.work / rate
                if t - _EPS > m:
                    break
                if best_p is None or proc.pid < best_p.pid:
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
            # Residents are in work order; evictions go in pid order, but
            # only the (rare) owner-busy hosts with residents sort.
            for proc in sorted(host.resident, key=_PID):
                if proc.home == host.name:
                    continue
                self._unplace(proc, host)
                self._place(proc, self.hosts[proc.home])
                proc.evictions += 1
                self._strand(proc)
                self._evictions.inc()
                if TRACER.enabled:
                    TRACER.event("cluster.evict", cat="cluster", pid=proc.pid,
                                 step=proc.label, host=host.name,
                                 to=proc.home)

    def _strand(self, proc: SimProcess) -> None:
        """Queue ``proc``, now at home, for re-migration."""
        if len(self._stranded) > 2 * len(self._procs):   # drop finished ones
            self._stranded = sorted(e for e in self._stranded
                                    if e[1] in self._procs)   # still a heap
        heapq.heappush(self._stranded, (-proc.priority, proc.pid))

    def _remigrate(self) -> None:
        """Move stranded migratable processes from home to idle hosts
        (§4.3.3), highest priority (then lowest pid) first, while an idle
        host remains.  Only homes timesharing two or more processes when
        the pass starts strand work.

        Runs only right after ``_advance_to`` has charged up to the clock's
        time, so it charges nothing itself."""
        idle = self.find_idle_host()
        if idle is None or not self._stranded:
            return
        # Each home's load before any move, read when first needed: a move
        # only empties its home and fills an idle host (home to none here).
        loads: dict[str, int] = {}
        skipped = []
        while idle is not None and self._stranded:
            entry = heapq.heappop(self._stranded)
            proc = self._procs.get(entry[1])
            if proc is None or not proc.is_at_home:
                continue
            if loads.setdefault(proc.home, self.hosts[proc.home].load()) < 2:
                skipped.append(entry)
                continue
            source = proc.host
            self._unplace(proc, self.hosts[source])
            self._place(proc, idle)
            proc.migrations += 1
            self._remigrations.inc()
            if TRACER.enabled:
                TRACER.event("cluster.remigrate", cat="cluster", pid=proc.pid,
                             step=proc.label, host=source, to=idle.name)
            idle = self.find_idle_host()
        for entry in skipped:
            heapq.heappush(self._stranded, entry)

    def _owner_transition(self, when: float) -> None:
        """Advance to an owner arrival/departure: evict, then re-migrate."""
        self._advance_to(when)
        self._evict()
        if self.remigration:
            self._remigrate()

    def step(self) -> list[SimProcess]:
        """Advance simulated time to the next event; return any completions.

        The next event is whichever comes first: a process finishing or an
        owner arriving/leaving.  Owner transitions trigger eviction and (if
        enabled) re-migration, then return an empty completion list.
        """
        if not self._procs:
            raise SchedulerError("no running processes to wait for")
        t_done, proc = self._next_completion()
        t_owner = self._next_owner_transition()
        if t_owner < t_done - _EPS:
            self._owner_transition(t_owner)
            return []
        assert proc is not None
        self._advance_to(t_done)
        # What finished is each host's prefix within ``_DONE``.
        done: list[SimProcess] = []
        for host in self._hosts_sorted:
            resident = host.resident
            if resident and resident[0].work <= _DONE:
                k = bisect_right(resident, _DONE, key=_WORK)
                done += resident[:k]
                del resident[:k]
                self._empty += not resident
        if not done:    # the numeric corner forces the chosen one through
            self._unplace(proc, self.hosts[proc.host])
            done = [proc]
        done.sort(key=_PID)
        now = self.clock.now
        for finished in done:
            finished.state = ProcessState.DONE
            finished.finished_at = now
            del self._procs[finished.pid]
        self._completed.inc(len(done))
        if TRACER.enabled:
            for finished in done:
                TRACER.event("cluster.complete", cat="cluster",
                             pid=finished.pid, step=finished.label,
                             host=finished.host,
                             elapsed=self.clock.now - finished.started_at)
        if self.remigration:
            self._remigrate()
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
            t_done, _ = self._next_completion()
            t_next = min(t_done, self._next_owner_transition())
            if t_next <= when + _EPS:
                if self._procs:
                    finished.extend(self.step())
                else:
                    self._owner_transition(t_next)
                continue
            self._advance_to(when)
        return finished
