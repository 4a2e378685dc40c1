"""The cluster simulator.

A work-remaining discrete-event model: on every event (submission,
completion, owner transition) the simulator charges elapsed compute to every
running process at its host's timeshared rate, then recomputes the next event
time.  This keeps the model exact under arbitrary load changes without
fixed-step ticking.
"""

from __future__ import annotations

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


class _PerHost(Mapping):
    """Dict-facing view over one ``NAME{host=...}`` instrument per host.

    Keeps the ``stats.busy_seconds[host]`` / ``stats.gap_seconds[host]``
    read API while the storage lives in the metrics registry.
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
        self._counters = {
            name: self.registry.counter(f"cluster.{name}")
            for name in self.FIELDS
        }
        self.busy_seconds = _PerHost(self.registry.gauge,
                                     "cluster.busy_seconds")
        self.gap_seconds = _PerHost(self.registry.counter,
                                    "cluster.gap_seconds")
        self._gap_total = self.registry.counter("cluster.gap_seconds")

    def inc(self, field: str, amount: float = 1.0) -> None:
        self._counters[field].inc(amount)

    def add_busy(self, host: str, seconds: float) -> None:
        """Accumulate busy time for ``host`` (hot path: cached gauge)."""
        self.busy_seconds.instrument(host).inc(seconds)

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
        self._pid = itertools.count(1)
        self._last_charge = self.clock.now

    # ------------------------------------------------------------------ hosts

    def add_host(self, host: Workstation) -> Workstation:
        if host.name in self.hosts:
            raise SchedulerError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._hosts_sorted.append(host)
        self._hosts_sorted.sort(key=lambda h: h.name)
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

    def is_idle(self, host: Workstation) -> bool:
        """Sprite's idleness rule: owner away and no resident processes."""
        if host.name == "home":
            return False
        return not host.is_owner_busy(self.clock.now) and host.load() == 0

    def find_idle_host(self) -> Workstation | None:
        if self.gap_feedback:
            gaps = self.stats.gap_seconds
            return min((h for h in self._hosts_sorted if self.is_idle(h)),
                       key=lambda h: gaps.get(h.name, 0.0), default=None)
        for host in self._hosts_sorted:
            if self.is_idle(host):
                return host
        return None

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
        target = self.hosts[home]
        migrated = False
        if migratable:
            idle = self.find_idle_host()
            if idle is not None:
                target = idle
                migrated = True
        proc = SimProcess(
            pid=next(self._pid),
            label=label,
            work=max(work, _EPS),
            home=home,
            host=target.name,
            migratable=migratable,
            priority=priority,
            payload=payload,
            started_at=self.clock.now,
        )
        target.resident.add(proc.pid)
        self._procs[proc.pid] = proc
        self.stats.inc("submitted")
        if migrated:
            proc.migrations += 1
            self.stats.inc("migrations")
            self.stats.inc("ran_remote")
        else:
            self.stats.inc("ran_at_home")
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

    def _charge_elapsed(self, now: float | None = None) -> None:
        """Charge compute progress (and any scheduler gap) for the span
        from the last charge to ``now`` (default: the clock's time)."""
        if now is None:
            now = self.clock.now
        span = now - self._last_charge
        if span > _EPS:
            # Timeshared rates are per *host*, not per process: resolve each
            # host's rate once per charge instead of once per resident (the
            # engine's 10k-step graphs make this loop the simulator's
            # hottest line).
            rates: dict[str, float] = {}
            for proc in self._procs.values():
                rate = rates.get(proc.host)
                if rate is None:
                    rate = self.hosts[proc.host].rate()
                    rates[proc.host] = rate
                proc.work -= span * rate
                self.stats.add_busy(proc.host, span)
            # No event falls inside a span, so residency and owner state
            # hold throughout it: the same rule as trace replay's
            # ``repro.obs.analysis.scheduler_gaps``.  ``rates`` holds every
            # host with a resident, so a gap needs a host outside it.
            if len(rates) < len(self._hosts_sorted) and any(
                    len(self.hosts[name].resident) > 1 for name in rates):
                idle = [host.name for host in self._hosts_sorted
                        if not host.resident
                        and not host.is_owner_busy(self._last_charge)]
                if idle:
                    self.stats.add_gap(idle, span)
        self._last_charge = now

    def _advance_to(self, when: float) -> None:
        """Charge up to ``when``, move the clock there, and trace every
        console that changed hands on the way.

        Charging first means clock observers (a health monitor's throttled
        evaluation) read counters that already cover the span.  The
        ``cluster.owner`` events let trace replay tell an *available* idle
        host from one whose owner is at the keyboard, and see hosts that
        never ran a process at all.
        """
        since = self.clock.now
        self._charge_elapsed(max(when, since))
        self.clock.advance_to(when)
        if TRACER.enabled:
            for host in self._hosts_sorted:
                busy = host.is_owner_busy(self.clock.now)
                if busy != host.is_owner_busy(since):
                    TRACER.event("cluster.owner", cat="cluster",
                                 host=host.name, busy=busy)

    def _next_completion(self) -> tuple[float, SimProcess | None]:
        best_t, best_p = math.inf, None
        rates: dict[str, float] = {}
        for proc in self._procs.values():
            rate = rates.get(proc.host)
            if rate is None:
                rate = self.hosts[proc.host].rate()
                rates[proc.host] = rate
            t = self.clock.now + proc.work / rate
            if t < best_t - _EPS or (
                abs(t - best_t) <= _EPS
                and (best_p is None or proc.pid < best_p.pid)
            ):
                best_t, best_p = t, proc
        return best_t, best_p

    def _next_owner_transition(self) -> float:
        best = math.inf
        for host in self.hosts.values():
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
                self.stats.inc("evictions")
                if TRACER.enabled:
                    TRACER.event("cluster.evict", cat="cluster", pid=pid,
                                 step=proc.label, host=host.name,
                                 to=proc.home)

    def remigrate(self) -> int:
        """Move stranded migratable processes from home to idle hosts
        (§4.3.3).  Returns how many were moved."""
        self._charge_elapsed()
        moved = 0
        stranded = sorted(
            (p for p in self._procs.values()
             if p.is_at_home and p.migratable
             and self.hosts[p.home].load() > 1),
            key=lambda p: (-p.priority, p.pid),
        )
        for proc in stranded:
            idle = self.find_idle_host()
            if idle is None:
                break
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
        t_done, proc = self._next_completion()
        t_owner = self._next_owner_transition()
        if t_owner < t_done - _EPS:
            self._owner_transition(t_owner)
            return []
        assert proc is not None
        self._advance_to(t_done)
        done: list[SimProcess] = []
        for candidate in list(self._procs.values()):
            if candidate.work <= _EPS * 10:
                candidate.state = ProcessState.DONE
                candidate.finished_at = self.clock.now
                self.hosts[candidate.host].resident.discard(candidate.pid)
                del self._procs[candidate.pid]
                self.stats.inc("completed")
                done.append(candidate)
        if not done:  # numeric corner: force the chosen one through
            proc.state = ProcessState.DONE
            proc.finished_at = self.clock.now
            self.hosts[proc.host].resident.discard(proc.pid)
            del self._procs[proc.pid]
            self.stats.inc("completed")
            done.append(proc)
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
