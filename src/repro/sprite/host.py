"""Workstations and their owners.

A host is *idle* — and therefore eligible to accept migrated processes — only
when its owner has not touched mouse or keyboard for a while (Sprite's rule,
thesis §4.3.3).  Owner behaviour is a deterministic periodic schedule so every
simulation is reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter

from repro.sprite.process import SimProcess

_WORK = attrgetter("work")


@dataclass(frozen=True)
class OwnerSchedule:
    """Deterministic periodic owner-activity pattern.

    The owner is at the machine during ``[k*period + offset, k*period +
    offset + busy)`` for every integer ``k >= 0``.  ``busy == 0`` means the
    owner never returns (a compute server); ``busy == period`` means the
    machine is never idle.
    """

    period: float = 3600.0
    busy: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.busy <= self.period:
            raise ValueError("busy span must lie within the period")

    def is_busy(self, t: float) -> bool:
        if self.busy == 0:
            return False
        if self.busy == self.period:
            return True
        phase = (t - self.offset) % self.period
        return 0 <= phase < self.busy if t >= self.offset else False

    def next_transition(self, t: float) -> float | None:
        """The next time the owner arrives or leaves (None if never)."""
        if self.busy == 0 or self.busy == self.period:
            return None
        if t < self.offset:
            return self.offset
        phase = (t - self.offset) % self.period
        cycle_start = t - phase
        if phase < self.busy:
            return cycle_start + self.busy        # owner leaves
        return cycle_start + self.period           # owner returns


@dataclass
class Workstation:
    """One node of the network."""

    name: str
    speed: float = 1.0
    schedule: OwnerSchedule = field(default_factory=OwnerSchedule)
    #: Processes currently resident (foreign + local), least work left
    #: first.  The cluster charges every resident of a host the same amount
    #: per span, and rounding is monotone, so the order survives a charge:
    #: the list is never re-sorted, only bisected on ``work``.
    resident: list[SimProcess] = field(default_factory=list)

    def is_owner_busy(self, t: float) -> bool:
        return self.schedule.is_busy(t)

    def admit(self, proc: SimProcess) -> None:
        insort(self.resident, proc, key=_WORK)

    def release(self, proc: SimProcess) -> None:
        resident = self.resident
        i = bisect_left(resident, proc.work, key=_WORK)
        while resident[i] is not proc:      # past residents of equal work
            i += 1
        del resident[i]

    def load(self) -> int:
        return len(self.resident)
