"""Virtual clock shared by all Papyrus subsystems.

The thesis timestamps history records, drives hour-resolution random access,
and ages objects for reclamation.  Real wall-clock time would make every test
and benchmark nondeterministic, so all subsystems read time from a
:class:`VirtualClock` that only advances when told to.  The cluster simulator
advances it as simulated tool executions complete; scenario drivers advance it
explicitly (e.g. "two days pass" before aging kicks in).
"""

from __future__ import annotations

from typing import Callable

#: An advance observer: called as ``callback(old_time, new_time)`` after the
#: clock has moved (only when it actually moved forward).
AdvanceCallback = Callable[[float, float], None]


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    Time is a float number of simulated seconds since an arbitrary epoch.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Observability hooks fired after every effective advance.  The
        #: tracer subscribes here (``Tracer.observe_clock``); tests use it to
        #: check that clock motion interleaves correctly with span
        #: timestamps.  Kept a plain list so the no-observer case costs one
        #: truthiness check.
        self.on_advance: list[AdvanceCallback] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _notify_advance(self, old: float) -> None:
        for callback in self.on_advance:
            callback(old, self._now)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot move time backwards ({seconds})")
        old = self._now
        self._now += seconds
        if self.on_advance and self._now > old:
            self._notify_advance(old)
        return self._now

    def every(self, interval: float,
              callback: Callable[[float], None]) -> AdvanceCallback:
        """Call ``callback(now)`` at most once per ``interval`` of advance.

        A throttle, not a strict cadence: the callback fires on the first
        advance at or past the due time, then re-arms ``interval`` from
        *that* moment — one large jump produces one call, not a backlog.
        Returns the registered observer so callers can unsubscribe with
        ``clock.on_advance.remove(observer)`` — or call the observer's
        ``.cancel()`` attribute, which is idempotent (detaching monitors
        and consoles must be safe to do twice).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive ({interval})")
        due = self._now + interval

        def _observer(old: float, new: float) -> None:
            nonlocal due
            if new >= due:
                due = new + interval
                callback(new)

        def _cancel() -> bool:
            try:
                self.on_advance.remove(_observer)
                return True
            except ValueError:
                return False

        _observer.cancel = _cancel  # type: ignore[attr-defined]
        self.on_advance.append(_observer)
        return _observer

    def advance_to(self, when: float) -> float:
        """Move the clock forward to absolute time ``when`` (no-op if past)."""
        if when > self._now:
            old = self._now
            self._now = when
            if self.on_advance:
                self._notify_advance(old)
        return self._now


#: Default clock used when a subsystem is constructed without an explicit one.
#: Tests that need isolation construct their own VirtualClock.
GLOBAL_CLOCK = VirtualClock()
