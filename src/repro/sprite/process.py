"""Simulated processes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class ProcessState(enum.Enum):
    RUNNING = "running"
    DONE = "done"
    KILLED = "killed"


@dataclass(slots=True)
class SimProcess:
    """One unit of work (a CAD tool invocation) under simulation."""

    pid: int
    label: str
    work: float                     # unit-speed compute seconds remaining
    home: str                       # home host name
    host: str                       # current host name
    migratable: bool = True
    priority: int = 0               # higher = re-migrated first
    payload: Any = None             # opaque handle for the task manager
    state: ProcessState = ProcessState.RUNNING
    started_at: float = 0.0
    finished_at: float | None = None
    migrations: int = 0
    evictions: int = 0

    @property
    def is_at_home(self) -> bool:
        return self.host == self.home
