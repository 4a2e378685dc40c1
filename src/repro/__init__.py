"""Papyrus: a history-based VLSI design process management system.

Reproduction of Tzi-cker Chiueh's Berkeley dissertation (1992).  The public
API centers on :class:`Papyrus`, a convenience bundle that wires together the
whole stack — the versioned design database, the synthetic CAD tool suite,
the workstation-cluster substrate, the LWT model (threads / SDS), the task
and activity managers, and the metadata-inference engine.

Quickstart::

    from repro import Papyrus

    papyrus = Papyrus.standard(hosts=4)
    designer = papyrus.open_thread("adder-work")
    designer.invoke(
        "Structure_Synthesis",
        {"Incell": "adder.spec", "Musa_Command": "musa.cmd"},
        {"Outcell": "adder.layout", "Cell_Statistics": "adder.stats"},
    )
"""

from __future__ import annotations

from repro.activity.manager import ActivityManager
from repro.activity.reclamation import Reclaimer
from repro.cad.registry import ToolRegistry, default_registry
from repro.clock import VirtualClock
from repro.core.lwt import LWTSystem
from repro.core.thread import DesignThread
from repro.metadata.inference import MetadataInferenceEngine
from repro.sprite.cluster import Cluster
from repro.taskmgr.manager import TaskManager
from repro.tdl.template import TemplateLibrary
from repro.workloads.designs import seed_designs
from repro.workloads.templates import standard_library

__version__ = "1.0.0"

__all__ = [
    "ActivityManager",
    "Cluster",
    "DesignThread",
    "LWTSystem",
    "MetadataInferenceEngine",
    "Papyrus",
    "Reclaimer",
    "TaskManager",
    "TemplateLibrary",
    "ToolRegistry",
    "VirtualClock",
    "__version__",
]


class Papyrus:
    """One fully wired Papyrus installation."""

    def __init__(
        self,
        lwt: LWTSystem,
        taskmgr: TaskManager,
        clock: VirtualClock,
        inference: MetadataInferenceEngine | None = None,
    ):
        self.lwt = lwt
        self.db = lwt.db
        self.taskmgr = taskmgr
        self.clock = clock
        self.inference = inference or MetadataInferenceEngine(lwt.db)
        self.activities: dict[str, ActivityManager] = {}

    @classmethod
    def standard(
        cls,
        hosts: int = 4,
        seed: bool = True,
        owner_period: float = 0.0,
        owner_busy: float = 0.0,
        library: TemplateLibrary | None = None,
    ) -> "Papyrus":
        """A standard installation: N-host cluster, full tool suite, the
        thesis's task-template library, and (optionally) the seed designs."""
        clock = VirtualClock()
        lwt = LWTSystem(clock=clock)
        if seed:
            seed_designs(lwt.db)
        cluster = Cluster.homogeneous(
            hosts, clock=clock,
            owner_period=owner_period, owner_busy=owner_busy,
        )
        taskmgr = TaskManager(
            lwt.db,
            default_registry(),
            library or standard_library(),
            cluster=cluster,
            clock=clock,
        )
        return cls(lwt=lwt, taskmgr=taskmgr, clock=clock)

    def open_thread(self, name: str, owner: str = "") -> ActivityManager:
        """Create a design thread and its activity manager."""
        thread = self.lwt.create_thread(name, owner=owner)
        manager = ActivityManager(thread, self.taskmgr)
        self.activities[name] = manager
        return manager

    def reclaimer(self, thread_name: str, **kwargs) -> Reclaimer:
        return Reclaimer(self.lwt.thread(thread_name), **kwargs)

    def observe_history(self, manager: ActivityManager | None = None) -> None:
        """Feed committed history to the inference engine, incrementally.
        Every thread is synced, not only ``manager``'s: cascade and join
        share records, and a record leaves the ADG once no thread holds it."""
        self.inference.sync(self.lwt.threads)
