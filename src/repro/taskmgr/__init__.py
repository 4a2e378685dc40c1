"""The Task Manager (thesis Ch. 4).

One :class:`TaskManager` plays the role of the forked task-manager process:
it interprets a task template with the TDL interpreter, extracts process-level
parallelism dynamically (out-of-order issue and completion over the Active /
Suspending / Result lists: the first two views of the live step nodes'
states, the last the outputs of the settled steps' records, for a step's
node goes once its record exists), dispatches steps across the simulated
workstation network, enforces programmable abort semantics, and packages
the committed task's operation history into a
:class:`repro.core.history.HistoryRecord`.
"""

from repro.taskmgr.attrdb import AttributeDatabase
from repro.taskmgr.manager import TaskManager

__all__ = ["AttributeDatabase", "TaskManager"]
