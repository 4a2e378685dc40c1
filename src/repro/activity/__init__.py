"""The Activity Manager (thesis Ch. 5).

The activity manager owns a design thread: it resolves task argument names in
the current data scope, spawns task-manager instances, attaches committed
history records at the right design points (tracking in-flight invocation
paths), maintains the graphical view of the control stream (headless
:class:`Viewport` with the lazy pan/zoom compression algorithm), offers
time/annotation random access, and runs the storage reclaimer.
"""

from repro.activity.manager import ActivityManager, PendingInvocation
from repro.activity.viewport import Viewport, grid_layout, render_stream
from repro.activity.reclamation import Reclaimer, ReclamationReport

__all__ = [
    "ActivityManager",
    "PendingInvocation",
    "ReclamationReport",
    "Reclaimer",
    "Viewport",
    "grid_layout",
    "render_stream",
]
