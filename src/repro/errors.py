"""Exception hierarchy for the Papyrus reproduction.

Every subsystem raises a subclass of :class:`PapyrusError` so that callers can
distinguish design-management failures from programming errors.
"""

from __future__ import annotations


class PapyrusError(Exception):
    """Base class for all errors raised by this library."""


class ObjectNameError(PapyrusError):
    """Malformed ``cell:view:facet@version`` object name."""


class ObjectNotFound(PapyrusError):
    """Referenced object (or object version) does not exist."""


class VersionConflict(PapyrusError):
    """Attempt to violate single-assignment update semantics."""


class VisibilityError(PapyrusError):
    """Access to an object that is not visible from the current context."""


class ToolError(PapyrusError):
    """A CAD tool invocation failed (non-zero exit status)."""

    def __init__(self, tool: str, message: str, status: int = 1):
        super().__init__(f"{tool}: {message}")
        self.tool = tool
        self.status = status


class ToolUsageError(ToolError):
    """A CAD tool was invoked with bad options or incompatible inputs."""


class TdlError(PapyrusError):
    """Error raised while parsing or interpreting TDL/Tcl source."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TdlBreak(Exception):
    """Internal control-flow signal for the ``break`` command."""


class TdlContinue(Exception):
    """Internal control-flow signal for the ``continue`` command."""


class TdlReturn(Exception):
    """Internal control-flow signal for the ``return`` command."""

    def __init__(self, value: str = ""):
        super().__init__(value)
        self.value = value


class TaskAborted(PapyrusError):
    """A design task was aborted and could not be resumed."""

    def __init__(self, task: str, step: str | None = None, reason: str = ""):
        detail = f"task {task!r} aborted"
        if step:
            detail += f" at step {step!r}"
        if reason:
            detail += f": {reason}"
        super().__init__(detail)
        self.task = task
        self.step = step
        self.reason = reason


class TemplateError(PapyrusError):
    """A task template is malformed (bad subtask arity, unknown resumed step...)."""


class ThreadError(PapyrusError):
    """Illegal design-thread manipulation (bad connector point, merge...)."""


class SdsError(PapyrusError):
    """Illegal synchronization-data-space operation (unregistered thread...)."""


class SchedulerError(PapyrusError):
    """The cluster simulator was asked to do something impossible."""


class MetadataError(PapyrusError):
    """Metadata inference failure (unknown tool TSD, bad attribute spec...)."""


class PersistenceError(PapyrusError):
    """A saved session is inconsistent (dangling alias, missing chunk...)."""


class RestartSignal(BaseException):
    """Internal control flow: restart task interpretation after an abort.

    Derives from BaseException so that a template-level ``catch`` cannot
    swallow it; only the task manager's body loop handles it.
    """

    def __init__(self, prefix: tuple[int, ...], index: int):
        super().__init__(f"restart at {prefix}+{index}")
        self.prefix = prefix
        self.index = index
