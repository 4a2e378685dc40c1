"""The headless display model (§5.2).

Two pieces survive the Tk-ectomy intact:

* **grid layout** — each history record is assigned a square grid cell by a
  topological, level-by-level placement.  The activity manager places a
  record once, when it commits, at a cost independent of history length:
  a cell is assigned once and never reused, and items already placed never
  move.  The per-point level memo follows the ``scope_epoch`` contract
  (see :class:`GridPlacement`);
* **lazy pan/zoom compression** — the Tcl/Tk canvas of the era could not
  report item coordinates, so the activity manager tracked them itself and,
  to avoid retraversing every item per pan/zoom, *compressed* the pending
  transform sequence: consecutive translations add, magnifications multiply,
  and translations separated by magnifications merge once normalized by the
  inverse of the accumulated magnification.  The compressed transform is
  applied only when new records are added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.control_stream import INITIAL_POINT, ControlStream

Point = tuple[float, float]


@dataclass(frozen=True)
class PanZoomOp:
    """One user gesture: a translation or a magnification."""

    kind: str                  # "pan" or "zoom"
    dx: float = 0.0
    dy: float = 0.0
    factor: float = 1.0

    @classmethod
    def pan(cls, dx: float, dy: float) -> "PanZoomOp":
        return cls(kind="pan", dx=dx, dy=dy)

    @classmethod
    def zoom(cls, factor: float) -> "PanZoomOp":
        if factor <= 0:
            raise ValueError("zoom factor must be positive")
        return cls(kind="zoom", factor=factor)

    def apply(self, point: Point) -> Point:
        if self.kind == "pan":
            return (point[0] + self.dx, point[1] + self.dy)
        return (point[0] * self.factor, point[1] * self.factor)


def compress(ops: list[PanZoomOp]) -> tuple[Point, float]:
    """Compress a pan/zoom sequence into one (translation, magnification).

    The thesis's three observations:

    1. consecutive translations add, consecutive magnifications multiply;
    2. magnifications separated by translations still multiply;
    3. translations separated by magnifications add after being normalized by
       the inverse of the accumulated magnification factor.

    Applying the result as ``(p + T) * M`` equals applying the ops in order.
    """
    tx = ty = 0.0
    magnification = 1.0
    for op in ops:
        if op.kind == "zoom":
            magnification *= op.factor
        else:
            tx += op.dx / magnification
            ty += op.dy / magnification
    return (tx, ty), magnification


def apply_sequence(ops: list[PanZoomOp], point: Point) -> Point:
    for op in ops:
        point = op.apply(point)
    return point


class Viewport:
    """Tracked item coordinates under lazy transform compression."""

    def __init__(self):
        self._items: dict[int, Point] = {}     # point -> committed coords
        self._pending: list[PanZoomOp] = []
        #: Instrumentation: how many item-coordinate updates were performed.
        self.updates = 0

    def __len__(self) -> int:
        return len(self._items)

    # -- gestures (cheap: just logged)

    def pan(self, dx: float, dy: float) -> None:
        self._pending.append(PanZoomOp.pan(dx, dy))

    def zoom(self, factor: float) -> None:
        self._pending.append(PanZoomOp.zoom(factor))

    # -- insertions (the expensive moment: flush the compressed transform)

    def flush(self) -> None:
        """Apply the compressed pending transform to every item."""
        if not self._pending:
            return
        (tx, ty), magnification = compress(self._pending)
        self._pending.clear()
        for key, (x, y) in self._items.items():
            self._items[key] = ((x + tx) * magnification,
                                (y + ty) * magnification)
            self.updates += 1

    def add_item(self, point: int, coords: Point) -> None:
        """Insert a new record's oval block at its grid coordinates."""
        self.flush()
        self._items[point] = coords
        self.updates += 1

    def remove_item(self, point: int) -> None:
        self._items.pop(point, None)

    def coords(self, point: int) -> Point:
        """Current display coordinates (pending gestures applied)."""
        (tx, ty), magnification = compress(self._pending)
        x, y = self._items[point]
        return ((x + tx) * magnification, (y + ty) * magnification)


class EagerViewport(Viewport):
    """The naive strategy: every gesture retraverses all items (the baseline
    the thesis's optimization is measured against)."""

    def pan(self, dx: float, dy: float) -> None:
        for key, point in self._items.items():
            self._items[key] = PanZoomOp.pan(dx, dy).apply(point)
            self.updates += 1

    def zoom(self, factor: float) -> None:
        for key, point in self._items.items():
            self._items[key] = PanZoomOp.zoom(factor).apply(point)
            self.updates += 1

    def add_item(self, point: int, coords: Point) -> None:
        self._items[point] = coords
        self.updates += 1

    def coords(self, point: int) -> Point:
        return self._items[point]


# ------------------------------------------------------------------- layout

GRID = 16  # pixels per grid cell


class GridPlacement:
    """The grid placement rule, applied one point at a time.

    Column = the point's level, the longest path from the root over
    ``parents``; row = ``max(preferred row, next free row at that level)``.
    The next free row of a level only grows, so a cell, once assigned, is
    never assigned again: not after its point is erased, nor after a splice
    changes the levels of points already placed.

    Levels are memoized per point.  The memo follows the ``scope_epoch``
    contract: every mutation that can change an existing point's level
    (splice, erase, ``splice_out``, ``replace_region``) bumps it, and the
    memo is dropped; ``append``, ``add_junction`` and ``graft`` never do.
    So placing a record appended below a placed parent costs O(1) in the
    length of the history.
    """

    def __init__(self, stream: ControlStream):
        self.stream = stream
        #: Row of every placed point.
        self.rows: dict[int, int] = {}
        self._next_row: dict[int, int] = {}
        self._levels: dict[int, int] = {INITIAL_POINT: 0}
        self._levels_epoch = stream.scope_epoch

    def level(self, point: int) -> int:
        if self.stream.scope_epoch != self._levels_epoch:
            self._levels = {INITIAL_POINT: 0}
            self._levels_epoch = self.stream.scope_epoch
        levels = self._levels
        # Iterative: control streams can be thousands of records deep.
        stack = [point]
        while stack:
            current = stack[-1]
            if current in levels:
                stack.pop()
                continue
            parents = self.stream.node(current).parents
            missing = [p for p in parents if p not in levels]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            levels[current] = 1 + max((levels[p] for p in parents),
                                      default=0)
        return levels[point]

    def place(self, point: int, preferred_row: int = 0) -> Point:
        """Assign ``point`` its cell; returns the cell's coordinates."""
        level = self.level(point)
        row = max(preferred_row, self._next_row.get(level, 0))
        self.rows[point] = row
        self._next_row[level] = row + 1
        return (level * GRID, row * GRID)


def grid_layout(stream: ControlStream) -> dict[int, Point]:
    """Every point's cell, by :class:`GridPlacement` applied in DFS preorder
    from the root, children in ascending order, each child preferring the
    row of the point it was reached from (so sibling branches stay apart).
    """
    placement = GridPlacement(stream)
    cells: dict[int, Point] = {}
    # Iterative DFS: control streams can be thousands of records deep.
    stack: list[tuple[int, int]] = [(INITIAL_POINT, 0)]
    while stack:
        point, preferred_row = stack.pop()
        if point in cells:
            continue
        cells[point] = placement.place(point, preferred_row)
        row = placement.rows[point]
        for child in sorted(stream.node(point).children, reverse=True):
            stack.append((child, row))
    return {point: cells[point] for point in stream.points()}


def render_stream(
    stream: ControlStream,
    cursor: int | None = None,
    annotations: bool = True,
) -> str:
    """ASCII rendering of a control stream (the examples' display surface)."""
    lines: list[str] = []

    def label(point: int) -> str:
        node = stream.node(point)
        if point == INITIAL_POINT:
            text = "(initial)"
        elif node.is_junction:
            text = "(join)"
        else:
            text = f"{node.record.task}"
            if annotations and node.record.annotation:
                text += f'  "{node.record.annotation}"'
        mark = "  <= cursor" if point == cursor else ""
        return f"[{point}] {text}{mark}"

    emitted: set[int] = set()
    stack: list[tuple[int, int]] = [(INITIAL_POINT, 0)]
    while stack:
        point, depth = stack.pop()
        if point in emitted:
            continue
        emitted.add(point)
        lines.append("    " * depth + label(point))
        for child in sorted(stream.node(point).children, reverse=True):
            stack.append((child, depth + 1))
    return "\n".join(lines)
