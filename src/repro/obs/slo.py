"""``repro.obs.slo`` — ``papyrus top``, the text operational console.

:class:`TopView` + :func:`render_top` draw one frame — health status, SLO
budget bars, per-host busy and gap seconds, memo hit-rate — from one
source: a metrics snapshot mapping (``{"name{labels}": value}``).  The
shell's ``top`` builds it from its health monitor's registries
(:meth:`~repro.obs.health.HealthMonitor.snapshot`), and ``top FILE`` from
a saved metrics or ``BENCH_*.json`` snapshot (:func:`read_snapshot`), so
the two frames are the same for the same numbers.  Host rows come from the
cluster's ``cluster.busy_seconds``/``cluster.gap_seconds`` counters.
Everything rendered derives from virtual-clock quantities, so two runs of
the same seed produce byte-identical consoles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.health import HealthError, _parse_ref

__all__ = ["TopView", "read_snapshot", "render_top"]


# -------------------------------------------------------------- the console


_BAR_WIDTH = 18


def _bar(fraction: float | None, width: int = _BAR_WIDTH) -> str:
    """A ``[####......]`` gauge; clamped to [0, 1], ``?`` fill when None."""
    if fraction is None:
        return "[" + "?" * width + "]"
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return "[" + "#" * filled + "." * (width - filled) + "]"


@dataclass
class TopView:
    """Everything one console frame renders."""

    status: str = "ok"
    #: SLO rows: {name, budget, burns: {window label: rate}}.
    slos: list[dict[str, Any]] = field(default_factory=list)
    #: Host rows: {host, busy_seconds, gap_seconds}.
    hosts: list[dict[str, Any]] = field(default_factory=list)
    #: memo hit/miss counts (None = the memo layer never ran).
    memo: dict[str, float] | None = None

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "TopView":
        """One frame from a metrics snapshot.  Labels are parsed exactly,
        so ``slo=gap`` never picks up ``slo=gap_long``'s burn rates.  A host
        without a gap counter never sat idle through a gap."""
        view = cls()
        slos: dict[str, dict[str, Any]] = {}
        hosts: dict[str, dict[str, Any]] = {}
        for key, value in snapshot.items():
            if not isinstance(value, (int, float)):
                continue                    # histograms
            name, labels = _parse_ref(key)
            if name == "health.status":
                view.status = {1: "warn", 2: "crit"}.get(int(value), "ok")
            elif name in ("slo.budget_remaining", "slo.burn_rate") \
                    and "slo" in labels:
                row = slos.setdefault(labels["slo"], {
                    "name": labels["slo"], "budget": None, "burns": {}})
                if name == "slo.burn_rate":
                    row["burns"][labels.get("window", "?")] = float(value)
                else:
                    row["budget"] = float(value)
            elif name in ("cluster.busy_seconds", "cluster.gap_seconds") \
                    and "host" in labels:
                row = hosts.setdefault(labels["host"], {
                    "host": labels["host"], "busy_seconds": 0.0,
                    "gap_seconds": 0.0})
                row[name[len("cluster."):]] = float(value)
        view.slos = [slos[name] for name in sorted(slos)]
        view.hosts = [hosts[host] for host in sorted(hosts)]
        hits, misses = snapshot.get("memo.hits"), snapshot.get("memo.misses")
        if isinstance(hits, (int, float)) or isinstance(misses, (int, float)):
            view.memo = {"hits": float(hits or 0.0),
                         "misses": float(misses or 0.0)}
        return view


def read_snapshot(path: str) -> dict[str, Any]:
    """A metrics snapshot from a file: a bare ``{"name{labels}": value}``
    mapping, or a ``BENCH_*.json`` whose ``metrics`` block is one."""
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if not isinstance(snapshot, dict):
        raise HealthError(f"{path}: not a JSON object")
    if isinstance(snapshot.get("metrics"), dict):
        return snapshot["metrics"]
    return snapshot


def render_top(view: TopView) -> list[str]:
    """Render one console frame as plain text (deterministic: everything
    shown is a virtual-clock quantity or a count)."""
    lines = [f"papyrus top — health: {view.status.upper()}", "",
             "slo error budgets:"]
    if view.slos:
        for row in view.slos:
            budget = row["budget"]
            budget_text = ("    n/a" if budget is None
                           else f"{max(0.0, min(1.0, budget)):7.1%}")
            burn_text = "  ".join(
                f"burn[{label}]={rate:.2f}x"
                for label, rate in sorted(row["burns"].items())) \
                or "burn: n/a"
            lines.append(f"  {row['name']:<22} {_bar(budget)} {budget_text}"
                         f"  {burn_text}")
    else:
        lines.append("  (no objectives configured)")
    lines.append("")
    if view.hosts:
        lines.append("hosts:")
        for row in view.hosts:
            lines.append(f"  {row['host']:<8} busy={row['busy_seconds']:.1f}s"
                         f"  gap={row['gap_seconds']:.1f}s")
        lines.append("")
    if view.memo is not None:
        hits, misses = view.memo["hits"], view.memo["misses"]
        rate = (f"{hits / (hits + misses):.1%}" if hits + misses > 0
                else "n/a")
        lines.append(f"memo: hits={hits:.0f} misses={misses:.0f} "
                     f"hit-rate={rate}")
    return lines
