"""``python -m benchmarks.e2e compare A.jsonl B.jsonl``

Reads two result files written with ``--out`` (N runs each; A is the
parent, B the change) and prints, for every metric × workload, each side's
median and quartiles and a verdict, following the choosing-metrics rules:

* ``better``     — B wins at least 9 in 10 of the runs paired by seed
  (ties count for neither, at least 10 pairs) and the medians differ by
  more than A's interquartile distance;
* ``unresolved`` — a side's spread (IQR ÷ median) exceeds the bound, so
  "no worse" cannot be shown — unless every B run beats every A run;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``within``     — otherwise.  Per-layer metrics carry no bound and are
  listed for information only.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.e2e import ROOT

MIN_PAIRS = 10
PAIR_WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) → seed → value.  A file holding two runs of one
    seed is refused: pairing by seed would silently keep only one."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        for name, metric in row["metrics"].items():
            runs = table.setdefault((row["workload"], name), {})
            if row["seed"] in runs:
                raise ValueError(
                    f"{path}:{number}: a second {row['workload']} run of "
                    f"seed {row['seed']} ({name}); write each set of runs "
                    "to its own file")
            runs[row["seed"]] = metric["value"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: dict[int, float], b: dict[int, float], better: str,
            bound: float | None) -> str:
    """Judge B against A for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    a_vals, b_vals = list(a.values()), list(b.values())
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= PAIR_WIN_SHARE * len(pairs)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "better"
    if bound is None:
        return "info"
    if max(spread(a_vals), spread(b_vals)) > bound:
        if min(sign * y for y in b_vals) > max(sign * x for x in a_vals):
            return "better"
        return "unresolved"
    worse_by = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    return "worse" if worse_by > bound else "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.jsonl B.jsonl")
        return 2
    try:
        a_table, b_table = load(Path(argv[0])), load(Path(argv[1]))
    except ValueError as exc:
        print(f"compare: {exc}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {row["name"]: row for row in
                spec["end_to_end"] + spec["per_layer"]}
    workloads = [row["name"] for row in spec["workloads"]]
    print(f"{'workload':<19} {'metric':<44} {'runs A/B, pairs':>15} "
          f"{'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'change':>8}  verdict")
    worse = 0
    for workload in workloads:
        for name, row in declared.items():
            a, b = a_table.get((workload, name)), b_table.get((workload, name))
            if not a or not b:
                continue
            result = verdict(a, b, row["better"], row.get("bound"))
            worse += result == "worse"
            a_q1, a_med, a_q3 = quartiles(list(a.values()))
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            change = (b_med - a_med) / abs(a_med) * 100 if a_med else 0.0
            counts = f"{len(a)}/{len(b)}, {len(a.keys() & b.keys())}"
            print(f"{workload:<19} {name:<44} {counts:>15} "
                  f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':>30} "
                  f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
                  f"{change:>+7.1f}%  {result}"
                  + (f" (bound {row['bound']:.0%}, spread A "
                     f"{spread(list(a.values())):.1%} B "
                     f"{spread(list(b.values())):.1%})"
                     if "bound" in row else ""))
    return 1 if worse else 0
