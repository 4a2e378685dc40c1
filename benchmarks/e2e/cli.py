"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1|DIR`` runs one
workload in this process and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer metrics
when traced.  Without ``--workload`` (or with ``--runs N``) every workload
runs in its own fresh subprocess, one after another, and the command exits
non-zero on any wrong output.  ``compare A B`` judges two result files
written with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import ROOT
from benchmarks.e2e.layers import Tracer
from benchmarks.e2e.workloads import WORKLOADS, Measurement, Sample, measure

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
EXPECTED = HERE / "expected.json"
#: Scratch space inside the checkout (persistence directories, traces).
SCRATCH = ROOT / ".bench_e2e"
#: A child run that takes longer than this is killed and counted wrong.
CHILD_TIMEOUT_S = 175


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------------ metrics


#: What the probe reads on the reference machine (2-vCPU Xeon KVM guest,
#: CPython 3.11) while no other tenant is busy.  Times are reported at
#: that speed.
REFERENCE_PROBE_S = 150e-6
#: A sample is scaled by the median of this many probes around it: about
#: 0.2-1 s of a run, shorter than a burst of other tenants' load, long
#: enough to smooth one probe's jitter.
PROBE_WINDOW = 101


def at_reference_speed(samples: list[Sample]) -> list[Sample]:
    """The samples with their seconds scaled to the reference speed.

    The reference machine is shared.  Other tenants slow everything it
    runs, in bursts of seconds and in spells of minutes, by up to 1.8x.
    That is more than the bound on any timing metric, and a whole run can
    fall inside one slow spell, so no choice among a run's samples removes
    it.  A probe (see ``workloads.probe``) ran just before each sample,
    and it slows with the machine.  Each sample's seconds are multiplied by
    :data:`REFERENCE_PROBE_S` over the median probe near it.  A change
    to the program moves its samples, not the probes."""
    probes = [s.probe for s in samples]
    half = PROBE_WINDOW // 2
    scaled = []
    for i, sample in enumerate(samples):
        near = statistics.median(probes[max(0, i - half):i + half + 1])
        scaled.append(sample._replace(
            seconds=sample.seconds * REFERENCE_PROBE_S / near))
    return scaled


def end_to_end(m: Measurement) -> dict[str, float]:
    """The untraced run's end-to-end metrics, at the reference speed (see
    README for each)."""
    samples = at_reference_speed(m.samples)
    rate = sum(s.work for s in samples) / sum(s.seconds for s in samples)
    populations = sorted({s.population for s in samples} - {None})

    def percentile_ms(q: int) -> float:
        # Per population (bigdag has one per DAG shape), then averaged.
        return statistics.fmean(
            statistics.quantiles([s.seconds / s.work * 1000.0
                                  for s in samples
                                  if s.population == population],
                                 n=100, method="inclusive")[q - 1]
            for population in populations)

    # Each set-up is scaled by the mean of the probes just before and
    # just after it.
    setups = [seconds * REFERENCE_PROBE_S / ((before + after) / 2)
              for seconds, before, after
              in zip(m.setup_s, m.setup_probes, m.setup_probes[1:])]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate,
        "op_ms.p50": percentile_ms(50),
        "op_ms.p90": percentile_ms(90),
        "peak_rss_mb": m.peak_rss_mb,
    }


def per_layer(plain: Measurement, traced: Measurement,
              tracer: Tracer) -> dict[str, float]:
    """Per-layer split of the traced run, plus the ratios the layers'
    counters give (0 where a workload never exercises the layer)."""
    out = tracer.layer_metrics()
    out["trace_overhead_frac"] = tracer.op_wall / plain.busy_s - 1.0
    c = traced.counters
    p = traced.persist
    out["core.memo.hit_ratio"] = _ratio(
        c["memo.hits"], c["memo.hits"] + c["memo.misses"])
    out["core.datascope.cache_hit_ratio"] = _ratio(
        c["datascope.cache_hits"],
        c["datascope.cache_hits"] + c["datascope.cache_misses"])
    out["taskmgr.wake_checks_per_step"] = _ratio(
        c["engine.wake_checks"], c["engine.steps_issued"])
    out["octdb.chunkstore.dedup_ratio"] = _ratio(
        c["persist.chunks_deduped"],
        c["persist.chunks_written"] + c["persist.chunks_deduped"])
    out["activity.persistence.fsyncs_per_save"] = _ratio(
        tracer.fsyncs, p.get("saves", 0))
    out["activity.persistence.bytes_per_save"] = _ratio(
        p.get("save_bytes", 0), p.get("saves", 0))
    out["activity.persistence.lazy_decode_frac"] = _ratio(
        p.get("lazy_decodes", 0), p.get("restored_versions", 0))
    out["activity.persistence.store_bytes_per_version"] = \
        p.get("store_bytes_per_version", 0.0)
    return out


def check_outputs(runs: list[Measurement], seconds: float) -> list[str]:
    """Everything that makes a run's outputs wrong, as messages.  At the
    seed and length ``expected.json`` was recorded for, the outputs digest
    must match it."""
    problems: list[str] = []
    expected = json.loads(EXPECTED.read_text())
    pinned = (expected["seed"], expected["seconds"])
    for m in runs:
        problems += m.problems
        if len(set(m.state_digests)) != 1:
            problems.append("set-up is not deterministic: "
                            f"{len(set(m.state_digests))} different states")
        want = expected["outputs_digest"].get(m.workload)
        if (m.seed, seconds) == pinned and m.outputs_digest != want:
            problems.append(f"outputs_digest {m.outputs_digest} != "
                            f"expected.json {want}")
    if len({m.outputs_digest for m in runs}) > 1:
        problems.append("traced and untraced runs committed different "
                        "records")
    return problems


# --------------------------------------------------------------- one run


def _trace_dir(value: str) -> Path | None:
    if value == "0":
        return None
    if value == "1":
        return SCRATCH / "trace"
    return Path(value)


def run_one(args, spec: dict) -> int:
    """Run one workload in this process and print its result line."""
    cls = WORKLOADS[args.workload]
    trace_dir = _trace_dir(args.trace)
    workdir = SCRATCH / f"{cls.name}-{os.getpid()}"
    try:
        if trace_dir is None:
            m = measure(cls, args.seed, args.seconds, workdir)
            runs = [m]
            values = end_to_end(m)
            declared = spec["end_to_end"]
        else:
            plain = measure(cls, args.seed, args.seconds, workdir, setups=1)
            tracer = Tracer()
            m = measure(cls, args.seed, args.seconds, workdir, setups=1,
                        tracer=tracer)
            runs = [plain, m]
            values = per_layer(plain, m, tracer)
            declared = spec["per_layer"]
            spans = tracer.write(
                trace_dir / f"{cls.name}.spans.jsonl",
                {"workload": cls.name, "seed": args.seed, "ops": m.ops})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {row["name"]: row["unit"] for row in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "differ from BENCHMARK.json")
    problems = check_outputs(runs, args.seconds)
    kinds = ", ".join(f"{k} {n} in {s:.2f} s"
                      for k, (n, s) in m.kinds().items())
    populations = [s.population for s in m.samples]
    latency = ", ".join(f"{p} {populations.count(p)}"
                        for p in sorted(set(populations) - {None}))
    print(f"{cls.name}  seed {args.seed}  {m.ops} ops in {m.elapsed_s:.2f} s"
          f" ({kinds}), {m.failed} failed, persistence under {SCRATCH}")
    print(f"  {len(m.samples)} samples; latency samples: {latency}; "
          f"set-up runs: {len(m.setup_s)}")
    if trace_dir is None:
        probes = [s.probe for s in m.samples]
        print(f"  probe median {statistics.median(probes) * 1e6:.0f} us, "
              f"reference {REFERENCE_PROBE_S * 1e6:.0f} us; metrics are at "
              "the reference speed")
    print(f"  outputs_digest {m.outputs_digest}  "
          + ("WRONG OUTPUTS" if problems else "outputs correct"))
    for problem in problems[:10]:
        print(f"  ! {problem}")
    if trace_dir is not None:
        print(f"  {spans} spans -> {trace_dir / (cls.name + '.spans.jsonl')}")
    for row in declared:
        print(f"  {row['name']:<48} {values[row['name']]:>14.6g} "
              f"{row['unit']}")
    result = {
        "correct": not problems,
        "attempted": m.ops,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": cls.name, "seed": args.seed,
                                 "trace": trace_dir is not None,
                                 "outputs_digest": m.outputs_digest,
                                 **result}) + "\n")
    print(json.dumps(result))
    return 0


# -------------------------------------------------------------- all runs


def run_all(args, spec: dict) -> int:
    """Run each workload (``--runs`` times, seed, seed+1, ...) in its own
    subprocess with ``PYTHONHASHSEED`` pinned; non-zero on any problem."""
    names = [args.workload] if args.workload else \
        [row["name"] for row in spec["workloads"]]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    bad = 0
    for r in range(args.runs):
        for name in names:
            command = [sys.executable, str(RUN_PY), "--workload", name,
                       "--seed", str(args.seed + r),
                       "--seconds", str(args.seconds), "--trace", args.trace]
            if args.out:
                command += ["--out", str(args.out.resolve())]
            try:
                child = subprocess.run(command, env=env, cwd=ROOT, text=True,
                                       stdout=subprocess.PIPE,
                                       timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{name}: no result within {CHILD_TIMEOUT_S} s")
                bad += 1
                continue
            lines = child.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name}: exited {child.returncode} without a result")
                bad += 1
                continue
            if child.returncode or not result["correct"] or result["failed"]:
                bad += 1
    print("all outputs correct" if not bad else f"{bad} run(s) wrong")
    return 1 if bad else 0


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Run the repository benchmark (see "
                    "benchmarks/e2e/README.md); `compare A B` judges two "
                    "result files.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", default="0",
                        help="0 = untraced end-to-end metrics; 1 or DIR = "
                             "per-layer metrics, spans written to DIR "
                             f"(1: {SCRATCH / 'trace'})")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds seed, seed+1, ... "
                             "(each run in its own subprocess)")
    parser.add_argument("--out", type=Path,
                        help="append each result as a JSON line here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare

        return compare(argv[1:])
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload and args.runs == 1:
        return run_one(args, spec)
    return run_all(args, spec)
