"""Tests of the benchmark itself, at reduced sizes: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import ROOT, use_checkout_sources

use_checkout_sources()

from benchmarks.e2e import cli, compare, layers  # noqa: E402
from benchmarks.e2e.layers import Tracer, installed_wrappers  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Sample, measure  # noqa: E402

SMALL = {
    "bigdag": {"deep": (2, 40), "wide": (12, 6)},
    "design_session": {"block": 12},
    "rework_replay": {"history": 60},
    "checkpoint_restore": {"bases": 40, "versions": 4, "pool": 30,
                           "saves": 8},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {row["name"] for row in SPEC[kind]}


def small_run(name, tmp_path, **kwargs):
    return measure(WORKLOADS[name], seed=3, seconds=0.5,
                   workdir=tmp_path / name, setups=2, sizes=SMALL[name],
                   **kwargs)


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {row["name"] for row in SPEC["workloads"]}
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_deterministic(name, tmp_path):
    first = small_run(name, tmp_path)
    second = small_run(name, tmp_path)
    assert first.failed == 0 and first.problems == []
    assert cli.check_outputs([first], 0.5) == []
    assert first.outputs_digest and \
        first.outputs_digest == second.outputs_digest
    assert set(cli.end_to_end(first)) == names("end_to_end")
    assert all(value > 0 for value in cli.end_to_end(first).values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_split_adds_up_and_unwinds(name, tmp_path):
    plain = small_run(name, tmp_path)
    tracer = Tracer()
    traced = small_run(name, tmp_path, tracer=tracer)
    assert installed_wrappers() == []
    assert traced.failed == 0 and traced.problems == []
    assert traced.outputs_digest == plain.outputs_digest
    metrics = cli.per_layer(plain, traced, tracer)
    assert set(metrics) == names("per_layer")
    # Layer self times plus the unattributed remainder are the op wall.
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 {n.rsplit(".", 1)[0] for n in metrics if
                  n.endswith(".self_s")})
    total = layers + metrics["unattributed.share"] * tracer.op_wall
    assert total == pytest.approx(tracer.op_wall, rel=0.01)
    spans = tracer.write(tmp_path / "spans.jsonl", {"workload": name})
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == spans + 1 and spans == len(tracer.start)


def test_wrappers_removed_when_an_op_raises(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            with tracer.root("invoke", 0):
                raise RuntimeError("boom")
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []


def test_wrappers_removed_when_a_target_is_missing(monkeypatch):
    # The missing target comes last, so every other one is wrapped first.
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        ("core.memo", "repro.core.memo", "DerivationCache",
         ("no_such_method",)),))
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    assert installed_wrappers() == []


def test_samples_scale_to_the_reference_speed():
    # A machine at half speed; one probe hit by a hiccup does not count,
    # because each sample is scaled by the median probe around it.
    probes = [2 * cli.REFERENCE_PROBE_S] * 5
    probes[2] *= 10
    samples = [Sample("op", "op", 2, 0.004, p) for p in probes]
    scaled = cli.at_reference_speed(samples)
    assert [s.seconds for s in scaled] == pytest.approx([0.002] * 5)
    assert [s.work for s in scaled] == [2] * 5


def test_compare_verdicts():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}
    same = dict(parent)
    slower = {seed: value * 0.8 for seed, value in parent.items()}
    faster = {seed: value * 1.3 for seed, value in parent.items()}
    noisy = {seed: 100.0 + 40 * (seed % 2) for seed in range(10)}
    assert compare.verdict(parent, same, "higher", 0.1) == "within"
    assert compare.verdict(parent, slower, "higher", 0.1) == "worse"
    assert compare.verdict(parent, faster, "higher", 0.1) == "better"
    assert compare.verdict(noisy, same, "higher", 0.1) == "unresolved"
    assert compare.verdict(parent, slower, "lower", None) == "better"


def test_compare_refuses_a_repeated_seed(tmp_path):
    row = {"workload": "bigdag", "seed": 4,
           "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}
    results = tmp_path / "A.jsonl"
    results.write_text(json.dumps(row) + "\n")
    assert compare.load(results) == {("bigdag", "setup_s"): {4: 0.2}}
    results.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="seed 4"):
        compare.load(results)
    assert compare.main([str(results), str(results)]) == 2
