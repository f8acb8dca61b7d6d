"""Metric names and the BENCHMARK.json declaration."""

import json
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER, valid_name, valid_unit
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "name",
    ["wall_s", "serve.scheduler.ingest_gap_us.p99", "core.execute.gpu_resident.s", "9lives", "a-b_c.d"],
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name",
    ["", "_wall", ".s", "-x", "wall s", "wall/s", "caché", "x" * 65, "a:b"],
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_every_emitted_metric_has_a_valid_name_and_unit():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert valid_name(name), name
        assert valid_unit(unit), (name, unit)
    assert not set(END_TO_END) & set(PER_LAYER)


def test_declaration_matches_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_declaration_respects_its_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perfbench"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in DECLARED["end_to_end"])
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
