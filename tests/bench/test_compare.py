"""Snapshot/compare regression tool."""

import json

import pytest

from repro.bench import compare as compare_mod
from repro.bench.figures import fig07
from repro.errors import InvalidConfigError

FIGS = {"fig07": fig07}
SCALE = 0.002


def test_snapshot_roundtrip_is_clean(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    assert compare_mod.compare(path, figures=FIGS) == []


def test_compare_detects_moved_points(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    series = payload["figures"]["fig07"]["Aggregation"]
    series[0][1] *= 2.0  # corrupt one stored point
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert len(deviations) == 1
    assert deviations[0].series == "Aggregation"


def test_compare_detects_run_fail_flips(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    payload["figures"]["fig07"]["Materialization"][2][1] = None
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert any(d.reference is None for d in deviations)


def test_compare_reports_figure_missing_from_snapshot(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    fresh = payload["figures"].pop("fig07")
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert len(deviations) == sum(len(points) for points in fresh.values())
    assert {d.figure for d in deviations} == {"fig07"}
    assert all(d.reference is None for d in deviations)


def test_compare_reports_series_only_in_fresh_run(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    fresh = payload["figures"]["fig07"].pop("Aggregation")
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert [(d.series, d.x, d.reference, d.measured) for d in deviations] == [
        ("Aggregation", x, None, y) for x, y in fresh
    ]


def test_compare_reports_x_only_in_fresh_run(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    x, y = payload["figures"]["fig07"]["Aggregation"].pop(0)
    path.write_text(json.dumps(payload))
    deviations = compare_mod.compare(path, figures=FIGS)
    assert [(d.series, d.x, d.reference, d.measured) for d in deviations] == [
        ("Aggregation", x, None, y)
    ]


def test_compare_respects_tolerance(tmp_path):
    path = tmp_path / "ref.json"
    compare_mod.snapshot(path, scale=SCALE, figures=FIGS)
    payload = json.loads(path.read_text())
    payload["figures"]["fig07"]["Aggregation"][0][1] *= 1.03  # 3% drift
    path.write_text(json.dumps(payload))
    assert compare_mod.compare(path, tolerance=0.05, figures=FIGS) == []
    assert compare_mod.compare(path, tolerance=0.01, figures=FIGS)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"version": 99, "figures": {}}))
    with pytest.raises(InvalidConfigError):
        compare_mod.compare(path, figures=FIGS)


def test_cli_snapshot_and_compare(tmp_path, capsys):
    from repro.bench.cli import main

    path = tmp_path / "ref.json"
    # Full CLI runs all figures; keep the scale tiny.
    assert main(["--snapshot", str(path), "--scale", "0.001"]) == 0
    assert main(["--compare", str(path), "--scale", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "0 deviation(s)" in out
