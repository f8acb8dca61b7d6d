"""Smoke tests of the tracked perf benchmark suite."""

import json
import re

from repro.bench.perf_bench import (
    bench_engine,
    perf_main,
    render,
    run_perf,
    write_json,
)


def test_engine_benchmark_reports_throughput():
    entries = bench_engine(quick=True)
    entry = entries["engine_tasks_per_sec"]
    assert entry.n > 0
    assert entry.ops_per_sec > 0
    assert entry.wall_seconds > 0


def test_run_perf_schema_and_render(tmp_path):
    entries = run_perf(quick=True)
    expected = {"estimate_warm", "fig12_cell_estimate", "engine_tasks_per_sec"}
    assert expected <= set(entries)
    assert any(name.startswith("estimate_cold[") for name in entries)
    assert any(name.startswith("serve_wall[") for name in entries)
    table = render(entries)
    assert "fig12_cell_estimate" in table

    out = tmp_path / "BENCH_perf.json"
    write_json(entries, str(out))
    payload = json.loads(out.read_text())
    for name, record in payload.items():
        assert set(record) == {"wall_seconds", "ops_per_sec", "n"}, name
        assert record["n"] >= 1


def test_perf_main_ceiling(tmp_path, capsys):
    out = str(tmp_path / "perf.json")
    # A generous ceiling passes (the fast path is ~100x under it)...
    assert perf_main(["--quick", "--out", out, "--ceiling", "30"]) == 0
    # ...and an absurd one fails loudly.
    assert perf_main(["--quick", "--out", "-", "--ceiling", "1e-9"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL" in captured
    # The co-processing facts memo is accounted next to the other caches.
    assert re.search(r"facts \d+/\d+/\d+ \(\d+ facts entries", captured)
