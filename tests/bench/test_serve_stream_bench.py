"""Smoke tests of the ``serve --stream`` steady-state harness."""

import json

import pytest

from repro.bench.serve_bench import (
    merge_perf_json,
    run_stream_bench,
    serve_main,
    stream_perf_entries,
    verify_stream_report,
)
from repro.errors import SchedulingError


def test_run_stream_bench_verifies_and_reports():
    report, wall = run_stream_bench(
        600, arrival_rate=250.0, devices=2, max_queue_depth=32,
        slo_wait_seconds=2.0, compact_every=32,
    )
    assert wall > 0
    assert report.arrivals == 600
    assert report.completed + report.shed_count == 600
    assert report.compactions > 0
    assert report.peak_retained_tasks <= (
        report.peak_inflight_tasks + 32 * report.max_tasks_per_query
    )


def test_stream_perf_entries_schema():
    report, wall = run_stream_bench(
        300, arrival_rate=250.0, max_queue_depth=16, compact_every=16
    )
    entries = stream_perf_entries(report, wall, arrivals=300, devices=1)
    expected = {
        "serve_stream_wall[300x1]",
        "serve_stream_sustained_qps[300x1]",
        "serve_stream_p50_latency[300x1]",
        "serve_stream_p99_latency[300x1]",
        "serve_stream_shed_rate[300x1]",
        "serve_stream_queue_p50[300x1]",
        "serve_stream_queue_p99[300x1]",
    }
    assert set(entries) == expected
    for name, entry in entries.items():
        assert entry.n >= 1, name
        assert entry.wall_seconds >= 0, name
    qps = entries["serve_stream_sustained_qps[300x1]"]
    assert qps.ops_per_sec == pytest.approx(report.sustained_qps)


def test_merge_perf_json_preserves_existing_records(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(
        '{"estimate_warm": {"wall_seconds": 1.0, "ops_per_sec": 1.0, "n": 5}}\n'
    )
    report, wall = run_stream_bench(
        200, arrival_rate=250.0, max_queue_depth=16, compact_every=16
    )
    merge_perf_json(
        stream_perf_entries(report, wall, arrivals=200, devices=1), str(out)
    )
    payload = json.loads(out.read_text())
    assert payload["estimate_warm"]["n"] == 5  # untouched
    assert "serve_stream_wall[200x1]" in payload
    for name, record in payload.items():
        assert set(record) == {"wall_seconds", "ops_per_sec", "n"}, name


def test_verify_stream_report_catches_lost_arrivals():
    report, _ = run_stream_bench(
        100, arrival_rate=250.0, max_queue_depth=16, compact_every=16
    )
    report.arrivals += 1
    with pytest.raises(SchedulingError, match="lost arrivals"):
        verify_stream_report(report, compact_every=16)


def test_verify_stream_report_catches_unbounded_retention():
    report, _ = run_stream_bench(
        100, arrival_rate=250.0, max_queue_depth=16, compact_every=16
    )
    report.peak_retained_tasks = 10**9
    with pytest.raises(SchedulingError, match="not bounded"):
        verify_stream_report(report, compact_every=16)


def test_serve_main_stream_cli(tmp_path, capsys):
    out = str(tmp_path / "perf.json")
    code = serve_main(
        ["--stream", "--arrivals", "400", "--devices", "2",
         "--arrival-rate", "250", "--max-queue", "32", "--slo", "2.0",
         "--compact-every", "32", "--out", out]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "verified" in captured
    assert "serve_stream_*" in captured
    payload = json.loads(open(out).read())
    assert "serve_stream_wall[400x2]" in payload

    # Sanity bounds fail loudly.
    assert serve_main(
        ["--stream", "--arrivals", "100", "--max-wall", "0.0", "--out", "-"]
    ) == 1
    assert "FAIL" in capsys.readouterr().out
    assert serve_main(
        ["--stream", "--arrivals", "400", "--arrival-rate", "300",
         "--max-queue", "8", "--max-shed-rate", "0.0", "--out", "-"]
    ) == 1
    assert "FAIL" in capsys.readouterr().out


def test_serve_main_stream_excludes_sweep_flags(capsys):
    with pytest.raises(SystemExit):
        serve_main(["--stream", "--clients", "4"])


@pytest.mark.parametrize(
    "flag,value",
    [("--arrival-rate", "nan"), ("--scale", "nan"),
     ("--deadline-scale", "inf"), ("--scale", "0")],
)
def test_serve_main_rejects_bad_workload_knobs(flag, value, capsys):
    with pytest.raises(SystemExit):
        serve_main(["--stream", "--arrivals", "200", flag, value,
                    "--out", "-"])
    assert f"argument {flag}: must be a finite number above 0, got " \
        f"'{value}'" in capsys.readouterr().err
