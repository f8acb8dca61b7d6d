"""The benchmark's correctness checks reject corrupted outputs."""

import copy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks
from perfbench.workloads import CRASH_WINDOW, STREAM_ARRIVALS, STREAM_RATE, crash_plan, zipf_keys

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pinned_figures():
    pinned = checks.load_pin(checks.FIGURE_PIN)["figures"]
    assert len(pinned) == 18
    return pinned


def test_pinned_series_match_themselves(pinned_figures):
    for name, series in pinned_figures.items():
        assert checks.figure_mismatches(name, series, pinned_figures) == []


def test_figure_check_rejects_a_one_ulp_change(pinned_figures):
    name, series = next(iter(pinned_figures.items()))
    corrupted = copy.deepcopy(series)
    label = next(label for label, points in corrupted.items() if any(y is not None for _, y in points))
    index = next(i for i, (_, y) in enumerate(corrupted[label]) if y is not None)
    corrupted[label][index][1] = float(np.nextafter(corrupted[label][index][1], np.inf))
    assert checks.figure_mismatches(name, corrupted, pinned_figures)


def test_figure_check_rejects_missing_label_and_flipped_point(pinned_figures):
    name, series = next(iter(pinned_figures.items()))
    dropped = dict(list(series.items())[1:])
    assert checks.figure_mismatches(name, dropped, pinned_figures)
    flipped = copy.deepcopy(series)
    label = next(iter(flipped))
    flipped[label][0][1] = None if flipped[label][0][1] is not None else 1.0
    assert checks.figure_mismatches(name, flipped, pinned_figures)
    assert checks.figure_mismatches("fig99", series, pinned_figures)


def fake_report(device=0, reason="queue_full", makespan=12.5):
    return SimpleNamespace(
        outcomes=[SimpleNamespace(qid="s000000", device=device), SimpleNamespace(qid="s000002", device=1)],
        shed=[SimpleNamespace(qid="s000001", reason=reason)],
        failed=[],
        makespan=makespan,
        arrivals=3,
    )


def test_stream_digest_moves_with_every_decision():
    base = checks.stream_digest(fake_report())
    assert base == checks.stream_digest(fake_report())
    assert base != checks.stream_digest(fake_report(device=1))
    assert base != checks.stream_digest(fake_report(reason="slo_wait"))
    assert base != checks.stream_digest(fake_report(makespan=12.500000001))


def test_digest_check_rejects_a_corrupted_digest():
    digest = checks.stream_digest(fake_report())
    pinned = {"stream_steady": {"3": digest}}
    assert checks.digest_mismatches("stream_steady", 3, digest, pinned) == []
    corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    assert checks.digest_mismatches("stream_steady", 3, corrupted, pinned)
    # A seed in the pinned range without a pin fails; seeds past it are
    # audited by verify_stream_report only.
    assert checks.digest_mismatches("stream_steady", 4, corrupted, pinned)
    unpinned = checks.PINNED_SEEDS
    assert checks.digest_mismatches("stream_steady", unpinned, corrupted, pinned) == []


def test_pinned_digests_cover_both_streams():
    pinned = checks.load_pin(checks.DIGEST_PIN)
    for workload in ("stream_steady", "stream_slo_chaos"):
        assert set(pinned[workload]) == {str(seed) for seed in range(checks.PINNED_SEEDS)}
        assert all(len(d) == 64 for d in pinned[workload].values())


def test_reference_aggregate_matches_brute_force_with_duplicates():
    rng = np.random.default_rng(7)
    build_key = rng.integers(0, 50, size=300)
    probe_key = rng.integers(0, 60, size=900)
    build_payload = np.arange(300, dtype=np.int64)
    probe_payload = np.arange(900, dtype=np.int64)
    match = build_key[:, None] == probe_key[None, :]
    expected = (
        int(match.sum()),
        int((match * build_payload[:, None]).sum()),
        int((match * probe_payload[None, :]).sum()),
    )
    assert checks.reference_aggregate(build_key, build_payload, probe_key, probe_payload) == expected


def test_aggregate_check_rejects_a_corrupted_aggregate():
    from repro.kernels.aggregate import JoinAggregate

    good = JoinAggregate(matches=4, build_payload_sum=10, probe_payload_sum=20)
    assert checks.aggregate_mismatches("uniform/gpu_resident", good, (4, 10, 20)) == []
    for corrupted in ((5, 10, 20), (4, 11, 20), (4, 10, 19)):
        assert checks.aggregate_mismatches("uniform/gpu_resident", good, corrupted)


def test_paper_check_counts_and_reports_both_halves(pinned_figures):
    from repro.kernels.aggregate import JoinAggregate

    from perfbench.workloads import JoinInputs, PaperInputs, PaperOutput, WORKLOADS

    good = JoinAggregate(matches=4, build_payload_sum=10, probe_payload_sum=20)
    joins = JoinInputs({}, {}, {"uniform": (4, 10, 20), "zipf": (4, 10, 20)})
    inputs = PaperInputs({"fig05": None, "fig06": None}, joins)
    series = {name: copy.deepcopy(pinned_figures[name]) for name in ("fig05", "fig06")}
    aggregates = {("uniform", "streaming"): good, ("zipf", "streaming"): good}
    check = WORKLOADS["paper"].check
    assert check(0, inputs, PaperOutput(series, aggregates, 1.0, 1.0)) == (4, [])

    label = next(iter(series["fig06"]))
    series["fig06"][label] = []
    aggregates[("zipf", "streaming")] = JoinAggregate(
        matches=5, build_payload_sum=10, probe_payload_sum=20
    )
    attempted, failures = check(0, inputs, PaperOutput(series, aggregates, 1.0, 1.0))
    assert attempted == 4
    assert len(failures) == 2
    assert failures[0].startswith("fig06/") and failures[1].startswith("zipf/streaming")


def test_crash_plan_always_crashes_one_device_early():
    horizon = CRASH_WINDOW * STREAM_ARRIVALS / STREAM_RATE
    for seed in range(40):
        plan = crash_plan(seed)
        assert len(plan.crashes) == 1
        assert 0.0 <= plan.crashes[0].at <= horizon
        assert plan == crash_plan(seed)


def test_zipf_keys_stay_in_domain_and_skew():
    rng = np.random.default_rng(0)
    domain = np.arange(1000, 2000, dtype=np.int64)
    keys = zipf_keys(rng, domain, 1.0, 20_000)
    assert keys.min() >= 1000 and keys.max() < 2000
    counts = np.bincount(keys - 1000, minlength=1000)
    assert counts[0] > 10 * np.median(counts)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serving", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
