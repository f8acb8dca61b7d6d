"""The serving loop's incremental schedule extension vs batch mode.

``QueryScheduler.run`` places every admission wave with
``PipelineEngine.extend`` over the carried-over lane state.  Before the
batch loop (a full per-device re-simulation per wave) retired, its
per-query admissions, placements, start/finish times and lane
assignments were recorded on the mixed serving workload, batched and
staggered (``tests/serve/pins.py``); these tests pin the one loop to
them **exactly** and check its determinism and arena accounting.
"""

import pytest

from repro.bench.serve_bench import fingerprint as _fingerprint
from repro.bench.serve_bench import run_serve, verify_report
from repro.serve import QueryScheduler, mixed_workload
from tests.serve import pins


def _assert_schedules_identical(left, right):
    assert set(left.schedule.tasks) == set(right.schedule.tasks)
    for name, expected in right.schedule.tasks.items():
        actual = left.schedule.tasks[name]
        assert (actual.start, actual.finish, actual.lane) == (
            expected.start,
            expected.finish,
            expected.lane,
        ), name


@pytest.mark.parametrize("clients", [1, 4, 8])
def test_online_matches_batch_for_batched_arrivals(clients):
    report = pins.report(f"online/batched/{clients}")
    assert len(report.outcomes) == clients


@pytest.mark.parametrize("spacing", [0.05, 0.25, 1.0])
def test_online_matches_batch_for_staggered_arrivals(spacing):
    """Arrival-driven admission: every submit_at is its own wave."""
    report = pins.report(f"online/staggered/{spacing}")
    assert len({o.admit_at for o in report.outcomes}) > 1


def test_online_matches_batch_under_eager_degradation():
    """max_degradation=None exercises the degrade-eagerly policy arm."""
    pins.report("online/eager")


def test_online_mode_is_deterministic():
    first = QueryScheduler().run(mixed_workload(8, spacing_seconds=0.1))
    second = QueryScheduler().run(mixed_workload(8, spacing_seconds=0.1))
    assert _fingerprint(first) == _fingerprint(second)
    assert first.makespan == second.makespan
    # Same admission order (admit times are part of the fingerprint)
    # and same wall-clock-independent simulated schedule.
    _assert_schedules_identical(first, second)


def test_online_report_passes_serving_guarantees():
    report = QueryScheduler().run(mixed_workload(8))
    verify_report(report, clients=8, check_serial=True)
    assert report.peak_reserved_bytes <= report.capacity_bytes


def test_run_serve_online_checks_determinism_and_guarantees():
    report = run_serve(4, check_determinism=True)
    assert len(report.outcomes) == 4
    assert report.makespan > 0


def test_online_matches_batch_with_widened_lanes():
    """Up-front lane declarations flow into the incremental engine."""
    report = pins.report("online/lanes")
    assert report.schedule.lanes["h2d"] == 2
