"""Placement cost facts are computed once, then read.

Call counts, not timings, so the checks are deterministic: the number
of strategies a run builds and of calibration validations it performs
must not grow with the stream's length, and the per-query solo facts
the scheduler keeps must be gone once every query reached its terminal
outcome.
"""

import pytest

from repro.core import registered_strategies
from repro.gpusim.calibration import Calibration, calibration_preset
from repro.serve import (
    DEADLINE_CLASSES,
    FaultPlan,
    QueryScheduler,
    stream_workload,
)
from repro.serve import scheduler as scheduler_mod
from repro.serve.faults import DeviceCrash
from repro.serve.workload import _STREAM_TEMPLATES

CALIBRATIONS = [calibration_preset("fast"), None]


def counted_run(monkeypatch, arrivals: int) -> tuple[int, int, QueryScheduler]:
    """``run_stream`` of ``arrivals`` queries on a fresh heterogeneous
    scheduler: (create_strategy calls, Calibration.validate calls)."""
    creates, validates = [], []
    create = scheduler_mod.create_strategy
    validate = Calibration.validate
    monkeypatch.setattr(
        scheduler_mod,
        "create_strategy",
        lambda *a, **k: creates.append(a[0]) or create(*a, **k),
    )
    monkeypatch.setattr(
        Calibration, "validate", lambda self: validates.append(1) or validate(self)
    )
    scheduler = QueryScheduler(
        devices=2, device_calibrations=CALIBRATIONS, max_retries=2
    )
    report = scheduler.run_stream(
        stream_workload(arrivals, seed=3), max_queue_depth=64
    )
    assert report.completed + report.shed_count == arrivals
    monkeypatch.undo()
    return len(creates), len(validates), scheduler


def test_strategy_builds_and_validations_do_not_grow_with_the_stream(monkeypatch):
    short_creates, short_validates, short = counted_run(monkeypatch, 1_000)
    long_creates, long_validates, long = counted_run(monkeypatch, 4_000)
    assert short_creates == long_creates
    assert short_validates == long_validates
    # One build per distinct (strategy, calibration, grant) combination.
    assert long_creates == len(long._strategies)
    bound = (
        len(registered_strategies())
        * len(CALIBRATIONS)
        * (len(_STREAM_TEMPLATES) + 1)
    )
    assert 0 < long_creates <= bound
    assert long_validates <= bound


def test_no_solo_facts_outlive_a_stream_run():
    """Completed, shed (queue cap, SLO, deadline expiry) and failed
    queries all drop their solo fact; while the run lasts the facts
    cover live queries only."""
    scheduler = QueryScheduler(devices=2, max_retries=1)
    peak = 0
    solo = scheduler._solo

    def tracked(request, calibration=None):
        nonlocal peak
        result = solo(request, calibration)
        peak = max(peak, len(scheduler._solo_facts))
        return result

    scheduler._solo = tracked
    faults = FaultPlan(
        crashes=(DeviceCrash(device=0, at=0.5),),
        admission_failures={"s000003": 2},
    )
    report = scheduler.run_stream(
        stream_workload(
            2_000,
            seed=5,
            classes=DEADLINE_CLASSES,
            slo_wait_seconds=1.5,
            deadline_scale=0.1,
        ),
        max_queue_depth=128,
        compact_every=16,
        faults=faults,
    )
    assert report.failed_count > 0
    assert {s.reason for s in report.shed} == {
        "queue_full", "slo_wait", "deadline_expired"
    }
    assert report.completed + report.shed_count + report.failed_count == 2_000
    assert scheduler._solo_facts == {}
    live_bound = 128 + report.peak_inflight_tasks + report.retried_count
    assert 0 < peak <= live_bound + report.failed_count
    assert report.peak_retained_tasks <= (
        report.peak_inflight_tasks + 16 * report.max_tasks_per_query
    )


@pytest.mark.parametrize("mode", ["run"])
def test_no_solo_facts_outlive_a_batch_run(mode):
    scheduler = QueryScheduler(devices=2)
    report = getattr(scheduler, mode)(list(stream_workload(200, seed=1)))
    assert len(report.outcomes) == 200
    assert scheduler._solo_facts == {}


def test_solo_facts_are_not_shared_across_runs():
    """A run that stopped on an error leaves facts behind; the next run
    must not read them for a different query that reuses a qid."""
    requests = list(stream_workload(2, seed=9))
    scheduler = QueryScheduler()
    scheduler._solo_facts[requests[0].qid] = ("gpu_resident", -1.0)
    report = scheduler.run_stream(iter(requests))
    expected = QueryScheduler().run_stream(iter(requests))
    assert [o.solo_seconds for o in report.outcomes] == [
        o.solo_seconds for o in expected.outcomes
    ]
