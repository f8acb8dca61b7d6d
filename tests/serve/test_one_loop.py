"""One serving loop, two entry points.

``QueryScheduler.run`` is an adapter over the streaming loop: it never
sheds, keeps its outcomes in request order and reports the merged
schedule.  These tests pin the adapter's contract, the loop's clock
control around fleet events, and the up-front rejection of device
capacities the modelled GPU cannot back.
"""

import pytest

from repro.bench.serve_bench import serve_main
from repro.data.spec import unique_pair
from repro.errors import FleetEventError, InvalidConfigError
from repro.gpusim.spec import SystemSpec
from repro.serve import (
    FleetEvent,
    QueryRequest,
    QueryScheduler,
    ServeReport,
    StreamReport,
    random_workload,
    validate_fleet_events,
    with_classes,
)

M = 1_000_000
GIB = 2**30
LIMIT = SystemSpec().gpu.device_memory


def test_serve_report_is_a_stream_report():
    report = QueryScheduler(devices=2).run(random_workload(3))
    assert isinstance(report, ServeReport) and isinstance(report, StreamReport)
    assert report.shed == [] and report.arrivals == len(report.outcomes)
    assert report.makespan == report.schedule.makespan
    assert report.peak_reserved_bytes == max(report.device_peak_bytes)


def test_run_keeps_request_order_and_sorts_arrivals_stably():
    late = QueryRequest(qid="late", spec=unique_pair(16 * M), submit_at=0.5)
    first = QueryRequest(qid="first", spec=unique_pair(16 * M))
    tie = QueryRequest(qid="tie", spec=unique_pair(16 * M))
    report = QueryScheduler().run([late, first, tie])
    assert [o.qid for o in report.outcomes] == ["late", "first", "tie"]
    by_qid = {o.qid: o for o in report.outcomes}
    assert by_qid["first"].admit_at == by_qid["tie"].admit_at == 0.0
    assert by_qid["late"].admit_at == 0.5


def test_run_never_sheds_while_run_stream_expires_deadlines():
    requests = with_classes(random_workload(5, max_queries=10), deadline_scale=0.01)
    requests = [
        QueryRequest(
            qid=r.qid, spec=r.spec, submit_at=r.submit_at,
            slo_wait_seconds=0.0, query_class=r.query_class,
        )
        for r in requests
    ]
    batch = QueryScheduler().run(requests)
    assert len(batch.outcomes) == len(requests) and batch.shed == []
    assert batch.deadline_missed_count > 0
    stream = QueryScheduler().run_stream(iter(requests))
    assert stream.shed_count > 0


def test_idle_fleet_admits_an_arrival_before_the_next_fleet_event():
    """Nothing running, the head not yet arrived and two fleet events
    pending: the loop stops at the arrival, not at the later event."""
    requests = [
        QueryRequest(qid="q0", spec=unique_pair(16 * M)),
        QueryRequest(qid="q1", spec=unique_pair(16 * M), submit_at=0.75),
    ]
    events = [
        FleetEvent(at=0.3, action="add", capacity_bytes=LIMIT),
        FleetEvent(at=1.5, action="retire", device=0),
    ]
    report = QueryScheduler(devices=2).run(requests, fleet_events=events)
    assert [o.admit_at for o in report.outcomes] == [0.0, 0.75]


def test_oversized_device_capacity_is_rejected_up_front():
    with pytest.raises(InvalidConfigError, match=r"device_capacities\[1\]") as info:
        QueryScheduler(devices=2, device_capacities=[8 * GIB, 16 * 10**9])
    assert str(LIMIT) in str(info.value)
    QueryScheduler(devices=2, device_capacities=[LIMIT, 4 * 10**9])


def test_oversized_add_event_is_rejected_before_the_run():
    events = [FleetEvent(at=0.0, action="add", capacity_bytes=16 * 10**9)]
    with pytest.raises(FleetEventError, match="device memory"):
        QueryScheduler(devices=2).run(random_workload(0), fleet_events=events)
    with pytest.raises(FleetEventError, match="device memory"):
        QueryScheduler(devices=2).run_stream(
            iter(random_workload(0)), fleet_events=events
        )
    validate_fleet_events(events, 2)  # no limit given: nothing to check
    with pytest.raises(FleetEventError, match="adds device 2"):
        validate_fleet_events(events, 2, max_capacity_bytes=LIMIT)


def test_oversized_device_caps_flag_exits_2_before_any_run(capsys):
    with pytest.raises(SystemExit) as info:
        serve_main(["--clients", "16", "--devices", "2", "--device-caps", "8,16"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "--device-caps" in captured.err and "entry 1" in captured.err
    assert captured.out == ""
