"""The traced run's span recording and self-time fold."""

import pytest

from perfbench.tracer import Tracer, covered_length, fold


def totals_of(spans):
    """fold() over (name, start, end, parent) tuples."""
    names, starts, ends, parents = (list(column) for column in zip(*spans))
    return fold(names, starts, ends, parents)


def test_nested_spans_subtract_only_direct_children():
    totals = totals_of([
        ("root", 0.0, 10.0, -1),
        ("child", 2.0, 5.0, 0),
        ("grandchild", 3.0, 4.0, 1),
    ])
    assert totals["root"].self_s == pytest.approx(7.0)
    assert totals["child"].self_s == pytest.approx(2.0)
    assert totals["grandchild"].self_s == pytest.approx(1.0)
    assert totals["root"].inclusive_s == pytest.approx(10.0)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    totals = totals_of([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("a", 5.0, 5.5, 0),
    ])
    # Children cover [1, 6] once, however they overlap.
    assert totals["root"].self_s == pytest.approx(5.0)
    assert totals["a"].calls == 2
    assert totals["a"].inclusive_s == pytest.approx(3.5)


def test_child_spilling_past_parent_is_clipped():
    totals = totals_of([
        ("root", 0.0, 10.0, -1),
        ("late", 8.0, 12.0, 0),
        ("early", -1.0, 1.0, 0),
    ])
    assert totals["root"].self_s == pytest.approx(7.0)


def test_recursive_calls_count_inclusive_time_once():
    totals = totals_of([
        ("estimate", 0.0, 10.0, -1),
        ("estimate", 1.0, 9.0, 0),
        ("other", 2.0, 3.0, 1),
        ("estimate", 4.0, 5.0, 2),
    ])
    assert totals["estimate"].calls == 3
    assert totals["estimate"].inclusive_s == pytest.approx(10.0)
    assert totals["estimate"].self_s == pytest.approx(2.0 + 7.0 + 1.0)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(-5.0, 20.0)], 0.0, 10.0) == pytest.approx(10.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def fake_clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_wrap_records_parents_and_closes_spans_on_error():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        with pytest.raises(ValueError):
            traced_inner()
        return tracer.wrap("leaf", lambda: 7)()

    assert tracer.wrap("outer", outer)() == 7
    assert tracer.names == ["outer", "inner", "leaf"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.starts == [0.0, 1.0, 3.0]
    assert tracer.ends == [5.0, 2.0, 4.0]
    assert tracer.fold()["outer"].self_s == pytest.approx(3.0)


def test_count_and_tally_accumulate_counters():
    tracer = Tracer()
    reserve = tracer.count("reserve", lambda ok: ok, failed=lambda ok: not ok)
    for ok in (True, False, False):
        reserve(ok)
    tallied = tracer.wrap("part", lambda n: n, tally=lambda args, kwargs, result: {"bytes": 2 * result})
    tallied(3)
    tallied(n=4)
    assert tracer.counts == {"reserve": 3, "reserve.failed": 2, "bytes": 14}


def test_timed_pulls_stamps_each_pull():
    tracer = Tracer(clock=fake_clock([1.0, 1.5, 3.5]))
    assert list(tracer.timed_pulls("abc")) == ["a", "b", "c"]
    assert tracer.ingest_gaps_us() == pytest.approx([0.5e6, 2.0e6])


def test_ingest_gaps_never_span_two_streams():
    tracer = Tracer(clock=fake_clock([1.0, 1.5, 9.0, 9.25]))
    assert list(tracer.timed_pulls("ab")) == ["a", "b"]
    assert list(tracer.timed_pulls("cd")) == ["c", "d"]
    assert tracer.ingest_gaps_us() == pytest.approx([0.5e6, 0.25e6])


def test_patch_function_covers_aliases_and_uninstall_restores():
    import repro.core.planner as planner
    import repro.core.strategy as strategy

    original = strategy.create_strategy
    tracer = Tracer()
    tracer.patch_function("repro.core.strategy:create_strategy", lambda fn: tracer.wrap("create", fn))
    assert strategy.create_strategy is not original
    assert planner.create_strategy is strategy.create_strategy
    from repro.data.spec import unique_pair

    assert planner.plan_join(unique_pair(1024)).key
    assert tracer.fold()["create"].calls == 1
    tracer.uninstall()
    assert strategy.create_strategy is original
    assert planner.create_strategy is original


def test_patch_method_wraps_overrides_and_uninstall_restores():
    from repro.serve.placement import LeastLoadedPolicy, PlacementPolicy

    before = {cls: cls.__dict__.get("select") for cls in (PlacementPolicy, LeastLoadedPolicy)}
    tracer = Tracer()
    tracer.patch_method("repro.serve.placement:PlacementPolicy.select", lambda fn: tracer.wrap("select", fn))
    assert LeastLoadedPolicy.__dict__["select"] is not before[LeastLoadedPolicy]
    assert LeastLoadedPolicy.__dict__["select"].__wrapped__ is before[LeastLoadedPolicy]
    tracer.uninstall()
    assert {cls: cls.__dict__.get("select") for cls in before} == before
