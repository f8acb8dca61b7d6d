"""Differential suite: the analytic cost path is the only one serving uses.

The scheduler once had an opt-in learned cost model; it was removed and
the test names below keep that history.  What they check now:

(a) **Cache warmth is inert** — with the process-wide estimate, plan
    and ladder caches warmed by other workloads, every recorded golden
    seed stays bit-identical: a cached answer may not perturb a single
    admission, placement, reservation or finish time;
(b) **Safety on a fleet** — a two-device fleet served from warm caches
    passes the full fault-invariant audit (conservation, arena
    reconciliation, retry budgets), replays deterministically, and its
    batch and streaming entry points agree;
(c) **No second cost path** — the scheduler takes no ``learned``
    option, the planner takes no calibration/config, and a run from
    cold or disabled caches is still the golden analytic schedule.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.bench.serve_bench import fingerprint, fingerprint_sharded
from repro.core import estimate_cache
from repro.core.planner import choose_strategy_name
from repro.serve import QueryScheduler, random_workload
from repro.serve.faults import FaultPlan, check_fault_invariants

GOLDEN_PATH = Path(__file__).parent / "golden_single_device.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Every recorded golden seed — the warm-cache identity sweep runs all
#: of them, same contract as the placement property suite.
SEEDS = sorted(int(seed) for seed in GOLDEN["seeds"])

#: 50 randomized workloads for the fleet invariant property.
PROPERTY_SEEDS = tuple(range(0, 100, 2))

#: Workloads whose estimates warm the caches before the module runs.
WARMING_SEEDS = (0, 60, 120, 180)


@pytest.fixture(scope="module")
def warmed():
    """Warm the process-wide caches once for the whole module with a
    few golden-seed serve runs; later tests keep adding to them."""
    for seed in WARMING_SEEDS:
        QueryScheduler(devices=1).run(random_workload(seed))
    stats = estimate_cache.stats()
    assert stats.entries > 0, "warming left the estimate cache empty"
    return stats


def _golden_matches(report, entry) -> None:
    assert [list(item) for item in fingerprint(report)] == entry["fingerprint"]
    assert report.makespan == entry["makespan"]
    assert report.peak_reserved_bytes == entry["peak_reserved_bytes"]


# ---------------------------------------------------------------------------
# (a) warm caches leave every golden seed bit-identical
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_learned_off_bit_identical_to_golden(seed, warmed):
    report = QueryScheduler(devices=1).run(random_workload(seed))
    _golden_matches(report, GOLDEN["seeds"][str(seed)])


# ---------------------------------------------------------------------------
# (b) a fleet served from warm caches keeps every serving invariant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_learned_on_satisfies_fault_invariants(seed, warmed):
    requests = random_workload(seed)
    scheduler = QueryScheduler(devices=2)
    report = scheduler.run(random_workload(seed))
    check_fault_invariants(
        report,
        FaultPlan(),
        arrivals=len(requests),
        max_retries=scheduler.max_retries,
    )
    for arena in report.arenas:
        assert arena.peak_bytes <= arena.capacity_bytes
        arena.check_invariants()
        assert arena.drained


@pytest.mark.parametrize("seed", (0, 70, 190))
def test_learned_on_replays_deterministically(seed, warmed):
    first = QueryScheduler(devices=2).run(random_workload(seed))
    estimate_cache.clear()
    second = QueryScheduler(devices=2).run(random_workload(seed))
    assert fingerprint_sharded(first) == fingerprint_sharded(second)
    assert first.makespan == second.makespan


def test_learned_on_matches_batch_mode(warmed):
    """Both entry points of the one loop agree on a fleet: ``run`` over
    a batch equals ``run_stream`` (shedding off, aggressive compaction)
    over the same requests."""
    for seed in (0, 70):
        batch = QueryScheduler(devices=2).run(random_workload(seed))
        stream = QueryScheduler(devices=2).run_stream(
            iter(random_workload(seed)), compact_every=1
        )
        assert sorted(fingerprint_sharded(batch)) == sorted(
            fingerprint_sharded(stream)
        )
        assert batch.makespan == stream.makespan


# ---------------------------------------------------------------------------
# (c) there is no second cost path
# ---------------------------------------------------------------------------
def test_learned_flag_without_model_is_analytic():
    assert "learned" not in inspect.signature(QueryScheduler).parameters
    with pytest.raises(TypeError):
        QueryScheduler(devices=1, learned=True)
    estimate_cache.clear()
    seed = SEEDS[0]
    report = QueryScheduler(devices=1).run(random_workload(seed))
    _golden_matches(report, GOLDEN["seeds"][str(seed)])


def test_empty_model_is_analytic():
    params = inspect.signature(choose_strategy_name).parameters
    assert "calibration" not in params and "config" not in params
    seed = SEEDS[1]
    estimate_cache.configure(enabled=False)
    try:
        report = QueryScheduler(devices=1).run(random_workload(seed))
    finally:
        estimate_cache.configure(
            enabled=True, max_entries=estimate_cache.DEFAULT_MAX_ENTRIES
        )
    _golden_matches(report, GOLDEN["seeds"][str(seed)])
