"""Equivalence harness guarding the strategy-registry refactor and the
cost-model fast path.

For one reference workload per registered strategy, compares the
simulated time produced by every entry point that must agree:

* **direct** — instantiating the strategy class itself, the original
  (pre-registry) entry point, which remains public API — computed with
  the estimate cache *disabled*, so it exercises the uncached path;
* **registry** — ``create_strategy(key)`` dispatch, the post-registry
  entry point used by the planner, executor and benchmarks; evaluated
  twice (cold cache, then cache hit) so a divergence between memoized
  and recomputed estimates trips the harness;
* **pipeline** — the decomposed ``simulate(prepare(spec))`` path,
  proving ``estimate`` is nothing but plan + engine simulation;
* **scanner** — the same plan simulated by the retained all-queue-heads
  reference scanner (``PipelineEngine.run_reference``), pinning the
  event-driven engine to its executable specification;
* **hand-summed** (serial strategies only) — when a plan's tasks all
  occupy one resource, the engine's makespan must equal the summed task
  durations the pre-engine implementation computed by hand.

Run as a module (``python -m repro.bench.regress``) for a table, or
call :func:`run_regression` from tests.

The module also guards the serving layer (:func:`run_serve_regression`):
a small concurrency sweep must be deterministic, keep every device's
arena within capacity and drained and beat serial back-to-back
execution — on one device *and* on a two-device sharded fleet, whose
makespan must additionally never exceed the single-device makespan —
the invariants the scheduler promises on every PR.
:func:`run_fleet_pin_regression` replays the fleet pin: the outcomes
the batch re-simulation loop recorded before it retired
(``tests/serve/golden_fleet.json``), for sharded, stealing,
heterogeneous, elastic, sjf/edf and faulted fleets, must come out of
``QueryScheduler.run`` bit for bit.  :func:`run_stream_regression`
extends the guarantee to steady-state streaming: on a mid-size
open-arrival stream, ``run_stream`` with aggressive schedule
compaction must match ``run_stream`` without compaction *and* ``run``
on every per-query outcome and the final makespan.
:func:`run_golden_regression` pins the heterogeneous-fleet refactor:
homogeneous fleets — the implicit default *and* explicitly spelled
per-device capacities/calibrations — must stay bit-identical to the
golden schedules recorded before per-device calibration existed.
:func:`run_fault_regression` pins the fault-injection layer the same
way: an **empty** :class:`~repro.serve.faults.FaultPlan` must stay
bit-identical to the golden schedules (the fault machinery may not
leak into fault-free runs), and crashy seeded plans must conserve
every query, reconcile every arena, and replay deterministically.
:func:`run_admission_regression` pins the admission-policy registry:
the default ``fifo`` policy must stay bit-identical to the golden
schedules, ``edf`` must strictly reduce the deadline-miss rate against
``fifo`` on the deadline-classed canonical workload, and ``sjf`` must
never worsen its mean latency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core import estimate_cache
from repro.core.strategy import (
    COPROCESSING,
    COPROCESSING_ADAPTIVE,
    GPU_NONPARTITIONED,
    GPU_NONPARTITIONED_PERFECT,
    GPU_RESIDENT,
    STREAMING,
    create_strategy,
    registered_strategies,
    strategy_factory,
)
from repro.data import Distribution, JoinSpec, RelationSpec, unique_pair

M = 1_000_000

#: One workload per strategy, sized for that strategy's regime.
DEFAULT_TOLERANCE = 1e-9


def reference_spec(key: str) -> JoinSpec:
    """A workload in the regime the strategy is designed for."""
    if key in (GPU_RESIDENT, GPU_NONPARTITIONED, GPU_NONPARTITIONED_PERFECT):
        return unique_pair(32 * M)
    if key == STREAMING:
        return JoinSpec(
            build=RelationSpec(n=64 * M),
            probe=RelationSpec(
                n=1024 * M, distinct=64 * M, distribution=Distribution.UNIFORM
            ),
        )
    if key in (COPROCESSING, COPROCESSING_ADAPTIVE):
        return unique_pair(512 * M)
    # New strategies default to a mid-sized resident workload.
    return unique_pair(32 * M)


@dataclass
class RegressRow:
    """Agreement of one strategy's entry points on its reference spec."""

    key: str
    direct_seconds: float
    registry_seconds: float
    pipeline_seconds: float
    handsum_seconds: float | None
    max_abs_diff: float
    cached_seconds: float = 0.0
    scanner_seconds: float = 0.0

    def ok(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.max_abs_diff <= tolerance


def run_regression(keys: tuple[str, ...] | None = None) -> list[RegressRow]:
    """Measure entry-point agreement for every (or the given) strategy."""
    from repro.pipeline.engine import PipelineEngine

    rows: list[RegressRow] = []
    for key in keys if keys is not None else registered_strategies():
        spec = reference_spec(key)

        # Uncached baseline: the memoization layer must be equivalence-
        # checked, not trusted, so `direct` bypasses it entirely.
        estimate_cache.clear()
        estimate_cache.configure(enabled=False)
        try:
            direct = strategy_factory(key)().estimate(spec).seconds
        finally:
            estimate_cache.configure(enabled=True)
        registry = create_strategy(key).estimate(spec).seconds  # cold cache
        cached = create_strategy(key).estimate(spec).seconds  # cache hit

        strategy = create_strategy(key)
        plan = strategy.prepare(spec)
        pipeline = strategy.simulate(plan).seconds

        engine = PipelineEngine(plan.resources)
        for task in plan.tasks:
            engine.add(task)
        scanner = strategy.metrics_from_schedule(
            plan, engine.run_reference()
        ).seconds

        handsum: float | None = None
        resources = {task.resource for task in plan.tasks}
        if len(resources) == 1:
            handsum = sum(task.duration for task in plan.tasks)

        candidates = [registry, cached, pipeline, scanner] + (
            [handsum] if handsum is not None else []
        )
        max_abs_diff = max(abs(direct - value) for value in candidates)
        rows.append(
            RegressRow(
                key=key,
                direct_seconds=direct,
                registry_seconds=registry,
                pipeline_seconds=pipeline,
                handsum_seconds=handsum,
                max_abs_diff=max_abs_diff,
                cached_seconds=cached,
                scanner_seconds=scanner,
            )
        )
    return rows


def render(rows: list[RegressRow], tolerance: float = DEFAULT_TOLERANCE) -> str:
    lines = [
        f"{'strategy':28s} {'direct (s)':>14s} {'registry (s)':>14s} "
        f"{'pipeline (s)':>14s} {'scanner (s)':>14s} {'max |diff|':>12s}  verdict"
    ]
    for row in rows:
        verdict = "ok" if row.ok(tolerance) else "DIVERGED"
        lines.append(
            f"{row.key:28s} {row.direct_seconds:14.9f} "
            f"{row.registry_seconds:14.9f} {row.pipeline_seconds:14.9f} "
            f"{row.scanner_seconds:14.9f} "
            f"{row.max_abs_diff:12.3e}  {verdict}"
        )
    return "\n".join(lines)


#: Concurrency levels for the serving-determinism regression — small on
#: purpose: this runs on every PR.
SERVE_REGRESSION_CLIENTS = (1, 4, 8)


#: Fleet size of the sharded serving regression.
SERVE_REGRESSION_DEVICES = 2


def run_serve_regression(
    levels: tuple[int, ...] = SERVE_REGRESSION_CLIENTS,
) -> list[str]:
    """Assert the serving layer's invariants; returns report lines.

    Each level runs the scheduler twice (determinism is checked inside
    :func:`repro.bench.serve_bench.run_serve`), then repeats the pair
    on a :data:`SERVE_REGRESSION_DEVICES`-device sharded fleet, whose
    makespan must never exceed the single-device makespan.  Any
    violation raises :class:`~repro.errors.SchedulingError`.
    """
    from repro.bench.serve_bench import run_serve
    from repro.errors import SchedulingError

    lines: list[str] = []
    for clients in levels:
        report = run_serve(clients, check_determinism=True)
        lines.append(
            f"serve[{clients:2d} clients]: makespan {report.makespan:10.6f} s, "
            f"serial {report.serial_makespan:10.6f} s, peak "
            f"{report.peak_reserved_bytes / 1e9:.2f}/"
            f"{report.capacity_bytes / 1e9:.2f} GB, "
            f"{report.degraded_count} degraded  ok"
        )

        devices = SERVE_REGRESSION_DEVICES
        sharded = run_serve(clients, devices=devices, check_determinism=True)
        if sharded.makespan > report.makespan * (1 + 1e-9):
            raise SchedulingError(
                f"sharding regressed the makespan at {clients} clients: "
                f"{devices} devices {sharded.makespan:.6f} s vs one device "
                f"{report.makespan:.6f} s"
            )
        lines.append(
            f"serve[{clients:2d} clients, {devices} devices]: makespan "
            f"{sharded.makespan:10.6f} s "
            f"({report.makespan / sharded.makespan:.2f}x vs one device), "
            f"peaks {'/'.join(f'{p / 1e9:.2f}' for p in sharded.device_peak_bytes)} GB  ok"
        )
    return lines


#: Golden single-device schedules (``tools/capture_serve_golden.py``).
GOLDEN_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests" / "serve" / "golden_single_device.json"
)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _matches_golden(report, entry: dict) -> bool:
    from repro.bench.serve_bench import fingerprint

    return (
        [list(item) for item in fingerprint(report)] == entry["fingerprint"]
        and report.makespan == entry["makespan"]
        and report.peak_reserved_bytes == entry["peak_reserved_bytes"]
    )


#: Recorded fleet pin: per-setup outcomes of ``QueryScheduler.run``
#: captured from the batch re-simulation loop before it retired
#: (``tools/capture_serve_golden.py``).
FLEET_PIN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "serve" / "golden_fleet.json"
)
FLEET_PIN_SEEDS = tuple(range(50))
FLEET_PIN_MAX_QUERIES = 10
FLEET_PIN_SETUPS = (
    "least_loaded_2",
    "steal_3",
    "hetero_2",
    "elastic_2",
    "sjf_2",
    "edf_2",
    "faults_2",
)


def fleet_pin_report(setup: str, seed: int):
    """Serve fleet-pin case (``setup``, ``seed``) through
    :meth:`~repro.serve.scheduler.QueryScheduler.run`.

    Every setup serves ``random_workload(seed, max_queries=10)``:
    two least-loaded devices; three devices with stealing; two devices
    of which device 0 is a 2x ``gpu_scaled`` calibration; an elastic
    fleet (a device joins at a quarter of the fault-free makespan and
    device 0 retires at half); sjf and edf admission (edf over the
    deadline-classed re-stamp of the same queries); and a
    ``FaultPlan.random`` plan with a 0.3 admission-fault rate under
    ``max_retries=2``.
    """
    from repro.gpusim.calibration import DEFAULT_CALIBRATION
    from repro.serve import (
        FaultPlan,
        FleetEvent,
        QueryScheduler,
        random_workload,
        with_classes,
    )

    requests = random_workload(seed, max_queries=FLEET_PIN_MAX_QUERIES)
    if setup == "least_loaded_2":
        return QueryScheduler(devices=2, placement="least_loaded").run(requests)
    if setup == "steal_3":
        return QueryScheduler(devices=3, steal=True).run(requests)
    if setup == "hetero_2":
        return QueryScheduler(
            devices=2,
            device_calibrations=[DEFAULT_CALIBRATION.gpu_scaled(2.0), None],
        ).run(requests)
    if setup == "sjf_2":
        return QueryScheduler(devices=2, admission="sjf").run(requests)
    if setup == "edf_2":
        return QueryScheduler(devices=2, admission="edf").run(
            with_classes(requests)
        )
    scheduler = QueryScheduler(devices=2)
    horizon = scheduler.run(requests).makespan
    if setup == "elastic_2":
        events = [
            FleetEvent(
                at=0.25 * horizon,
                action="add",
                capacity_bytes=scheduler.system.gpu.device_memory,
            ),
            FleetEvent(at=0.5 * horizon, action="retire", device=0),
        ]
        return QueryScheduler(devices=2).run(requests, fleet_events=events)
    if setup == "faults_2":
        plan = FaultPlan.random(
            seed,
            devices=2,
            horizon=horizon,
            qids=[request.qid for request in requests],
            admission_fault_rate=0.3,
        )
        return QueryScheduler(devices=2, max_retries=2).run(
            requests, faults=plan
        )
    raise ValueError(f"unknown fleet pin setup {setup!r}")


def fleet_pin_entry(report) -> dict:
    """The pinned facts of one fleet-pin run: the sharded outcome
    fingerprint, the failed queries (sorted by qid: the order failures
    are recorded in is loop bookkeeping, not an outcome) and the
    makespan."""
    from repro.bench.serve_bench import fingerprint_sharded

    return {
        "fingerprint_sharded": [
            list(item) for item in fingerprint_sharded(report)
        ],
        "failed": sorted(
            [f.qid, f.reason, f.attempts, f.last_device]
            for f in report.failed
        ),
        "makespan": report.makespan,
    }

#: Seed subset of the fleet-pin column — every 5th pinned seed; the
#: full sweep belongs to ``tests/serve/test_fleet_pin.py``.
FLEET_PIN_REGRESSION_SEEDS = tuple(range(0, 50, 5))


def run_fleet_pin_regression(
    seeds: tuple[int, ...] = FLEET_PIN_REGRESSION_SEEDS,
) -> list[str]:
    """Assert ``QueryScheduler.run`` reproduces the recorded fleet pin
    on every setup; returns report lines.  Any divergence raises
    :class:`~repro.errors.SchedulingError`."""
    from repro.errors import SchedulingError

    pin = json.loads(FLEET_PIN_PATH.read_text(encoding="utf-8"))["fleet"]
    failed = 0
    for setup in FLEET_PIN_SETUPS:
        for seed in seeds:
            entry = fleet_pin_entry(fleet_pin_report(setup, seed))
            if entry != pin[setup][str(seed)]:
                raise SchedulingError(
                    f"fleet pin {setup} diverged from the recorded batch "
                    f"outcomes at seed {seed}"
                )
            failed += len(entry["failed"])
    return [
        f"fleet pin[{len(FLEET_PIN_SETUPS)} setups x {len(seeds)} seeds]: "
        f"run reproduces the recorded batch outcomes ({failed} failed "
        "queries included)  ok"
    ]


#: Stream length of the compaction-equivalence regression — mid-size on
#: purpose: big enough for many compaction sweeps, small enough for
#: every PR.
STREAM_REGRESSION_ARRIVALS = 400


def run_stream_regression(
    arrivals: int = STREAM_REGRESSION_ARRIVALS,
) -> list[str]:
    """Assert compacted streaming == uncompacted == batch; returns
    report lines.

    For a mid-size open-arrival stream on one device and on a
    :data:`SERVE_REGRESSION_DEVICES`-device fleet, runs
    :meth:`~repro.serve.scheduler.QueryScheduler.run_stream` twice —
    aggressive compaction versus compaction disabled — and
    :meth:`~repro.serve.scheduler.QueryScheduler.run` once on the same
    requests.  All three must produce **identical** per-query
    admissions, placements, reservations and finish times, and the
    same makespan: compaction must be pure bookkeeping, invisible in
    every outcome.  Any divergence raises
    :class:`~repro.errors.SchedulingError`.
    """
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import stream_workload

    def outcome_fingerprint(outcomes) -> list[tuple]:
        return sorted(
            (o.qid, o.device, o.strategy, o.reserved_bytes,
             o.admit_at, o.finish_at)
            for o in outcomes
        )

    lines: list[str] = []
    for devices in (1, SERVE_REGRESSION_DEVICES):
        requests = list(
            stream_workload(arrivals, arrival_rate=120.0, seed=7)
        )
        compacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=16
        )
        uncompacted = QueryScheduler(devices=devices).run_stream(
            iter(requests), compact_every=None
        )
        batch = QueryScheduler(devices=devices).run(requests)
        if compacted.shed or uncompacted.shed:
            raise SchedulingError(
                "stream regression must not shed (no queue cap, no SLO)"
            )
        if outcome_fingerprint(compacted.outcomes) != outcome_fingerprint(
            uncompacted.outcomes
        ):
            raise SchedulingError(
                f"compacted stream diverged from uncompacted at "
                f"{arrivals} arrivals on {devices} device(s)"
            )
        if outcome_fingerprint(compacted.outcomes) != outcome_fingerprint(
            batch.outcomes
        ):
            raise SchedulingError(
                f"streaming admission diverged from run at "
                f"{arrivals} arrivals on {devices} device(s)"
            )
        if not (
            compacted.makespan == uncompacted.makespan == batch.makespan
        ):
            raise SchedulingError(
                f"stream makespans diverged on {devices} device(s): "
                f"compacted {compacted.makespan!r}, uncompacted "
                f"{uncompacted.makespan!r}, batch {batch.makespan!r}"
            )
        if compacted.retired_tasks == 0:
            raise SchedulingError(
                "stream regression compacted run retired nothing — the "
                "equivalence check is vacuous"
            )
        lines.append(
            f"stream[{arrivals} arrivals, {devices} device(s)]: makespan "
            f"{compacted.makespan:10.6f} s, retained peak "
            f"{compacted.peak_retained_tasks} vs "
            f"{uncompacted.peak_retained_tasks} tasks uncompacted "
            f"({compacted.retired_tasks} retired in "
            f"{compacted.compactions} sweeps), compacted == uncompacted "
            "== batch  ok"
        )
    return lines


#: Seed subset of the golden-schedule regression — every 10th recorded
#: seed; the full 200-seed sweep belongs to the property suite, this
#: column runs on every ``python -m repro.bench.regress``.
GOLDEN_REGRESSION_SEEDS = tuple(range(0, 200, 10))


def run_golden_regression(
    seeds: tuple[int, ...] = GOLDEN_REGRESSION_SEEDS,
) -> list[str]:
    """Assert homogeneous fleets survived the heterogeneity refactor
    bit-identically; returns report lines.

    Two columns per seed against the recorded pre-refactor golden
    schedules (``tests/serve/golden_single_device.json``):

    * ``devices=1`` (all per-device machinery on its defaults) must
      reproduce the golden fingerprint, makespan and peak exactly;
    * a two-device fleet with *explicitly spelled* homogeneous
      per-device arguments (``device_capacities=[cap, cap]``,
      ``device_calibrations=[None, None]``) must match the implicit
      ``devices=2`` default on every outcome — threading per-device
      state through estimates, plans and placement must be a no-op
      when the devices are equal.

    The canonical ``mixed_workload`` entries of the golden file are
    re-checked too.  Any divergence raises
    :class:`~repro.errors.SchedulingError`.
    """
    from repro.bench.serve_bench import fingerprint_sharded
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import mixed_workload, random_workload

    golden = _golden()
    checked = 0
    for seed in seeds:
        report = QueryScheduler(devices=1).run(random_workload(seed))
        if not _matches_golden(report, golden["seeds"][str(seed)]):
            raise SchedulingError(
                f"homogeneous devices=1 diverged from the recorded golden "
                f"schedule at seed {seed}"
            )
        capacity = report.capacity_bytes
        default_two = QueryScheduler(devices=2).run(random_workload(seed))
        explicit_two = QueryScheduler(
            devices=2,
            device_capacities=[capacity, capacity],
            device_calibrations=[None, None],
        ).run(random_workload(seed))
        if (
            fingerprint_sharded(explicit_two)
            != fingerprint_sharded(default_two)
            or explicit_two.makespan != default_two.makespan
        ):
            raise SchedulingError(
                f"explicit homogeneous per-device arguments changed the "
                f"2-device schedule at seed {seed}"
            )
        checked += 1
    for name in sorted(golden["canonical"]):
        clients, spacing = name.split("x")
        report = QueryScheduler(devices=1).run(
            mixed_workload(int(clients), spacing_seconds=float(spacing))
        )
        if not _matches_golden(report, golden["canonical"][name]):
            raise SchedulingError(
                f"canonical workload {name} diverged from the recorded "
                "golden schedule"
            )
    return [
        f"golden[{checked} seeds + {len(golden['canonical'])} canonical]: "
        "homogeneous fleets bit-identical to pre-refactor golden "
        "schedules; explicit per-device args are a no-op  ok"
    ]


#: Seeds of the fault-recovery regression's empty-plan identity column.
FAULT_REGRESSION_SEEDS = (0, 50, 150)


def run_fault_regression(
    seeds: tuple[int, ...] = FAULT_REGRESSION_SEEDS,
) -> list[str]:
    """Assert the fault-injection layer's two anchor contracts; returns
    report lines.

    * **Inertness** — ``faults=FaultPlan()`` must stay bit-identical to
      the recorded pre-fault golden schedules on ``devices=1`` (the
      empty plan takes the exact fault-free code path, so a divergence
      means the fault machinery leaked into unfaulted runs);
    * **Recovery** — a crashy seeded plan on a two-device fleet must
      conserve every query (``completed + failed == arrivals``), drain
      every arena (crash reservations reconciled) and replay
      deterministically; its outcomes are pinned by the ``faults_2``
      setup of :func:`run_fleet_pin_regression`.

    Any violation raises :class:`~repro.errors.SchedulingError` (the
    scheduler's own :func:`~repro.serve.faults.check_fault_invariants`
    audit, a :class:`~repro.errors.FaultInvariantError`, is a subclass).
    """
    from repro.bench.serve_bench import fingerprint_sharded
    from repro.errors import SchedulingError
    from repro.serve.faults import FaultPlan
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import random_workload

    golden = _golden()
    for seed in seeds:
        report = QueryScheduler(devices=1).run(
            random_workload(seed), faults=FaultPlan()
        )
        if report.failed or not _matches_golden(
            report, golden["seeds"][str(seed)]
        ):
            raise SchedulingError(
                f"empty FaultPlan diverged from the recorded golden "
                f"schedule at seed {seed} — the fault machinery leaked "
                "into fault-free runs"
            )

    devices = SERVE_REGRESSION_DEVICES
    failures = 0
    retries = 0
    for seed in seeds:
        requests = random_workload(seed)
        base = QueryScheduler(devices=devices).run(requests)
        plan = FaultPlan.random(
            seed,
            devices=devices,
            horizon=base.makespan,
            qids=[request.qid for request in requests],
            admission_fault_rate=0.25,
        )
        report = QueryScheduler(devices=devices).run(requests, faults=plan)
        replay = QueryScheduler(devices=devices).run(requests, faults=plan)
        if (
            fingerprint_sharded(replay) != fingerprint_sharded(report)
            or replay.failed != report.failed
        ):
            raise SchedulingError(
                f"faulted run did not replay deterministically at seed "
                f"{seed}"
            )
        if len(report.outcomes) + len(report.failed) != len(requests):
            raise SchedulingError(
                f"fault plan seed {seed} lost queries: "
                f"{len(report.outcomes)} completed + "
                f"{len(report.failed)} failed != {len(requests)}"
            )
        for arena in report.arenas or ():
            arena.check_invariants()
            if not arena.drained:
                raise SchedulingError(
                    f"device {arena.device} arena did not drain under "
                    f"fault plan seed {seed}"
                )
        failures += len(report.failed)
        retries += sum(o.retries for o in report.outcomes)
    return [
        f"faults[{len(seeds)} seeds]: empty plan bit-identical to golden "
        f"schedules; crashy plans on {devices} devices conserved every "
        f"query ({failures} failed, {retries} retries), arenas "
        "reconciled, replay identical  ok"
    ]


#: Seeds of the admission regression's fifo-identity column.
ADMISSION_REGRESSION_SEEDS = (0, 70, 190)


def run_admission_regression(
    seeds: tuple[int, ...] = ADMISSION_REGRESSION_SEEDS,
) -> list[str]:
    """Assert the admission-policy registry's anchor contracts; returns
    report lines.

    * **Inertness** — ``admission="fifo"`` (the default, spelled
      explicitly) must stay bit-identical to the recorded pre-registry
      golden schedules on ``devices=1``: the policy hook may not
      perturb the default path (reordering policies are pinned by the
      ``sjf_2``/``edf_2`` setups of :func:`run_fleet_pin_regression`);
    * **Wins** — on :func:`~repro.serve.workload.classed_workload`
      (64 clients, one device) ``edf`` must *strictly* reduce the
      deadline-miss rate against ``fifo``, and ``sjf`` must never
      worsen the mean latency of the same 64 clients unclassed.

    Any violation raises :class:`~repro.errors.SchedulingError`.
    """
    from repro.errors import SchedulingError
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workload import (
        classed_workload,
        mixed_workload,
        random_workload,
    )

    golden = _golden()
    for seed in seeds:
        report = QueryScheduler(devices=1, admission="fifo").run(
            random_workload(seed)
        )
        if not _matches_golden(report, golden["seeds"][str(seed)]):
            raise SchedulingError(
                f"fifo admission diverged from the recorded golden "
                f"schedule at seed {seed} — the policy hook perturbed "
                "the default path"
            )

    fifo_classed = QueryScheduler(admission="fifo").run(classed_workload(64))
    edf_classed = QueryScheduler(admission="edf").run(classed_workload(64))
    if fifo_classed.deadline_miss_rate == 0.0:
        raise SchedulingError(
            "admission regression is vacuous: fifo missed no deadlines "
            "on the deadline-classed canonical workload"
        )
    if not edf_classed.deadline_miss_rate < fifo_classed.deadline_miss_rate:
        raise SchedulingError(
            f"edf did not strictly reduce the deadline-miss rate: "
            f"{edf_classed.deadline_miss_rate:.4f} vs fifo "
            f"{fifo_classed.deadline_miss_rate:.4f}"
        )
    fifo_mixed = QueryScheduler(admission="fifo").run(mixed_workload(64))
    sjf_mixed = QueryScheduler(admission="sjf").run(mixed_workload(64))
    if sjf_mixed.mean_latency > fifo_mixed.mean_latency * (1 + 1e-9):
        raise SchedulingError(
            f"sjf worsened mean latency on the canonical 64-client "
            f"workload: {sjf_mixed.mean_latency:.6f} s vs fifo "
            f"{fifo_mixed.mean_latency:.6f} s"
        )
    return [
        f"admission[{len(seeds)} seeds]: fifo bit-identical to golden "
        f"schedules; edf miss rate "
        f"{edf_classed.deadline_miss_rate:.3f} < fifo "
        f"{fifo_classed.deadline_miss_rate:.3f}; sjf mean latency "
        f"{sjf_mixed.mean_latency:.3f} s <= fifo "
        f"{fifo_mixed.mean_latency:.3f} s  ok"
    ]


def main() -> int:
    rows = run_regression()
    print(render(rows))
    if not all(row.ok() for row in rows):
        return 1
    print(f"all {len(rows)} strategies agree within {DEFAULT_TOLERANCE:g} s")
    for line in run_serve_regression():
        print(line)
    print(
        "serving scheduler deterministic, every arena within capacity and "
        "drained, sharding never regresses the makespan"
    )
    for line in run_fleet_pin_regression():
        print(line)
    print(
        "fleet pin: the one serving loop reproduces the retired batch "
        "re-simulation's outcomes"
    )
    for line in run_stream_regression():
        print(line)
    print(
        "streaming admission: compacted == uncompacted == batch on every "
        "outcome; compaction is pure bookkeeping"
    )
    for line in run_golden_regression():
        print(line)
    print(
        "heterogeneous-fleet refactor: homogeneous fleets unchanged "
        "against the recorded golden schedules"
    )
    for line in run_fault_regression():
        print(line)
    print(
        "fault injection: empty plans inert, crashes recovered with "
        "exact conservation"
    )
    for line in run_admission_regression():
        print(line)
    print(
        "admission policies: fifo inert against the golden schedules, "
        "reordering policies win their metrics"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
