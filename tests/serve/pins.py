"""Batch-mode outcome pins for the serving property suites.

Before batch re-simulation retired, the suites compared
``QueryScheduler.run`` (one full per-device re-simulation per admission
wave) against the incremental loop on every configuration below.  Those
batch outcomes were recorded once, as digests, by
``tools/capture_serve_golden.py`` into ``golden_fleet.json``
(``"digests"``); the suites now compare the one serving loop against
them.  :data:`CASES` names every recorded configuration and builds its
report, so tests and the capture tool run exactly the same thing.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from repro.bench.serve_bench import fingerprint_sharded
from repro.gpusim.calibration import calibration_preset
from repro.serve import (
    FaultPlan,
    QueryScheduler,
    ServeReport,
    mixed_workload,
    random_workload,
    with_classes,
)
from repro.serve.admission import registered_admission_policies

PIN_PATH = Path(__file__).parent / "golden_fleet.json"

#: Per-device capacity of the default system, in bytes.
DEFAULT_CAP = 8_589_934_592
#: Seeds of the chaos suite (``tests/serve/test_faults.py``).
CHAOS_SEEDS = range(102)


def digest(report: ServeReport, *, schedule: bool = False) -> str:
    """Exact digest of a report's pinned facts: sharded outcome
    fingerprint, failures (by qid), makespan and per-device peaks —
    plus every task's (start, finish, lane) when ``schedule`` is set.  Floats go
    through ``repr`` (JSON), so equal digests mean bit-identical
    values."""
    payload: list = [
        [list(item) for item in fingerprint_sharded(report)],
        sorted(
            [f.qid, f.reason, f.attempts, f.last_device] for f in report.failed
        ),
        report.makespan,
        list(report.device_peak_bytes),
    ]
    if schedule:
        payload.append(
            sorted(
                [name, item.start, item.finish, item.lane]
                for name, item in report.schedule.tasks.items()
            )
        )
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random(seed: int, devices: int, **kwargs) -> ServeReport:
    return QueryScheduler(devices=devices, **kwargs).run(random_workload(seed))


def _policy(seed: int, policy: str, devices: int) -> ServeReport:
    return QueryScheduler(devices=devices, admission=policy).run(
        with_classes(random_workload(seed))
    )


def _hetero(seed: int) -> ServeReport:
    return QueryScheduler(
        devices=2,
        device_capacities=[DEFAULT_CAP, 4_000_000_000],
        device_calibrations=[
            calibration_preset("fast"),
            calibration_preset("slow"),
        ],
    ).run(random_workload(seed))


def _steal() -> ServeReport:
    from tests.serve.test_hetero import STEAL_CAPS, _steal_workload

    return QueryScheduler(
        devices=2, device_capacities=STEAL_CAPS, steal=True
    ).run(_steal_workload())


def _chaos(seed: int) -> ServeReport:
    devices = 1 + seed % 3
    requests = random_workload(seed)
    base = QueryScheduler(devices=devices).run(requests)
    plan = FaultPlan.random(
        seed,
        devices=devices,
        horizon=base.makespan,
        qids=[request.qid for request in requests],
        admission_fault_rate=0.25,
    )
    return QueryScheduler(devices=devices).run(requests, faults=plan)


def _mixed(clients: int, spacing: float = 0.0, **kwargs) -> ServeReport:
    return QueryScheduler(**kwargs).run(
        mixed_workload(clients, spacing_seconds=spacing)
    )


def _build_cases() -> dict[str, tuple[Callable[[], ServeReport], bool]]:
    """name -> (report builder, digest includes the schedule)."""
    cases: dict[str, tuple[Callable[[], ServeReport], bool]] = {}
    for seed in range(200):
        for devices in (2, 3):
            cases[f"differential/{seed}/{devices}"] = (
                partial(_random, seed, devices), False
            )
    for seed in range(100):
        for policy in registered_admission_policies():
            for devices in (1, 2, 3):
                cases[f"policies/{seed}/{policy}/{devices}"] = (
                    partial(_policy, seed, policy, devices), False
                )
    for placement in ("first_fit", "round_robin"):
        for seed in range(25):
            cases[f"placement/{placement}/{seed}"] = (
                partial(_random, seed, 2, placement=placement), False
            )
    for seed in range(10):
        cases[f"hetero/{seed}"] = (partial(_hetero, seed), False)
    cases["steal"] = (_steal, False)
    for seed in CHAOS_SEEDS:
        cases[f"chaos/{seed}"] = (partial(_chaos, seed), False)
    for clients in (1, 4, 8):
        cases[f"online/batched/{clients}"] = (partial(_mixed, clients), True)
    for spacing in (0.05, 0.25, 1.0):
        cases[f"online/staggered/{spacing}"] = (
            partial(_mixed, 8, spacing), True
        )
    cases["online/eager"] = (partial(_mixed, 8, max_degradation=None), False)
    cases["online/lanes"] = (partial(_mixed, 4, lanes={"h2d": 2}), True)
    cases["lanes/sharded"] = (
        partial(_mixed, 8, devices=2, lanes={"h2d": 2}), False
    )
    return cases


CASES = _build_cases()


def capture_digests() -> dict[str, str]:
    """Digest every case (the capture tool's ``"digests"`` section)."""
    return {
        name: digest(build(), schedule=schedule)
        for name, (build, schedule) in CASES.items()
    }


@lru_cache(maxsize=None)
def _pinned() -> dict[str, str]:
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))["digests"]


def report(name: str) -> ServeReport:
    """Serve case ``name`` and assert it matches its recorded batch
    digest; returns the report for further checks."""
    build, schedule = CASES[name]
    served = build()
    assert digest(served, schedule=schedule) == _pinned()[name], (
        f"{name}: outcome diverged from the recorded batch-mode pin"
    )
    return served
