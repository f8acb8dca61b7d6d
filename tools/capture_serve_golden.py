#!/usr/bin/env python
"""Capture golden serving schedules.

Writes ``tests/serve/golden_single_device.json``: the per-query outcome
fingerprint, makespan and peak reservation of the **single-device**
scheduler on every randomized property-suite workload
(:func:`repro.serve.workload.random_workload`, seeds ``0..N-1``) plus a
ladder of canonical mixed workloads.  The sharded serving layer's
``devices=1`` mode is pinned bit-identical against this file
(``tests/serve/test_placement_properties.py``), which is what makes the
multi-GPU refactor falsifiable: any drift in admission order, placement,
reservation size or simulated finish times on one device fails the
suite.

Also writes ``tests/serve/golden_fleet.json``, recorded from the batch
re-simulation loop before it retired: ``"fleet"`` holds the sharded
outcome fingerprint, failed list and makespan of every
:data:`~repro.bench.regress.FLEET_PIN_SETUPS` setup on
:data:`~repro.bench.regress.FLEET_PIN_SEEDS` (checked by
``python -m repro.bench.regress`` and ``tests/serve/test_fleet_pin.py``),
and ``"digests"`` the outcome digest of every configuration the
serving property suites used to compare batch and incremental runs on
(``tests/serve/pins.py``).

Re-running this script re-baselines the pin from the *current* code —
only do that deliberately, for a reviewed behaviour change, never to
make a red suite green.  Usage::

    PYTHONPATH=src python tools/capture_serve_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "serve" / "golden_single_device.json"
FLEET_PATH = REPO_ROOT / "tests" / "serve" / "golden_fleet.json"

#: Seeds of the randomized differential suite.
N_SEEDS = 200
#: Canonical mixed-workload ladder: (clients, spacing_seconds).
CANONICAL = ((1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.0), (8, 0.25))


def _entry(report) -> dict:
    from repro.bench.serve_bench import fingerprint

    return {
        "fingerprint": [list(item) for item in fingerprint(report)],
        "makespan": report.makespan,
        "peak_reserved_bytes": report.peak_reserved_bytes,
    }


def capture() -> dict:
    from repro.serve import QueryScheduler, mixed_workload, random_workload

    def run(requests):
        return QueryScheduler().run(requests)

    return {
        "seeds": {
            str(seed): _entry(run(random_workload(seed)))
            for seed in range(N_SEEDS)
        },
        "canonical": {
            f"{clients}x{spacing}": _entry(
                run(mixed_workload(clients, spacing_seconds=spacing))
            )
            for clients, spacing in CANONICAL
        },
    }


def capture_fleet() -> dict:
    from repro.bench.regress import (
        FLEET_PIN_SEEDS,
        FLEET_PIN_SETUPS,
        fleet_pin_entry,
        fleet_pin_report,
    )

    sys.path.insert(0, str(REPO_ROOT))
    from tests.serve.pins import capture_digests

    return {
        "fleet": {
            setup: {
                str(seed): fleet_pin_entry(fleet_pin_report(setup, seed))
                for seed in FLEET_PIN_SEEDS
            }
            for setup in FLEET_PIN_SETUPS
        },
        "digests": capture_digests(),
    }


def main() -> int:
    payload = capture()
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"captured {len(payload['seeds'])} seeds + "
        f"{len(payload['canonical'])} canonical workloads -> "
        f"{GOLDEN_PATH.relative_to(REPO_ROOT)}"
    )
    fleet = capture_fleet()
    FLEET_PATH.write_text(
        json.dumps(fleet, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"captured {len(fleet['fleet'])} fleet setups + "
        f"{len(fleet['digests'])} suite digests -> "
        f"{FLEET_PATH.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
