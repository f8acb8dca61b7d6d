"""The fleet pin: ``QueryScheduler.run`` against the outcomes the
retired batch re-simulation loop recorded (``golden_fleet.json``,
captured by ``tools/capture_serve_golden.py``).

Every :data:`~repro.bench.regress.FLEET_PIN_SETUPS` setup — least-loaded
and stealing fleets, a 2x-calibrated device, add/retire fleet events,
sjf and edf admission, and seeded fault plans — must reproduce the
recorded sharded fingerprint, failed list and makespan bit for bit on
every pinned seed.
"""

import json

import pytest

from repro.bench.regress import (
    FLEET_PIN_PATH,
    FLEET_PIN_SEEDS,
    FLEET_PIN_SETUPS,
    fleet_pin_entry,
    fleet_pin_report,
)

PIN = json.loads(FLEET_PIN_PATH.read_text(encoding="utf-8"))["fleet"]


def test_pin_covers_every_setup_and_seed():
    assert sorted(PIN) == sorted(FLEET_PIN_SETUPS)
    for setup in FLEET_PIN_SETUPS:
        assert sorted(PIN[setup], key=int) == [str(s) for s in FLEET_PIN_SEEDS]
    # Not vacuous: the fault setup fails some queries and the elastic
    # setup places work on the device that joins mid-run.
    assert any(entry["failed"] for entry in PIN["faults_2"].values())
    assert any(
        row[1] == 2
        for entry in PIN["elastic_2"].values()
        for row in entry["fingerprint_sharded"]
    )


@pytest.mark.parametrize("setup", FLEET_PIN_SETUPS)
def test_run_matches_the_recorded_batch_outcomes(setup):
    for seed in FLEET_PIN_SEEDS:
        entry = fleet_pin_entry(fleet_pin_report(setup, seed))
        assert entry == PIN[setup][str(seed)], (setup, seed)
