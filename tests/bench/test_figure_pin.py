"""Every paper figure, recomputed cold at scale 1.0, equals its pin.

``perfbench/pins/figures.json`` is the benchmark's pinned snapshot of
every ``ALL_FIGURES`` series.  This test only reads it.  It runs at the
pinned scale because smaller scales never pack more than one
co-processing working set, so the multi-working-set paths would go
unchecked.
"""

import json
from pathlib import Path

import pytest

from repro.bench.compare import figure_to_dict
from repro.bench.figures import ALL_FIGURES
from repro.core import estimate_cache

FIGURE_PIN = Path(__file__).resolve().parents[2] / "perfbench" / "pins" / "figures.json"


@pytest.fixture(scope="module")
def pinned() -> dict:
    payload = json.loads(FIGURE_PIN.read_text())
    assert payload["scale"] == 1.0
    return payload["figures"]


def test_pin_covers_every_figure(pinned):
    assert sorted(pinned) == sorted(ALL_FIGURES)


@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_figure_equals_pin(name, pinned):
    estimate_cache.clear()
    fresh = json.loads(json.dumps(figure_to_dict(ALL_FIGURES[name](scale=1.0))))
    assert fresh == pinned[name]
