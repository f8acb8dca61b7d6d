"""Figure snapshots and regression comparison.

The calibration constants are supposed to be touched rarely and as a
whole; this module makes that safe: ``snapshot()`` stores every figure's
series as JSON, and ``compare()`` reports any point that moved beyond a
tolerance — so a model change that silently bends a curve the paper
pinned down is caught in review.

CLI::

    python -m repro.bench --snapshot baseline.json
    python -m repro.bench --compare baseline.json --tolerance 0.05
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import FigureResult
from repro.errors import InvalidConfigError

SNAPSHOT_VERSION = 1


def figure_to_dict(result: FigureResult) -> dict:
    return {
        series.label: [[x, y] for x, y in series.points]
        for series in result.series
    }


def snapshot(
    path: str | Path,
    *,
    scale: float = 1.0,
    figures: dict | None = None,
) -> dict:
    """Run every figure and store the series to ``path`` (JSON)."""
    figures = figures or ALL_FIGURES
    payload = {
        "version": SNAPSHOT_VERSION,
        "scale": scale,
        "figures": {
            name: figure_to_dict(fn(scale=scale)) for name, fn in figures.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return payload


@dataclass(frozen=True)
class Deviation:
    """One point that moved beyond the tolerance."""

    figure: str
    series: str
    x: float
    reference: float | None
    measured: float | None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.figure}/{self.series} @ x={self.x}: "
            f"{self.reference} -> {self.measured}"
        )


def compare(
    path: str | Path,
    *,
    tolerance: float = 0.05,
    figures: dict | None = None,
) -> list[Deviation]:
    """Re-run the figures and diff them against a stored snapshot.

    Returns every (figure, series, x) whose value moved by more than
    ``tolerance`` relatively — including points that flipped between
    "runs" and "fails" — and every point present on one side only: a
    figure, series or x the snapshot lacks is reported with reference
    ``None``, one the fresh run lacks with measured ``None``.  Stored
    figures outside ``figures`` are not re-run.
    """
    reference = json.loads(Path(path).read_text())
    if reference.get("version") != SNAPSHOT_VERSION:
        raise InvalidConfigError(
            f"snapshot version mismatch: {reference.get('version')!r}"
        )
    scale = float(reference.get("scale", 1.0))
    figures = figures or ALL_FIGURES

    deviations: list[Deviation] = []
    for name, run in figures.items():
        stored = reference["figures"].get(name, {})
        fresh = figure_to_dict(run(scale=scale))
        for label in _union(stored, fresh):
            stored_points = dict(stored.get(label, []))
            fresh_points = dict(fresh.get(label, []))
            for x in _union(stored_points, fresh_points):
                ref_y = stored_points.get(x)
                new_y = fresh_points.get(x)
                if x not in stored_points or x not in fresh_points:
                    deviations.append(Deviation(name, label, x, ref_y, new_y))
                elif ref_y is None or new_y is None:
                    if ref_y != new_y:
                        deviations.append(Deviation(name, label, x, ref_y, new_y))
                elif abs(new_y - ref_y) / max(abs(ref_y), 1e-12) > tolerance:
                    deviations.append(Deviation(name, label, x, ref_y, new_y))
    return deviations


def _union(stored: dict, fresh: dict) -> list:
    """The keys of ``stored``, then those only ``fresh`` has, in order."""
    return [*stored, *(key for key in fresh if key not in stored)]
