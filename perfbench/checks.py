"""Correctness checks that count into the benchmark's failed operations.

Each check returns a list of failure messages; an empty list passes.
The pinned files live in ``perfbench/pins/`` and are written by
``perfbench/pin.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

PINS = Path(__file__).resolve().parent / "pins"
FIGURE_PIN = PINS / "figures.json"
DIGEST_PIN = PINS / "stream_digests.json"
#: Stream seeds ``0 .. PINNED_SEEDS-1`` have a pinned outcome digest.
PINNED_SEEDS = 32


def load_pin(path: Path) -> dict:
    """The pinned JSON at ``path``; ``{}`` before anything is pinned, so
    every figure and every pinned stream seed then fails as unpinned."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


# -- paper figures --------------------------------------------------------
def figure_mismatches(name: str, series: dict, pinned: dict) -> list[str]:
    """Compare one figure's series with the pinned snapshot at tolerance
    0: every label, every x and every y must match exactly (``None``
    marks a point where the strategy does not run)."""
    stored = pinned.get(name)
    if stored is None:
        return [f"{name}: no pinned series"]
    fresh = json.loads(json.dumps(series))
    if fresh == stored:
        return []
    problems = []
    for label in sorted(set(stored) | set(fresh)):
        if stored.get(label) != fresh.get(label):
            problems.append(
                f"{name}/{label}: pinned {stored.get(label)!r:.120} "
                f"!= measured {fresh.get(label)!r:.120}"
            )
    return problems


# -- serving streams ------------------------------------------------------
def stream_digest(report: Any) -> str:
    """sha256 over each arrival's verdict and device, ordered by qid,
    plus the simulated makespan."""
    rows = [(o.qid, "done", o.device) for o in report.outcomes]
    rows += [(s.qid, f"shed:{s.reason}", -1) for s in report.shed]
    rows += [
        (f.qid, f"failed:{f.reason}", -1 if f.last_device is None else f.last_device)
        for f in report.failed
    ]
    rows.sort()
    text = "\n".join(f"{qid} {verdict} {device}" for qid, verdict, device in rows)
    text += f"\nmakespan {report.makespan!r}\narrivals {report.arrivals}"
    return hashlib.sha256(text.encode()).hexdigest()


def digest_mismatches(workload: str, seed: int, digest: str, pinned: dict) -> list[str]:
    """Fail when ``digest`` differs from the one pinned for this workload
    and seed, or when a seed below ``PINNED_SEEDS`` has no pin; later
    seeds pass unpinned (the invariant audit still runs)."""
    expected = pinned.get(workload, {}).get(str(seed))
    if expected is None:
        if seed < PINNED_SEEDS:
            return [f"{workload} seed {seed}: no pinned outcome digest"]
        return []
    if expected == digest:
        return []
    return [f"{workload} seed {seed}: outcome digest {digest} != pinned {expected}"]


# -- functional joins -----------------------------------------------------
def reference_aggregate(
    build_key: np.ndarray,
    build_payload: np.ndarray,
    probe_key: np.ndarray,
    probe_payload: np.ndarray,
) -> tuple[int, int, int]:
    """(matches, build payload sum, probe payload sum) of the equi-join,
    by sorting the build side and binary-searching every probe key —
    independent of the program's kernels, duplicates on either side
    included."""
    order = np.argsort(build_key, kind="stable")
    keys = build_key[order]
    prefix = np.concatenate(([0], np.cumsum(build_payload[order], dtype=np.int64)))
    lo = np.searchsorted(keys, probe_key, side="left")
    hi = np.searchsorted(keys, probe_key, side="right")
    counts = hi - lo
    return (
        int(counts.sum()),
        int((prefix[hi] - prefix[lo]).sum()),
        int((probe_payload * counts).sum()),
    )


def aggregate_mismatches(label: str, aggregate: Any, expected: tuple[int, int, int]) -> list[str]:
    measured = (
        aggregate.matches,
        aggregate.build_payload_sum,
        aggregate.probe_payload_sum,
    )
    if measured == tuple(expected):
        return []
    return [f"{label}: aggregate {measured} != reference {tuple(expected)}"]
