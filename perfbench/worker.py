"""One benchmark pass in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Builds the workload's inputs, stamps ``ready`` (``time.monotonic``, the
clock ``run.py`` stamped at spawn), times one pass, checks its outputs
and prints one JSON object as the last line of standard output.  With
``--trace`` the program's layers are wrapped for the pass, the
per-layer values are added and the spans are written to
``spans_path(workload, seed)``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import PER_LAYER  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, install  # noqa: E402


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced pass writes its spans."""
    return ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-seed{seed}.npz"


def layer_values(tracer: Tracer, program_values: dict[str, float]) -> tuple[dict, list]:
    """Per-layer metric values of a traced pass, and a self-time table
    (name, calls, inclusive s, self s) sorted by self time."""
    from repro.core import estimate_cache
    from repro.serve.scheduler import percentile

    totals = tracer.fold()
    values: dict[str, float] = {}
    for name, total in totals.items():
        values[f"{name}.calls"] = total.calls
        values[f"{name}.s"] = total.inclusive_s
    scheduler = totals.get("serve.scheduler")
    values["serve.scheduler.self_s"] = scheduler.self_s if scheduler else 0.0
    gaps = tracer.ingest_gaps_us()
    values["serve.scheduler.ingest_gap_us.p50"] = percentile(gaps, 0.50)
    values["serve.scheduler.ingest_gap_us.p99"] = percentile(gaps, 0.99)
    counts = tracer.counts
    values["gpusim.calibration.validate.calls"] = counts.get("gpusim.calibration.validate", 0)
    reserves = counts.get("gpusim.arena.reserve", 0)
    values["gpusim.arena.reserve.calls"] = reserves
    values["gpusim.arena.reserve.fail_ratio"] = (
        counts.get("gpusim.arena.reserve.failed", 0) / reserves if reserves else 0.0
    )
    values["kernels.radix_partition.bytes"] = counts.get("kernels.radix_partition.bytes", 0)
    stats = estimate_cache.stats()

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    values["core.estimate_cache.hit_ratio"] = ratio(stats.hits, stats.misses)
    values["core.estimate_cache.plan_hit_ratio"] = ratio(stats.plan_hits, stats.plan_misses)
    values["core.estimate_cache.ladder_hit_ratio"] = ratio(stats.ladder_hits, stats.ladder_misses)
    values["core.estimate_cache.evictions"] = (
        stats.evictions + stats.plan_evictions + stats.ladder_evictions
    )
    values.update(program_values)
    metrics = {
        name: float(values.get(name, 0.0))
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    table = sorted(
        ([name, t.calls, t.inclusive_s, t.self_s] for name, t in totals.items()),
        key=lambda row: -row[3],
    )
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    ready = time.monotonic()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    start = time.perf_counter()
    output = workload.run(inputs, tracer)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    attempted, failures = workload.check(args.seed, inputs, output)
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "extras": workload.extras(inputs, output, wall),
    }
    if tracer is not None:
        result["layers"], result["table"] = layer_values(
            tracer, workload.layer_values(output)
        )
        tracer.dump(spans_path(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
