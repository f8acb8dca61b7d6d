"""Names and units of every metric the benchmark prints.

``END_TO_END`` is what an untraced run reports on every workload;
``PER_LAYER`` is what a traced run reports.  ``BENCHMARK.json`` at the
repository root declares the same lists (a test keeps them equal).
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: name -> unit; all are "lower is better".
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

FIGURES = tuple(f"fig{n:02d}" for n in range(5, 23))
EXECUTE_STRATEGIES = ("gpu_resident", "gpu_nonpartitioned", "streaming")

#: Layers traced as spans: each reports ``<name>.calls`` and/or
#: ``<name>.s`` (inclusive seconds of the outermost calls).
_SPAN_METRICS = (
    ("serve.placement.select", ("calls", "s")),
    ("core.strategy.create", ("calls", "s")),
    ("pipeline.engine.extend", ("calls", "s")),
    ("pipeline.engine.compact", ("calls", "s")),
    ("serve.admission.select", ("calls", "s")),
    ("core.estimate", ("calls", "s")),
    ("core.planner.choose", ("calls", "s")),
    ("pipeline.engine.run", ("calls", "s")),
    ("data.distinct_keys", ("s",)),
    ("kernels.radix_partition", ("s",)),
    ("kernels.build", ("s",)),
    ("kernels.probe", ("s",)),
    ("kernels.nonpartitioned", ("s",)),
    ("kernels.aggregate", ("s",)),
)

_UNITS = {"calls": "count", "s": "s"}

PER_LAYER: dict[str, str] = {
    "serve.scheduler.self_s": "s",
    "serve.scheduler.ingest_gap_us.p50": "us",
    "serve.scheduler.ingest_gap_us.p99": "us",
    **{
        f"{name}.{suffix}": _UNITS[suffix]
        for name, suffixes in _SPAN_METRICS
        for suffix in suffixes
    },
    "gpusim.calibration.validate.calls": "count",
    "gpusim.arena.reserve.calls": "count",
    "gpusim.arena.reserve.fail_ratio": "ratio",
    "serve.faults.retries": "count",
    "core.estimate_cache.hit_ratio": "ratio",
    "core.estimate_cache.plan_hit_ratio": "ratio",
    "core.estimate_cache.ladder_hit_ratio": "ratio",
    "core.estimate_cache.evictions": "count",
    "kernels.radix_partition.bytes": "bytes",
    **{f"bench.figures.{fig}.s": "s" for fig in FIGURES},
    **{f"core.execute.{key}.s": "s" for key in EXECUTE_STRATEGIES},
    "sim_shed_rate": "ratio",
    "sim_failed_rate": "ratio",
    "sim_p99_latency_s": "s",
    "sim_deadline_miss_rate": "ratio",
    "trace.overhead_ratio": "ratio",
}


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None
