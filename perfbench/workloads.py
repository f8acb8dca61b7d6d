"""The benchmark's workloads: set-up, one measured pass, and its checks.

Every workload runs one pass per fresh interpreter (see ``run.py``):
the program keeps process-wide caches (estimate, plan and ladder caches,
memoized Zipf moments), so a second pass in the same process would
measure warm caches, and one workload would speed up or slow down the
next.  ``setup`` builds every input from the seed; ``run`` is the timed
pass and hands the program only those inputs; ``check`` returns
``(operations attempted, one message per failed operation)``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from perfbench import checks
from perfbench.metrics import EXECUTE_STRATEGIES
from perfbench.tracer import Tracer

# -- serving streams --------------------------------------------------------
STREAM_ARRIVALS = 20_000
STREAM_RATE = 200.0  # arrivals per simulated second (open loop)
STREAM_DEVICES = 2
STREAM_MAX_RETRIES = 3
#: Crashes land in the first 2% of the arrival window, so every seed
#: runs nearly all of its stream on the surviving device and seeds do
#: the same amount of work (a crash near the end would leave a nearly
#: fault-free run, and a crash anywhere in a wide window makes the pass
#: time depend on where it fell).
CRASH_WINDOW = 0.02

# -- functional joins -------------------------------------------------------
JOIN_BUILD = 1 << 18
JOIN_PROBE = 4 * JOIN_BUILD  # the paper's 1:4 build:probe microbenchmark
ZIPF_S = 1.0


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Any]
    run: Callable[[Any, "Tracer | None"], Any]
    check: Callable[[int, Any, Any], "tuple[int, list[str]]"]
    #: (inputs, output, wall seconds) -> {name: (value, unit)}, printed
    #: as context lines, never as benchmark metrics.
    extras: Callable[[Any, Any, float], "dict[str, tuple[float, str]]"]
    #: output -> per-layer values the program reports itself.
    layer_values: Callable[[Any], "dict[str, float]"]


def _nothing(output: Any) -> dict[str, float]:
    return {}


# -- streams ----------------------------------------------------------------
@dataclass
class StreamInputs:
    requests: list
    scheduler: Any
    options: dict


def crash_plan(seed: int) -> Any:
    """A one-crash plan derived from ``seed``: ``FaultPlan.random``
    sparing one device, at the first seed offset that crashes at all."""
    from repro.serve import FaultPlan

    horizon = CRASH_WINDOW * STREAM_ARRIVALS / STREAM_RATE
    for offset in itertools.count():
        plan = FaultPlan.random(
            seed + offset,
            devices=STREAM_DEVICES,
            horizon=horizon,
            allow_total_loss=False,
        )
        if plan.crashes:
            return plan


def _stream_setup(seed: int, *, chaos: bool) -> StreamInputs:
    from repro.bench.serve_bench import DEFAULT_STREAM_COMPACT, DEFAULT_STREAM_QUEUE
    from repro.serve import DEADLINE_CLASSES, QueryScheduler, stream_workload

    requests = list(
        stream_workload(
            STREAM_ARRIVALS,
            arrival_rate=STREAM_RATE,
            seed=seed,
            classes=DEADLINE_CLASSES if chaos else None,
        )
    )
    scheduler = QueryScheduler(
        devices=STREAM_DEVICES,
        placement="least_loaded",
        admission="edf" if chaos else "fifo",
        max_retries=STREAM_MAX_RETRIES,
    )
    options = {
        "max_queue_depth": DEFAULT_STREAM_QUEUE,
        "compact_every": DEFAULT_STREAM_COMPACT,
    }
    if chaos:
        options["faults"] = crash_plan(seed)
    return StreamInputs(requests, scheduler, options)


def _stream_run(inputs: StreamInputs, tracer: "Tracer | None") -> Any:
    if tracer is None:
        return inputs.scheduler.run_stream(iter(inputs.requests), **inputs.options)
    run_stream = tracer.wrap("serve.scheduler", inputs.scheduler.run_stream)
    return run_stream(tracer.timed_pulls(inputs.requests), **inputs.options)


def _stream_check(name: str) -> Callable[[int, StreamInputs, Any], "tuple[int, list[str]]"]:
    def check(seed: int, inputs: StreamInputs, report: Any) -> tuple[int, list[str]]:
        from repro.bench.serve_bench import verify_stream_report
        from repro.errors import ReproError

        failures = []
        try:
            verify_stream_report(report, compact_every=inputs.options["compact_every"])
        except ReproError as exc:
            failures.append(f"verify_stream_report: {exc}")
        failures += checks.digest_mismatches(
            name, seed, checks.stream_digest(report), checks.load_pin(checks.DIGEST_PIN)
        )
        return 1, ["; ".join(failures)] if failures else []

    return check


def _stream_extras(report: Any, wall: float) -> dict:
    return {
        "arrivals_per_s": (report.arrivals / wall, "1/s"),
        "sim_completed": (report.completed, "count"),
        "sim_shed": (report.shed_count, "count"),
        "sim_failed": (report.failed_count, "count"),
        "sim_makespan_s": (report.makespan, "s"),
        "outcome_digest": (checks.stream_digest(report), "sha256"),
    }


def _stream_retries(report: Any) -> int:
    """Retries of completed and of failed queries (``FailedOutcome.attempts``
    already counts the retries made); a shed outcome does not record
    the retries before it, so those are not counted."""
    return sum(o.retries for o in report.outcomes) + sum(f.attempts for f in report.failed)


# -- paper figures ----------------------------------------------------------
def _figures_setup(seed: int) -> dict:
    # The figures are the paper's fixed experiments at scale 1.0; the
    # seed does not enter them.
    from repro.bench.figures import ALL_FIGURES

    return dict(ALL_FIGURES)


def _figures_run(figures: dict, tracer: "Tracer | None") -> dict:
    from repro.bench.compare import figure_to_dict

    series = {}
    for name, fn in figures.items():
        if tracer is not None:
            fn = tracer.wrap(f"bench.figures.{name}", fn)
        series[name] = figure_to_dict(fn(scale=1.0))
    return series


def _figures_check(seed: int, figures: dict, series: dict) -> tuple[int, list[str]]:
    pinned = checks.load_pin(checks.FIGURE_PIN).get("figures", {})
    failures = []
    for name in figures:
        mismatches = checks.figure_mismatches(name, series.get(name, {}), pinned)
        if mismatches:
            failures.append("; ".join(mismatches))
    return len(figures), failures


def _figures_extras(figures: dict, series: dict, wall: float) -> dict:
    points = sum(len(p) for s in series.values() for p in s.values())
    return {"figure_points_per_s": (points / wall, "1/s")}


# -- functional joins -------------------------------------------------------
@dataclass
class JoinInputs:
    pairs: dict  # label -> (build Relation, probe Relation)
    strategies: dict  # registry key -> strategy instance
    references: dict  # label -> (matches, build payload sum, probe payload sum)


def zipf_keys(rng: np.random.Generator, domain: np.ndarray, s: float, size: int) -> np.ndarray:
    """``size`` draws from ``domain`` with Zipf(``s``) rank popularity;
    rank ``r`` maps to ``domain[r]``, so hot keys are spread over the
    key space rather than clustered at small values."""
    weights = 1.0 / np.arange(1, domain.shape[0] + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return domain[np.minimum(ranks, domain.shape[0] - 1)]


def _join_setup(seed: int) -> JoinInputs:
    from repro.core import create_strategy
    from repro.data.relation import Relation

    rng = np.random.default_rng(seed)
    build_keys = rng.permutation(JOIN_BUILD).astype(np.int64)
    probes = {
        "uniform": rng.integers(0, JOIN_BUILD, size=JOIN_PROBE, dtype=np.int64),
        "zipf": zipf_keys(rng, build_keys, ZIPF_S, JOIN_PROBE),
    }
    pairs = {
        label: (
            Relation.from_keys(build_keys, name="build"),
            Relation.from_keys(keys, name=f"probe_{label}"),
        )
        for label, keys in probes.items()
    }
    references = {
        label: checks.reference_aggregate(b.key, b.payload, p.key, p.payload)
        for label, (b, p) in pairs.items()
    }
    strategies = {key: create_strategy(key) for key in EXECUTE_STRATEGIES}
    return JoinInputs(pairs, strategies, references)


def _join_run(inputs: JoinInputs, tracer: "Tracer | None") -> dict:
    aggregates = {}
    for label, (build, probe) in inputs.pairs.items():
        for key, strategy in inputs.strategies.items():
            execute = strategy.execute
            if tracer is not None:
                execute = tracer.wrap(f"core.execute.{key}", execute)
            aggregates[(label, key)] = execute(build, probe).aggregate
    return aggregates


def _join_check(seed: int, inputs: JoinInputs, aggregates: dict) -> tuple[int, list[str]]:
    failures = []
    for (label, key), aggregate in aggregates.items():
        failures += checks.aggregate_mismatches(
            f"{label}/{key}", aggregate, inputs.references[label]
        )
    return len(aggregates), failures


def _join_extras(inputs: JoinInputs, aggregates: dict, wall: float) -> dict:
    tuples = sum(
        (build.num_tuples + probe.num_tuples) * len(inputs.strategies)
        for build, probe in inputs.pairs.values()
    )
    return {"join_tuples_per_s": (tuples / wall, "1/s")}


# -- serving: the steady stream, then the SLO + chaos stream ----------------
@dataclass
class ServingInputs:
    steady: StreamInputs
    chaos: StreamInputs


@dataclass
class ServingOutput:
    steady: Any  # StreamReport
    chaos: Any
    steady_s: float
    chaos_s: float


def _serving_setup(seed: int) -> ServingInputs:
    return ServingInputs(_stream_setup(seed, chaos=False), _stream_setup(seed, chaos=True))


def _serving_run(inputs: ServingInputs, tracer: "Tracer | None") -> ServingOutput:
    start = time.perf_counter()
    steady = _stream_run(inputs.steady, tracer)
    middle = time.perf_counter()
    chaos = _stream_run(inputs.chaos, tracer)
    return ServingOutput(steady, chaos, middle - start, time.perf_counter() - middle)


def _serving_check(seed: int, inputs: ServingInputs, output: ServingOutput) -> tuple[int, list[str]]:
    steady, steady_failures = _stream_check("stream_steady")(seed, inputs.steady, output.steady)
    chaos, chaos_failures = _stream_check("stream_slo_chaos")(seed, inputs.chaos, output.chaos)
    return steady + chaos, steady_failures + chaos_failures


def _serving_extras(inputs: ServingInputs, output: ServingOutput, wall: float) -> dict:
    extras = {"steady_s": (output.steady_s, "s"), "chaos_s": (output.chaos_s, "s")}
    for label, report, seconds in (
        ("steady", output.steady, output.steady_s),
        ("chaos", output.chaos, output.chaos_s),
    ):
        for name, value in _stream_extras(report, seconds).items():
            extras[f"{label}_{name}"] = value
    return extras


def _serving_layer_values(output: ServingOutput) -> dict[str, float]:
    """Model outputs over both streams' arrivals; the deadline-miss rate
    is the SLO stream's, the only one with deadlines."""
    from repro.serve.scheduler import percentile

    reports = (output.steady, output.chaos)
    arrivals = sum(r.arrivals for r in reports)
    return {
        "sim_shed_rate": sum(r.shed_count for r in reports) / arrivals,
        "sim_failed_rate": sum(r.failed_count for r in reports) / arrivals,
        "sim_p99_latency_s": percentile(
            [o.latency_seconds for r in reports for o in r.outcomes], 0.99
        ),
        "sim_deadline_miss_rate": output.chaos.deadline_miss_rate,
        "serve.faults.retries": sum(_stream_retries(r) for r in reports),
    }


# -- the paper: figures, then functional joins -------------------------------
@dataclass
class PaperInputs:
    figures: dict
    joins: JoinInputs


@dataclass
class PaperOutput:
    series: dict
    aggregates: dict
    figures_s: float
    joins_s: float


def _paper_setup(seed: int) -> PaperInputs:
    return PaperInputs(_figures_setup(seed), _join_setup(seed))


def _paper_run(inputs: PaperInputs, tracer: "Tracer | None") -> PaperOutput:
    start = time.perf_counter()
    series = _figures_run(inputs.figures, tracer)
    middle = time.perf_counter()
    aggregates = _join_run(inputs.joins, tracer)
    return PaperOutput(series, aggregates, middle - start, time.perf_counter() - middle)


def _paper_check(seed: int, inputs: PaperInputs, output: PaperOutput) -> tuple[int, list[str]]:
    figures, figure_failures = _figures_check(seed, inputs.figures, output.series)
    joins, join_failures = _join_check(seed, inputs.joins, output.aggregates)
    return figures + joins, figure_failures + join_failures


def _paper_extras(inputs: PaperInputs, output: PaperOutput, wall: float) -> dict:
    return {
        "figures_s": (output.figures_s, "s"),
        "joins_s": (output.joins_s, "s"),
        **_figures_extras(inputs.figures, output.series, output.figures_s),
        **_join_extras(inputs.joins, output.aggregates, output.joins_s),
    }


WORKLOADS: dict[str, Workload] = {
    "serving": Workload(
        _serving_setup,
        _serving_run,
        _serving_check,
        _serving_extras,
        _serving_layer_values,
    ),
    "paper": Workload(
        _paper_setup,
        _paper_run,
        _paper_check,
        _paper_extras,
        _nothing,
    ),
}


# -- traced-run instrumentation --------------------------------------------
def _radix_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Bytes a radix partition moves: every pass reads and writes each
    tuple once."""
    relation = args[0] if args else kwargs["relation"]
    bits_per_pass = args[1] if len(args) > 1 else kwargs["bits_per_pass"]
    moved = 2 * relation.num_tuples * relation.tuple_bytes * len(bits_per_pass)
    return {"kernels.radix_partition.bytes": moved}


#: (kind, "module:attribute", span name, tally)
SPANS = (
    ("function", "repro.core.strategy:create_strategy", "core.strategy.create", None),
    ("function", "repro.core.planner:choose_strategy_name", "core.planner.choose", None),
    ("method", "repro.core.strategy:PipelinedJoinStrategy.estimate", "core.estimate", None),
    ("method", "repro.serve.placement:PlacementPolicy.select", "serve.placement.select", None),
    ("method", "repro.serve.admission:AdmissionPolicy.select", "serve.admission.select", None),
    ("method", "repro.pipeline.engine:PipelineEngine.extend", "pipeline.engine.extend", None),
    ("method", "repro.pipeline.engine:PipelineEngine.compact", "pipeline.engine.compact", None),
    ("method", "repro.pipeline.engine:PipelineEngine.run", "pipeline.engine.run", None),
    ("method", "repro.data.relation:Relation.distinct_keys", "data.distinct_keys", None),
    ("function", "repro.kernels.radix_partition:gpu_radix_partition", "kernels.radix_partition", _radix_bytes),
    ("function", "repro.kernels.build_hash:build_copartition_tables", "kernels.build", None),
    ("function", "repro.kernels.probe_hash:probe_copartitions", "kernels.probe", None),
    ("function", "repro.kernels.nonpartitioned:chaining_join", "kernels.nonpartitioned", None),
    ("function", "repro.kernels.aggregate:aggregate_pairs", "kernels.aggregate", None),
)

#: Too frequent for spans: counted only.  (target, counter, failed?)
COUNTS = (
    ("repro.gpusim.calibration:Calibration.validate", "gpusim.calibration.validate", None),
    ("repro.gpusim.arena:DeviceMemoryArena.try_reserve", "gpusim.arena.reserve", lambda ok: not ok),
)


def install(tracer: Tracer) -> None:
    """Patch every traced layer callable of the program."""
    import repro.bench.figures  # noqa: F401 - bind every module before patching
    import repro.serve  # noqa: F401
    from repro.core import registered_strategies

    registered_strategies()
    for kind, target, name, tally in SPANS:
        make = lambda fn, name=name, tally=tally: tracer.wrap(name, fn, tally)  # noqa: E731
        if kind == "function":
            tracer.patch_function(target, make)
        else:
            tracer.patch_method(target, make)
    for target, name, failed in COUNTS:
        tracer.patch_method(
            target, lambda fn, name=name, failed=failed: tracer.count(name, fn, failed)
        )

