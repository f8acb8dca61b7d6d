"""Process-wide memoization of analytic strategy estimates.

The analytic ``estimate()`` paths are pure functions of (strategy
configuration, workload spec, keyword arguments): the same inputs always
produce the same :class:`~repro.core.results.JoinMetrics`.  The serving
layer re-plans every admitted query (solo baseline, degraded-placement
estimate, wait-vs-degrade comparison), the planner ladder estimates the
same spec it just sized, and the benchmark sweeps revisit identical
workloads across concurrency levels and determinism re-runs — so the
same kernel costs used to be recomputed hundreds of times per run.

This module provides one shared cache:

* :func:`lookup` / :func:`store` — consulted by
  :meth:`repro.core.strategy.PipelinedJoinStrategy.estimate`; keys are
  built from the strategy's *fingerprint* (class, key, system spec,
  calibration, config, constructor extras), the frozen
  :class:`~repro.data.spec.JoinSpec`, and the estimate kwargs.  Any
  unhashable component simply bypasses the cache.  Per-device
  calibrations of a heterogeneous fleet ride in the fingerprint — two
  devices with different calibrations hash to different keys, so the
  shared cache never serves one device's estimate (or plan) to
  another;
* :func:`cached_ladder_choice` — memoizes the planner ladder's
  feasibility decision per (spec, system, available-bytes);
* :func:`cached_plan` — memoizes ``prepare()``'s analytic
  :class:`~repro.core.strategy.JoinPlan` per strategy fingerprint.
  Plan preparation (chunking, working-set packing, task-graph
  construction) dominated the serving wall clock once estimates were
  cached; the sharded serving layer re-prepares the same (spec,
  placement, memory-grant) combination on every device-placement
  candidate and determinism re-run, so plans are memoized the same way.
  Cached plans are **shared, read-only** objects: callers must not
  mutate ``plan.tasks`` / ``plan.resources`` (the serving scheduler
  only reads them, re-materializing namespaced copies of the tasks);
* :func:`cached_facts` — memoizes co-processing's spec-only kernel
  facts (:class:`~repro.core.coprocessing.CoProcessingFacts`: the
  working-set plan, the expected cardinality, each working set's prep
  seconds, and per (working set, chunk size) the probe-partition, join
  and materialization seconds).  The key is (system, config,
  calibration, ``cpu_bits``, ``device_budget``, spec,
  ``chunk_tuples``): it omits ``threads``, ``materialize``, the class
  and ``staging``, none of which the facts depend on, so a figure's
  thread sweep, both output modes, and plain and adaptive
  co-processing price each working set once.  Entries hold scalars
  only: keeping the per-working-set evaluators (arrays over up to 2^19
  partitions) alive raised the ``paper`` benchmark's peak RSS from
  181 MB to 1353 MB, scalars keep it at 181 MB;
* :func:`clear` / :func:`stats` / :func:`configure` — test and
  benchmark hooks.  :func:`clear` drops all four caches, so a cleared
  process (``bench perf``) measures cold estimates.

All four caches are **LRU-bounded** (:func:`configure`'s
``max_entries``, default :data:`DEFAULT_MAX_ENTRIES` — generous; far
above any benchmark's working set).  A steady-state serving process
admitting an unbounded stream of *distinct* queries therefore holds at
most ``4 * max_entries`` cached objects instead of growing without
limit; a lookup refreshes an entry's recency, and evictions are
counted per cache (``stats().evictions`` / ``plan_evictions`` /
``ladder_evictions`` / ``facts_evictions``) so a thrashing cache shows
up in the ``bench perf`` accounting instead of hiding as slow
estimates.  Eviction never affects results — an evicted entry is
simply recomputed on its next use.  Every insertion evicts *before*
inserting when ``len(cache) >= max_entries`` — the ``>=`` (not ``>``)
comparison is what guarantees no cache ever holds ``max_entries + 1``
entries; ``tests/core/test_estimate_cache.py`` pins the bound for each
cache.

Per-device memory budgets are part of every key already: a strategy's
fingerprint includes its constructor extras (co-processing's
``device_budget`` grant), and the ladder key includes the free bytes
the admission decision saw — so a sharded fleet's devices, each with
its own headroom, share cache entries exactly when their placement
inputs coincide and never otherwise.

Metrics are stored and returned as defensive copies (their ``phases`` /
``notes`` dicts are mutable), so callers can annotate a result without
poisoning later hits.  Correctness does not depend on the cache: with
``configure(enabled=False)`` every estimate recomputes and must produce
the same numbers — asserted by ``tests/core/test_estimate_cache.py``
and by ``bench/regress.py``'s cold-vs-hit column on every strategy.

Caveats: the cache is **process-wide mutable state**.  Deterministic
replay is unaffected (a hit returns exactly what recomputation would),
but wall-clock benchmarks must :func:`clear` between repetitions or
they measure memoization, and tests that disable the cache should
re-enable it (``configure(enabled=True)``) to avoid slowing the rest
of the suite.  All cached metrics are in the cost model's native
units: simulated seconds and bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:
    from repro.core.coprocessing import CoProcessingFacts
    from repro.core.results import JoinMetrics
    from repro.core.strategy import JoinPlan

#: Default per-cache entry cap — far above any benchmark's working set;
#: a bound, not a tuning knob.  Override via :func:`configure`.
DEFAULT_MAX_ENTRIES = 65536


class _Lru:
    """One LRU-bounded cache and its counters."""

    def __init__(self) -> None:
        self.entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.reset_stats()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any:
        """The cached value (refreshing its recency), or ``None``."""
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        # Evict *before* inserting, at ``>=``: the cache never holds
        # ``max_entries + 1`` entries, not even transiently.
        if key in self.entries:
            self.entries.move_to_end(key)
        elif len(self.entries) >= _max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1
        self.entries[key] = value

    def trim(self) -> None:
        while len(self.entries) > _max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1


_estimates = _Lru()
_plans = _Lru()
_ladders = _Lru()
_facts = _Lru()
_CACHES = (_estimates, _plans, _ladders, _facts)
_enabled = True
_max_entries = DEFAULT_MAX_ENTRIES


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of the estimate cache (plan, ladder
    and co-processing facts caches tracked separately so estimate-path
    accounting stays comparable across releases)."""

    hits: int
    misses: int
    entries: int
    plan_hits: int = 0
    plan_misses: int = 0
    plan_entries: int = 0
    evictions: int = 0
    plan_evictions: int = 0
    ladder_hits: int = 0
    ladder_misses: int = 0
    ladder_evictions: int = 0
    ladder_entries: int = 0
    facts_hits: int = 0
    facts_misses: int = 0
    facts_entries: int = 0
    facts_evictions: int = 0
    max_entries: int = DEFAULT_MAX_ENTRIES

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def configure(*, enabled: bool, max_entries: int | None = None) -> None:
    """Enable/disable the cache (disabling also clears it) and, when
    ``max_entries`` is given, re-bound each cache's LRU capacity.
    Shrinking below the current population evicts oldest-first.

    Reconfiguring starts a fresh accounting epoch: counters are reset
    via :func:`reset_stats` *before* any trimming, so hit-rates
    measured after a ``configure`` reflect only that configuration
    (evictions caused by the shrink itself are counted in the new
    epoch).  Cached entries survive unless the cache is disabled.
    """
    global _enabled, _max_entries
    _enabled = enabled
    reset_stats()
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        _max_entries = max_entries
        for cache in _CACHES:
            cache.trim()
    if not enabled:
        clear()


def enabled() -> bool:
    return _enabled


def max_entries() -> int:
    return _max_entries


def clear() -> None:
    """Drop every cached estimate, plan, ladder choice and co-processing
    facts entry, and reset the counters."""
    for cache in _CACHES:
        cache.entries.clear()
    reset_stats()


def reset_stats() -> None:
    """Zero every hit/miss/eviction counter without touching entries.

    Called by :func:`configure` so reconfigurations don't pollute
    ``bench perf`` hit-rates with counts from a previous configuration;
    also available directly for benchmarks that want per-phase
    accounting over a warm cache.
    """
    for cache in _CACHES:
        cache.reset_stats()


def stats() -> CacheStats:
    return CacheStats(
        hits=_estimates.hits,
        misses=_estimates.misses,
        entries=len(_estimates.entries),
        plan_hits=_plans.hits,
        plan_misses=_plans.misses,
        plan_entries=len(_plans.entries),
        evictions=_estimates.evictions,
        plan_evictions=_plans.evictions,
        ladder_hits=_ladders.hits,
        ladder_misses=_ladders.misses,
        ladder_evictions=_ladders.evictions,
        ladder_entries=len(_ladders.entries),
        facts_hits=_facts.hits,
        facts_misses=_facts.misses,
        facts_entries=len(_facts.entries),
        facts_evictions=_facts.evictions,
        max_entries=_max_entries,
    )


def make_key(
    fingerprint: Hashable, spec: Hashable, materialize: bool, kwargs: dict[str, Any]
) -> Hashable | None:
    """Build a cache key, or ``None`` when any component is unhashable
    (custom strategies with exotic kwargs fall back to recomputing)."""
    try:
        key = (fingerprint, spec, materialize, tuple(sorted(kwargs.items())))
        hash(key)
    except TypeError:
        return None
    return key


def lookup(key: Hashable | None) -> "JoinMetrics | None":
    """A defensive copy of the cached metrics, or ``None`` on a miss.
    A hit refreshes the entry's LRU recency."""
    if not _enabled or key is None:
        return None
    cached = _estimates.get(key)
    return None if cached is None else _copy(cached)


def store(key: Hashable | None, metrics: "JoinMetrics") -> None:
    if not _enabled or key is None:
        return
    _estimates.put(key, _copy(metrics))


def _copy(metrics: "JoinMetrics") -> "JoinMetrics":
    return replace(metrics, phases=dict(metrics.phases), notes=dict(metrics.notes))


def _memoized(cache: _Lru, key: Hashable, compute: Callable[[], Any]) -> Any:
    """``cache``'s entry for ``key``, computing and inserting it on a
    miss."""
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


# ---------------------------------------------------------------------------
# Planner-ladder memoization
# ---------------------------------------------------------------------------
def cached_ladder_choice(
    key: Hashable, compute: Callable[[], str]
) -> str:
    """Memoize the planner ladder's strategy choice.

    The ladder's ``fits_in`` walk is pure in (spec, system,
    available_bytes); admission control re-runs it on every scheduling
    event and the determinism re-run repeats the whole sequence.
    """
    if not _enabled:
        return compute()
    try:
        hash(key)
    except TypeError:
        return compute()
    return _memoized(_ladders, key, compute)


# ---------------------------------------------------------------------------
# Plan memoization
# ---------------------------------------------------------------------------
def cached_plan(
    key: Hashable | None, compute: Callable[[], "JoinPlan"]
) -> "JoinPlan":
    """Memoize an analytic ``prepare()`` plan.

    ``prepare`` is pure in the strategy fingerprint plus (spec,
    materialize) — the same purity contract estimates rely on, with the
    per-device memory grant captured by the fingerprint's constructor
    extras (``device_budget``).  The returned plan is a **shared,
    read-only** object: callers that need to adapt tasks (the serving
    scheduler's qid/device namespacing) must build new ``Task``
    instances rather than mutate the cached ones.  ``key=None`` (an
    unhashable fingerprint) and a disabled cache both recompute.
    Hits/misses are tracked separately from the estimate counters
    (``stats().plan_hits`` / ``plan_misses`` / ``plan_entries``), so a
    key mismatch that silently stops the cache from hitting shows up
    in the accounting.
    """
    if not _enabled or key is None:
        return compute()
    return _memoized(_plans, key, compute)


# ---------------------------------------------------------------------------
# Co-processing kernel facts
# ---------------------------------------------------------------------------
def cached_facts(
    key: Hashable, compute: Callable[[], "CoProcessingFacts"]
) -> "CoProcessingFacts":
    """Memoize a co-processing strategy's spec-only kernel facts
    (:class:`repro.core.coprocessing.CoProcessingFacts`).

    The facts are pure in the key the strategy builds (system,
    calibration, config, ``cpu_bits``, ``device_budget``, spec,
    ``chunk_tuples``) and independent of ``threads`` and
    ``materialize``, so every thread count and both output modes of a
    figure sweep share one entry.  They are scalars and a 16-entry
    plan, never the per-partition evaluator arrays they were derived
    from, so the memo stays small.  The returned facts are **shared,
    read-only**.  A disabled cache and an unhashable key both
    recompute.
    """
    if not _enabled:
        return compute()
    try:
        hash(key)
    except TypeError:
        return compute()
    return _memoized(_facts, key, compute)
