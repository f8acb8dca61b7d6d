"""CPU-GPU co-processing strategy (§IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoProcessingJoin, GpuJoinConfig, estimate_cache
from repro.core.config import NLJ_PROBE
from repro.core.coprocessing import working_set_sizes
from repro.data import (
    Distribution,
    JoinSpec,
    RelationSpec,
    generate_join,
    naive_join_pairs,
    unique_pair,
    zipf_pair,
)
from repro.data.stats import expected_partition_sizes
from repro.kernels.common import key_bit_width
from repro.kernels.radix_partition import derive_bits_per_pass, estimate_partition_cost

CFG = GpuJoinConfig(total_radix_bits=4)


def test_functional_run_equals_oracle():
    build, probe = generate_join(unique_pair(1 << 13), seed=1)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=2048
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_functional_run_with_duplicates():
    spec = JoinSpec(
        build=RelationSpec(n=6000, distinct=700, distribution=Distribution.UNIFORM),
        probe=RelationSpec(n=9000, distinct=700, distribution=Distribution.UNIFORM),
    )
    build, probe = generate_join(spec, seed=2)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=1500
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_functional_run_skewed():
    spec = zipf_pair(12_000, 0.8, skew_side="both")
    build, probe = generate_join(spec, seed=3)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=3000
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_throughput_insensitive_to_relation_size():
    """Fig 12's headline: co-processing stays flat as inputs grow."""
    coproc = CoProcessingJoin()
    values = [
        coproc.estimate(unique_pair(n * 1_000_000)).throughput_billion
        for n in (256, 512, 1024, 2048)
    ]
    assert max(values) / min(values) < 1.25


def test_thread_scaling_shape():
    """Fig 13: rapid rise, plateau around 16, small drop past ~26."""
    coproc = CoProcessingJoin()
    spec = unique_pair(512_000_000)
    by_threads = {
        t: coproc.estimate(spec, threads=t).throughput for t in (2, 6, 16, 26, 46)
    }
    assert by_threads[2] < by_threads[6] < by_threads[16]
    assert by_threads[16] == pytest.approx(by_threads[26], rel=0.1)
    assert by_threads[46] < by_threads[26]
    assert by_threads[46] > 0.8 * by_threads[26]  # a *small* drop


def test_coprocessing_with_6_threads_beats_full_cpu():
    """§V-D: 'using our coprocessing join with a single GPU and 6 cores,
    we can match the performance of a CPU-based join that uses nearly
    10x more CPU cores.'"""
    from repro.cpu import ProJoin

    spec = unique_pair(512_000_000)
    coproc = CoProcessingJoin().estimate(spec, threads=6).throughput
    best_cpu = ProJoin().estimate(spec, threads=46).throughput
    assert coproc > best_cpu


def test_first_working_set_is_largest_fraction():
    coproc = CoProcessingJoin()
    metrics = coproc.estimate(unique_pair(2_048_000_000))
    first = metrics.notes["first_ws_fraction"]
    assert first == pytest.approx(5 / 16, abs=0.01)  # §V-C: 5 of 16


def test_staging_beats_direct():
    spec = unique_pair(1_024_000_000)
    staged = CoProcessingJoin(staging=True).estimate(spec)
    direct = CoProcessingJoin(staging=False).estimate(spec)
    assert staged.throughput > direct.throughput


def test_materialization_penalty_small_for_uniform():
    coproc = CoProcessingJoin()
    spec = unique_pair(512_000_000)
    agg = coproc.estimate(spec)
    mat = coproc.estimate(spec, materialize=True)
    assert agg.seconds <= mat.seconds < 1.2 * agg.seconds


def test_identical_skew_explodes_output_and_collapses():
    coproc = CoProcessingJoin()
    uniform = coproc.estimate(zipf_pair(512_000_000, 0.0, skew_side="both"))
    skewed = coproc.estimate(zipf_pair(512_000_000, 1.0, skew_side="both"))
    assert skewed.throughput < 0.05 * uniform.throughput


def test_single_sided_skew_hidden_by_pcie():
    """Fig 18: the interconnect is slower than the GPU work, so one-sided
    skew costs (almost) nothing out-of-GPU."""
    coproc = CoProcessingJoin()
    uniform = coproc.estimate(zipf_pair(512_000_000, 0.0, skew_side="probe"))
    skewed = coproc.estimate(zipf_pair(512_000_000, 1.0, skew_side="probe"))
    assert skewed.throughput > 0.9 * uniform.throughput


def test_plan_covers_all_partitions():
    coproc = CoProcessingJoin(config=CFG)
    sizes = np.full(16, 1000.0)
    plan = coproc.plan(sizes, 8, probe_n=100_000)
    covered = sorted(p for ws in plan.working_sets for p in ws.partition_ids)
    assert covered == list(range(16))


# ---------------------------------------------------------------------------
# Memoized kernel facts: a warm entry prices exactly what a cold one does
# ---------------------------------------------------------------------------
GIB = 1 << 30
#: (spec, constructor kwargs, chunk_tuples) covering every shape the
#: facts take: skew on either side, split oversized partitions, 1/2/4
#: working sets, a serving grant, a trailing partial chunk, and the
#: nested-loop probe kernel.
FACT_CASES = {
    "uniform": (unique_pair(64_000_000), {}, None),
    "zipf_probe": (zipf_pair(64_000_000, 1.0, skew_side="probe"), {}, None),
    "zipf_build": (zipf_pair(64_000_000, 1.0, skew_side="build"), {}, None),
    "zipf_both": (zipf_pair(64_000_000, 1.0, skew_side="both"), {}, None),
    "oversized_split": (
        zipf_pair(64_000_000, 1.5, skew_side="build"), {"device_budget": GIB}, None
    ),
    "two_working_sets": (unique_pair(1_024_000_000), {}, None),
    "four_working_sets": (unique_pair(2_048_000_000), {}, None),
    "device_budget": (unique_pair(128_000_000), {"device_budget": 3 * GIB // 2}, None),
    "partial_chunk": (unique_pair(64_000_000), {}, 10_000_000),
    "nlj_probe": (
        unique_pair(1_024_000_000), {"config": GpuJoinConfig(probe_kernel=NLJ_PROBE)}, None
    ),
}


@pytest.fixture
def fresh_cache():
    estimate_cache.clear()
    yield
    estimate_cache.clear()


def test_fact_cases_cover_their_shapes():
    def facts(name):
        spec, kwargs, chunk = FACT_CASES[name]
        return CoProcessingJoin(**kwargs).kernel_facts(spec, chunk)

    assert facts("oversized_split").plan.repartition_fraction > 0
    assert len(facts("two_working_sets").plan.working_sets) == 2
    assert len(facts("four_working_sets").plan.working_sets) == 4
    assert len(facts("device_budget").plan.working_sets) == 2
    partial = facts("partial_chunk")
    assert len({chunk for _, chunk in partial.join_seconds}) == 2


@pytest.mark.parametrize("case", sorted(FACT_CASES))
def test_warm_facts_reproduce_cold_estimate(case, fresh_cache):
    spec, kwargs, chunk_tuples = FACT_CASES[case]
    strategy = CoProcessingJoin(**kwargs)
    for materialize, threads in ((False, 16), (True, 6)):
        estimate_cache.clear()
        cold = strategy.estimate(
            spec, materialize=materialize, threads=threads, chunk_tuples=chunk_tuples
        )
        estimate_cache.clear()
        strategy.estimate(
            spec, materialize=not materialize, threads=threads + 10,
            chunk_tuples=chunk_tuples,
        )
        warm = strategy.estimate(
            spec, materialize=materialize, threads=threads, chunk_tuples=chunk_tuples
        )
        stats = estimate_cache.stats()
        assert (stats.facts_misses, stats.facts_hits) == (1, 1)
        assert warm.seconds == cold.seconds
        assert warm.phases == cold.phases
        assert warm.notes == cold.notes


def _gathered_join_seconds(strategy, spec, facts, materialize):
    """Reference: every (working set, chunk size) join price computed
    the direct way — gather each final partition's working-set factor
    over the whole fanout, mask, and evaluate with an evaluator built
    for the requested output mode."""
    cfg = strategy.config
    total_bits = max(cfg.radix_bits_for(spec.build.n // (1 << strategy.cpu_bits)), 1)
    gpu_bits = derive_bits_per_pass(total_bits, max_bits_per_pass=cfg.max_bits_per_pass)
    final_bits = strategy.cpu_bits + total_bits
    build_final = expected_partition_sizes(spec.build, final_bits)
    probe_final = expected_partition_sizes(spec.probe, final_bits)
    key_bits = key_bit_width(max(spec.build.distinct, spec.probe.distinct) - 1)
    to_cpu = np.arange(build_final.shape[0]) & ((1 << strategy.cpu_bits) - 1)
    prices = {}
    for w, chunk in facts.join_seconds:
        factor = facts.plan.ws_weights[w][to_cpu]
        live = factor > 0
        probe_sizes = (probe_final * factor)[live]
        evaluator = strategy._resident._join_cost_evaluator(
            (build_final * factor)[live],
            probe_sizes,
            facts.matches * facts.plan.build_fractions[w],
            tuple_bytes=spec.build.tuple_bytes,
            radix_bits=final_bits,
            key_bits=key_bits,
            materialize=materialize,
            charge_build=False,
        )
        frac = chunk / spec.probe.n
        partition = estimate_partition_cost(
            float(probe_sizes.sum()) * frac,
            spec.probe.tuple_bytes,
            gpu_bits,
            strategy.cost_model,
        )
        prices[(w, chunk)] = partition.seconds + evaluator.seconds(frac)
    return prices


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("case", sorted(FACT_CASES))
def test_join_tasks_equal_gathered_reference(case, materialize, fresh_cache):
    spec, kwargs, chunk_tuples = FACT_CASES[case]
    strategy = CoProcessingJoin(**kwargs)
    facts = strategy.kernel_facts(spec, chunk_tuples)
    reference = _gathered_join_seconds(strategy, spec, facts, materialize)
    plan = strategy.prepare(spec, materialize=materialize, chunk_tuples=chunk_tuples)
    joins = [t for t in plan.tasks if t.name.startswith("S.join[")]
    assert len(joins) == len(facts.plan.working_sets) * facts.plan.n_chunks
    step = facts.plan.chunk_tuples
    for task in joins:
        w, c = map(int, task.name[len("S.join["):-1].split(","))
        assert task.duration == reference[(w, min(step, spec.probe.n - c * step))]


@settings(max_examples=60, deadline=None)
@given(
    cpu_bits=st.integers(0, 5),
    extra_bits=st.integers(0, 4),
    data=st.data(),
)
def test_working_set_slice_equals_full_fanout_gather(cpu_bits, extra_bits, data):
    fanout = 1 << cpu_bits
    final = np.asarray(
        data.draw(
            st.lists(
                st.floats(0.0, 1e9, allow_nan=False),
                min_size=fanout << extra_bits,
                max_size=fanout << extra_bits,
            )
        )
    )
    weight = np.asarray(
        data.draw(
            st.lists(
                st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 0.25]),
                min_size=fanout,
                max_size=fanout,
            )
        )
    )
    factor = weight[np.arange(final.shape[0]) & (fanout - 1)]
    gathered = (final * factor)[factor > 0]
    sliced = working_set_sizes(final, weight)
    assert sliced.dtype == gathered.dtype
    assert np.array_equal(sliced, gathered)
