"""CPU baselines: PRO and NPO."""

import numpy as np
import pytest

from repro.cpu import NpoJoin, ProJoin, radix_passes_needed
from repro.data import (
    Distribution,
    JoinSpec,
    RelationSpec,
    generate_join,
    naive_join_pairs,
    unique_pair,
)
from repro.data.relation import Relation


def test_pro_functional_matches_oracle():
    build, probe = generate_join(unique_pair(4000), seed=1)
    pairs, metrics = ProJoin().run(build, probe)
    assert np.array_equal(pairs, naive_join_pairs(build, probe))
    assert metrics.seconds > 0


def test_pro_functional_with_duplicates():
    spec = JoinSpec(
        build=RelationSpec(n=3000, distinct=500, distribution=Distribution.UNIFORM),
        probe=RelationSpec(n=5000, distinct=500, distribution=Distribution.UNIFORM),
    )
    build, probe = generate_join(spec, seed=2)
    pairs, _ = ProJoin().run(build, probe)
    assert np.array_equal(pairs, naive_join_pairs(build, probe))


def test_npo_functional_matches_oracle():
    build, probe = generate_join(unique_pair(3000), seed=3)
    pairs, metrics = NpoJoin().run(build, probe)
    assert np.array_equal(pairs, naive_join_pairs(build, probe))
    assert metrics.partition_seconds == 0.0  # no partitioning phase


def test_pro_throughput_scales_with_threads():
    pro = ProJoin()
    spec = unique_pair(64_000_000)
    t8 = pro.estimate(spec, threads=8).throughput
    t16 = pro.estimate(spec, threads=16).throughput
    t48 = pro.estimate(spec, threads=48).throughput
    assert t8 < t16 < t48
    assert t16 == pytest.approx(2 * t8, rel=0.25)


def test_npo_degrades_once_table_exceeds_llc():
    npo = NpoJoin()
    small = npo.estimate(unique_pair(1_000_000)).throughput
    large = npo.estimate(unique_pair(128_000_000)).throughput
    assert small > 2 * large


def test_pro_has_a_sweet_spot():
    """PRO improves until a sweet spot, then extra passes bite (Fig 8)."""
    pro = ProJoin()
    tiny = pro.estimate(unique_pair(1_000_000)).throughput
    sweet = pro.estimate(unique_pair(64_000_000)).throughput
    huge = pro.estimate(unique_pair(1_024_000_000)).throughput
    assert sweet > tiny
    assert sweet > huge


def test_radix_passes_needed_grows_with_size():
    bits_small, passes_small = radix_passes_needed(1_000_000)
    bits_large, passes_large = radix_passes_needed(1_024_000_000)
    assert bits_large > bits_small
    assert passes_large >= passes_small
    assert passes_large <= 4


def test_pro_beats_npo_at_scale():
    """The partitioned CPU join wins at large sizes (Fig 8/12)."""
    spec = unique_pair(512_000_000)
    assert ProJoin().estimate(spec).throughput > NpoJoin().estimate(spec).throughput


def test_npo_beats_pro_on_small_cached_tables():
    spec = unique_pair(1_000_000)
    assert NpoJoin().estimate(spec).throughput > ProJoin().estimate(spec).throughput


@pytest.mark.parametrize("join", [ProJoin, NpoJoin], ids=["pro", "npo"])
@pytest.mark.parametrize("empty_side", ["build", "probe"])
def test_empty_side_joins_to_nothing(join, empty_side):
    """A filter that wipes out either side must not fail the baseline:
    the cost model still gets a valid (single-tuple) spec."""
    empty = Relation.from_keys(np.empty(0, dtype=np.int64))
    other = Relation.from_keys(np.arange(64, dtype=np.int64))
    build, probe = (empty, other) if empty_side == "build" else (other, empty)
    pairs, metrics = join().run(build, probe)
    assert pairs.shape == (0, 2)
    assert metrics.seconds > 0
