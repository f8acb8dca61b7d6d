"""Radix partitioning invariants (functional kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.errors import InvalidConfigError
from repro.gpusim.cost import GpuCostModel
from repro.kernels.radix_partition import (
    BUCKET_AT_A_TIME,
    PARTITION_AT_A_TIME,
    _combined_partition,
    bucket_skew_imbalance,
    derive_bits_per_pass,
    estimate_partition_cost,
    gpu_radix_partition,
    partition_pass_arrays,
)

MODEL = GpuCostModel()


def _relation(keys) -> Relation:
    return Relation.from_keys(np.asarray(keys, dtype=np.int64))


def test_partition_groups_by_low_bits():
    rel = _relation([0, 1, 2, 3, 4, 5, 6, 7])
    part, _ = gpu_radix_partition(rel, [2], MODEL)
    for p in range(4):
        keys, _ = part.partition(p)
        assert np.all((keys & 3) == p)


def test_partition_is_stable_permutation():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 20, size=5000)
    rel = Relation.from_keys(keys)
    part, _ = gpu_radix_partition(rel, [4, 3], MODEL)
    # Permutation: same multiset of (key, payload) pairs.
    assert sorted(zip(part.keys, part.payloads)) == sorted(zip(rel.key, rel.payload))
    # Stability: payloads (original row ids) ascend within each partition.
    for p in range(part.fanout):
        _, payloads = part.partition(p)
        assert np.all(np.diff(payloads) > 0)


def test_offsets_consistent_with_sizes():
    rel = _relation(np.arange(1000))
    part, _ = gpu_radix_partition(rel, [3], MODEL)
    assert part.offsets[0] == 0 and part.offsets[-1] == 1000
    assert np.all(np.diff(part.offsets) == part.partition_sizes())


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300),
    bits=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
)
def test_multipass_equals_sequence_of_single_passes(keys, bits):
    """The fused implementation must be bit-exact with running the passes
    one after another (hierarchical stable refinement)."""
    rel = _relation(keys)
    part, _ = gpu_radix_partition(rel, bits, MODEL)

    # LSD radix: each pass stably partitions the whole array on the next
    # digit group; after all passes tuples are grouped by the combined
    # low bits in ascending partition order.
    cur_keys, cur_payloads = rel.key, rel.payload
    shift = 0
    for b in bits:
        cur_keys, cur_payloads, _ = partition_pass_arrays(cur_keys, cur_payloads, b, shift)
        shift += b
    assert np.array_equal(part.keys, cur_keys)
    assert np.array_equal(part.payloads, cur_payloads)


@pytest.mark.parametrize(
    "bits", [[16], [8, 8], [17], [9, 8]], ids=["16", "8+8", "17", "9+8"]
)
def test_combined_partition_at_sort_dtype_boundaries(bits):
    """Partition ids sort as uint16 up to 16 bits and as uint32 above;
    either way the permutation equals the pass-by-pass partitioning, with
    key bits set above the partition bits and negative keys."""
    rng = np.random.default_rng(sum(bits) * 31 + len(bits))
    keys = np.concatenate(
        [
            rng.integers(-(1 << 40), 1 << 40, size=3000),
            rng.integers(0, 1 << 17, size=2000) | (1 << 35),
            np.array([-1, -(1 << 16), -(1 << 17), np.iinfo(np.int64).min]),
        ]
    )
    payloads = np.arange(keys.shape[0], dtype=np.int64)
    got_keys, got_payloads, offsets = _combined_partition(keys, payloads, bits)

    cur_keys, cur_payloads, shift = keys, payloads, 0
    for b in bits:
        cur_keys, cur_payloads, _ = partition_pass_arrays(cur_keys, cur_payloads, b, shift)
        shift += b
    assert np.array_equal(got_keys, cur_keys)
    assert np.array_equal(got_payloads, cur_payloads)
    fanout = 1 << sum(bits)
    assert np.array_equal(
        np.diff(offsets), np.bincount(keys & (fanout - 1), minlength=fanout)
    )


def test_partition_at_a_time_pays_for_skew():
    skewed = _relation([0] * 1000 + list(range(1, 50)))
    _, balanced_cost = gpu_radix_partition(
        skewed, [4, 2], MODEL, assignment=BUCKET_AT_A_TIME, bucket_capacity=16
    )
    _, imbalanced_cost = gpu_radix_partition(
        skewed, [4, 2], MODEL, assignment=PARTITION_AT_A_TIME, bucket_capacity=16
    )
    assert imbalanced_cost.seconds > balanced_cost.seconds


def test_unknown_assignment_rejected():
    with pytest.raises(InvalidConfigError):
        gpu_radix_partition(_relation([1]), [2], MODEL, assignment="warp")


def test_empty_pass_list_rejected():
    with pytest.raises(InvalidConfigError):
        gpu_radix_partition(_relation([1]), [], MODEL)


def test_bucket_accounting():
    rel = _relation(np.arange(100))
    part, _ = gpu_radix_partition(rel, [2], MODEL, bucket_capacity=8)
    assert list(part.partition_sizes()) == [25, 25, 25, 25]
    assert list(part.buckets_per_partition()) == [4, 4, 4, 4]
    assert part.total_buckets() == 16
    assert list(part.padded_sizes()) == [32, 32, 32, 32]
    assert np.all(part.padded_bytes() == 32 * rel.tuple_bytes)


def test_chain_imbalance_of_skewed_partitions():
    rel = _relation([0] * 900 + [1] * 50 + [2] * 25 + [3] * 25)
    part, _ = gpu_radix_partition(rel, [2], MODEL, bucket_capacity=16)
    assert part.chain_imbalance() > 2.0


def test_bucket_skew_imbalance():
    assert bucket_skew_imbalance(np.full(16, 100.0)) == pytest.approx(1.0)
    hot = np.full(16, 100.0)
    hot[0] = 10_000.0
    assert bucket_skew_imbalance(hot) > 1.3


def test_derive_bits_per_pass():
    assert derive_bits_per_pass(15) == [8, 7]
    assert derive_bits_per_pass(8) == [8]
    assert derive_bits_per_pass(20, max_bits_per_pass=6) == [6, 6, 6, 2]
    with pytest.raises(InvalidConfigError):
        derive_bits_per_pass(0)


def test_estimate_matches_functional_cost_for_uniform_data():
    rel = Relation.from_keys(np.random.default_rng(1).permutation(1 << 14))
    _, functional = gpu_radix_partition(rel, [4, 3], MODEL)
    analytic = estimate_partition_cost(rel.num_tuples, rel.tuple_bytes, [4, 3], MODEL)
    assert functional.seconds == pytest.approx(analytic.seconds, rel=0.05)
