"""GPU radix partitioning (functional kernel + cost).

Implements the multi-pass radix partitioning of §III-A.  Each pass
refines every partition by the next group of key bits; the final layout
groups tuples by the combined low bits.  For the data structure itself
the passes are emulated with stable counting sorts (bit-exact with the
pass-by-pass result); the cost model charges every pass's device traffic,
per-partition metadata, and — under the partition-at-a-time work
assignment — the bucket-chain imbalance (§III-A's skew discussion).
"""

from __future__ import annotations

import numpy as np

from repro.data.relation import Relation
from repro.errors import InvalidConfigError
from repro.gpusim.cost import GpuCostModel, KernelCost
from repro.kernels.buckets import PartitionedRelation

#: Work-assignment granularities discussed in §III-A.
BUCKET_AT_A_TIME = "bucket"
PARTITION_AT_A_TIME = "partition"


def partition_pass_arrays(
    keys: np.ndarray,
    payloads: np.ndarray,
    bits: int,
    shift: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable partitioning pass on digit ``(key >> shift) & mask``.

    Returns the reordered ``(keys, payloads)`` and the per-digit offsets.
    Stability matches the GPU kernel's behaviour of appending tuples to
    their partition's current bucket in scan order.
    """
    if bits <= 0:
        raise InvalidConfigError("a partitioning pass needs bits >= 1")
    digit = (keys >> shift) & ((1 << bits) - 1)
    order = np.argsort(digit, kind="stable")
    histogram = np.bincount(digit, minlength=1 << bits)
    offsets = np.zeros((1 << bits) + 1, dtype=np.int64)
    np.cumsum(histogram, out=offsets[1:])
    return keys[order], payloads[order], offsets


def _combined_partition(
    keys: np.ndarray,
    payloads: np.ndarray,
    bits_per_pass: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All passes at once: group by the combined low bits.

    Pass *i* partitions on bit range ``[sum(bits[:i]), sum(bits[:i+1]))``;
    the hierarchy of stable passes is equivalent (verified by tests
    against :func:`partition_pass_arrays`) to a single stable sort on the
    partition id ``key & (fanout - 1)``.  The ids sort as the narrowest
    unsigned type that holds them: a stable sort gives the same
    permutation at any integer width, and NumPy radix-sorts 8- and
    16-bit keys.
    """
    total_bits = int(sum(bits_per_pass))
    fanout = 1 << total_bits
    pid = (keys & (fanout - 1)).astype(np.min_scalar_type(fanout - 1))
    order = np.argsort(pid, kind="stable")
    histogram = np.bincount(pid, minlength=fanout)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(histogram, out=offsets[1:])
    return keys[order], payloads[order], offsets


def bucket_skew_imbalance(partition_sizes: np.ndarray, *, threshold: float = 4.0) -> float:
    """Residual load imbalance of the bucket-at-a-time assignment.

    Bucket-at-a-time largely absorbs skew (§III-A), but tuples funnelling
    into very hot partitions still serialize on those partitions' bucket
    metadata and leave the final pass's chain decomposition with extra
    work.  Modelled as a mild penalty proportional to the fraction of
    tuples living in partitions more than ``threshold``x the average.
    """
    sizes = np.asarray(partition_sizes, dtype=np.float64)
    total = float(sizes.sum())
    if total <= 0:
        return 1.0
    mean = total / sizes.shape[0]
    heavy_fraction = float(sizes[sizes > threshold * mean].sum()) / total
    return 1.0 + 0.5 * heavy_fraction


def gpu_radix_partition(
    relation: Relation,
    bits_per_pass: list[int],
    cost_model: GpuCostModel,
    *,
    bucket_capacity: int = 1024,
    assignment: str = BUCKET_AT_A_TIME,
) -> tuple[PartitionedRelation, KernelCost]:
    """Partition ``relation`` into ``2**sum(bits_per_pass)`` partitions.

    ``assignment`` selects the work-assignment granularity for passes
    after the first: the paper opts for bucket-at-a-time because
    partition-at-a-time degrades under skew (the longest bucket chain
    bounds the pass) even though it is slightly better for uniform data.
    """
    if not bits_per_pass:
        raise InvalidConfigError("at least one partitioning pass is required")
    if assignment not in (BUCKET_AT_A_TIME, PARTITION_AT_A_TIME):
        raise InvalidConfigError(f"unknown work assignment: {assignment!r}")

    keys, payloads, offsets = _combined_partition(
        relation.key, relation.payload, bits_per_pass
    )
    partitioned = PartitionedRelation(
        keys=keys,
        payloads=payloads,
        offsets=offsets,
        radix_bits=int(sum(bits_per_pass)),
        bucket_capacity=bucket_capacity,
        tuple_bytes=relation.tuple_bytes,
    )

    if assignment == PARTITION_AT_A_TIME:
        imbalance = partitioned.chain_imbalance()
    else:
        # Bucket-at-a-time pays a small constant for re-initializing
        # per-bucket state and never suffers chain imbalance (§III-A);
        # only a residual hot-partition penalty remains under skew.
        imbalance = (1.05 if len(bits_per_pass) > 1 else 1.0) * bucket_skew_imbalance(
            partitioned.partition_sizes()
        )

    cost = cost_model.multi_pass_partition(
        relation.num_tuples,
        relation.tuple_bytes,
        bits_per_pass,
        imbalance=imbalance,
    )
    return partitioned, cost


def estimate_partition_cost(
    n_tuples: float,
    tuple_bytes: float,
    bits_per_pass: list[int],
    cost_model: GpuCostModel,
    *,
    imbalance: float = 1.0,
) -> KernelCost:
    """Analytic twin of :func:`gpu_radix_partition`'s cost (same formulas,
    fed with a workload spec instead of data).  ``imbalance`` carries the
    skew penalty (see :func:`bucket_skew_imbalance`); the bucket-at-a-time
    multi-pass constant composes with it exactly as in the functional path."""
    adjusted = imbalance * (1.05 if len(bits_per_pass) > 1 else 1.0)
    return cost_model.multi_pass_partition(
        n_tuples, tuple_bytes, bits_per_pass, imbalance=adjusted
    )


def derive_bits_per_pass(
    total_bits: int,
    *,
    max_bits_per_pass: int = 8,
) -> list[int]:
    """Split a total fanout into passes of at most ``max_bits_per_pass``.

    Shared-memory metadata caps per-pass fanout at "a few thousand
    partitions" (§III-A); 8 bits per pass (256-way) is the conservative
    default the evaluation uses, giving two passes for the standard
    2^15-partition configuration.
    """
    if total_bits <= 0:
        raise InvalidConfigError("total_bits must be positive")
    if max_bits_per_pass <= 0:
        raise InvalidConfigError("max_bits_per_pass must be positive")
    passes, remainder = divmod(total_bits, max_bits_per_pass)
    bits = [max_bits_per_pass] * passes
    if remainder:
        bits.append(remainder)
    return bits
