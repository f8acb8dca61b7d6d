"""Build phase: per-co-partition chaining hash tables (§III-C).

Each co-partition's build side becomes a hash table in (simulated) shared
memory: a slot-head array plus 16-bit next-offsets, populated wait-free
with ``atomicExchange`` (Listing 2).  All per-partition tables share one
global slot space, ``partition * nslots + slot``, which is the vectorized
equivalent of building the tables independently per block.  The device
holds ``nslots`` heads per block at a time; the host keeps only the
occupied global slots, so its memory grows with the build tuples rather
than with ``fanout * nslots``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigError, SharedMemoryOverflowError
from repro.gpusim import atomics
from repro.gpusim.atomics import NIL
from repro.gpusim.cost import GpuCostModel, KernelCost
from repro.kernels.buckets import PartitionedRelation
from repro.kernels.common import ht_slot, is_power_of_two

#: Largest partition a 16-bit chain offset can address (§III-C: "the
#: limited size of shared memory allows us to trim the offsets to 16 bits").
MAX_OFFSET_16BIT = 1 << 16


@dataclass
class CoPartitionHashTables:
    """Hash tables over every build-side co-partition.

    ``slots`` lists the occupied global slots in ascending order and
    ``heads`` holds each one's head: a *global* row index into the
    partitioned build relation.  Every other slot is empty (``NIL``).
    ``next`` links rows within a partition.  ``next`` offsets stay within
    one partition, so on the real device they fit in 16 bits relative to
    the partition base — validated at construction.
    """

    build: PartitionedRelation
    nslots: int
    slots: np.ndarray
    heads: np.ndarray
    next: np.ndarray
    fallback_partitions: np.ndarray

    @property
    def fanout(self) -> int:
        return self.build.fanout

    def global_slot(self, partition_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        local = ht_slot(keys, self.nslots, radix_bits=self.build.radix_bits)
        return partition_ids * self.nslots + local

    def lookup(self, global_slots: np.ndarray) -> np.ndarray:
        """Head row of each global slot, ``NIL`` where the slot is empty."""
        if not self.slots.size:
            return np.full(global_slots.shape[0], NIL, dtype=np.int64)
        index = np.searchsorted(self.slots, global_slots)
        np.minimum(index, self.slots.shape[0] - 1, out=index)
        return np.where(self.slots[index] == global_slots, self.heads[index], NIL)


def build_copartition_tables(
    build: PartitionedRelation,
    *,
    nslots: int,
    elements_per_block: int,
    cost_model: GpuCostModel,
    strict_offsets: bool = False,
) -> tuple[CoPartitionHashTables, KernelCost]:
    """Build all co-partition hash tables.

    Partitions larger than ``elements_per_block`` do not fit the shared
    memory reserved for the build side; they are flagged for the
    hash-based block-nested-loop fallback (§V-E) — the probe kernel's
    cost model processes them in ``ceil(size / elements_per_block)``
    passes.  The 16-bit offset representation caps the *shared-memory*
    table at 65 536 tuples; fallback partitions are processed block-wise,
    so larger partitions only error under ``strict_offsets`` (used by
    tests that pin down the representation limit).
    """
    if not is_power_of_two(nslots):
        raise InvalidConfigError(f"nslots must be a power of two, got {nslots}")
    sizes = build.partition_sizes()
    if strict_offsets and sizes.size and int(sizes.max()) > MAX_OFFSET_16BIT:
        raise SharedMemoryOverflowError(
            f"partition of {int(sizes.max())} tuples exceeds 16-bit chain "
            f"offsets; increase the partitioning fanout"
        )

    partition_ids = np.repeat(np.arange(build.fanout, dtype=np.int64), sizes)
    local_slots = ht_slot(build.keys, nslots, radix_bits=build.radix_bits)
    global_slots = partition_ids * nslots + local_slots
    slots, heads, next_ = atomics.group_slots(global_slots, build.fanout * nslots)

    tables = CoPartitionHashTables(
        build=build,
        nslots=nslots,
        slots=slots,
        heads=heads,
        next=next_,
        fallback_partitions=np.nonzero(sizes > elements_per_block)[0],
    )
    # Build cost is part of the fused co-partition join kernel; the join
    # cost function charges the inserts.  Only the launch is charged here
    # when the build runs as its own kernel.
    cost = KernelCost(
        cost_model.calib.kernel_launch_seconds,
        {"launch": cost_model.calib.kernel_launch_seconds},
    )
    return tables, cost
