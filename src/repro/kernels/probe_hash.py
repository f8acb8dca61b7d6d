"""Probe phase: chain-walking lookups against co-partition tables (§III-C).

Every probe tuple hashes into its co-partition's table and follows the
chain, comparing keys; matches emit ``(build_payload, probe_payload)``
pairs through the warp output buffer.  The walk is vectorized as a
frontier iteration: all live probe cursors advance one chain node per
step, which preserves the per-tuple visit counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigError
from repro.gpusim.atomics import NIL
from repro.gpusim.cost import CoPartitionStats, GpuCostModel, KernelCost
from repro.kernels.build_hash import CoPartitionHashTables
from repro.kernels.buckets import PartitionedRelation


@dataclass
class ProbeResult:
    """Join output plus the execution statistics the cost model consumed."""

    build_payloads: np.ndarray
    probe_payloads: np.ndarray
    chain_visits: int
    stats: CoPartitionStats
    cost: KernelCost

    @property
    def matches(self) -> int:
        return int(self.build_payloads.shape[0])

    def pairs(self) -> np.ndarray:
        """``(matches, 2)`` array sorted for comparison against oracles."""
        out = np.stack([self.build_payloads, self.probe_payloads], axis=1)
        return out[np.lexsort((out[:, 1], out[:, 0]))]


def probe_copartitions(
    tables: CoPartitionHashTables,
    probe: PartitionedRelation,
    *,
    elements_per_block: int,
    threads_per_block: int,
    cost_model: GpuCostModel,
    use_shared_memory: bool = True,
    materialize: bool = False,
    out_tuple_bytes: float = 8.0,
) -> ProbeResult:
    """Probe every co-partition and collect matches.

    ``probe`` must be partitioned with the same radix bits as the build
    side (the co-partitioning invariant: all matches of partition ``p``
    live in the build's partition ``p``).
    """
    build = tables.build
    if probe.radix_bits != build.radix_bits:
        raise InvalidConfigError(
            f"co-partitioning mismatch: build has {build.radix_bits} radix "
            f"bits, probe has {probe.radix_bits}"
        )

    probe_sizes = probe.partition_sizes()
    partition_ids = np.repeat(np.arange(probe.fanout, dtype=np.int64), probe_sizes)
    cursors = tables.lookup(tables.global_slot(partition_ids, probe.keys))

    build_hits: list[np.ndarray] = []
    probe_hits: list[np.ndarray] = []
    visits = 0

    live = np.nonzero(cursors != NIL)[0]
    cursors = cursors[live]
    while live.size:
        visits += int(live.size)
        hit = build.keys[cursors] == probe.keys[live]
        if hit.any():
            build_hits.append(build.payloads[cursors[hit]])
            probe_hits.append(probe.payloads[live[hit]])
        cursors = tables.next[cursors]
        alive = cursors != NIL
        live = live[alive]
        cursors = cursors[alive]

    build_payloads = (
        np.concatenate(build_hits) if build_hits else np.empty(0, dtype=np.int64)
    )
    probe_payloads = (
        np.concatenate(probe_hits) if probe_hits else np.empty(0, dtype=np.int64)
    )

    matches = CoPartitionStats.split_matches(
        build.partition_sizes(), probe_sizes, float(build_payloads.shape[0])
    )
    stats = CoPartitionStats(
        build_sizes=build.partition_sizes(),
        probe_sizes=probe_sizes,
        matches=matches,
    )
    cost = cost_model.join_copartitions_hash(
        stats,
        build.tuple_bytes,
        ht_slots=tables.nslots,
        elements_per_block=elements_per_block,
        threads_per_block=threads_per_block,
        use_shared_memory=use_shared_memory,
        materialize=materialize,
        out_tuple_bytes=out_tuple_bytes,
    )
    return ProbeResult(
        build_payloads=build_payloads,
        probe_payloads=probe_payloads,
        chain_visits=visits,
        stats=stats,
        cost=cost,
    )
