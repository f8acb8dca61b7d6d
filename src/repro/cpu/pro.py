"""PRO: the parallel radix-partitioned hash join for CPUs.

The paper compares against the optimized partitioned hash join of
Balkesen et al. ("PRO"), running on all 48 hardware threads of the
testbed (§V-B, Annotations).  This module reimplements the algorithm
functionally (multi-pass radix partitioning to cache-sized partitions,
then per-partition build + probe) and models its cost: bandwidth-bound
partitioning passes plus a cycles-per-tuple cache-resident join phase.
Additional passes become necessary as relations grow — the source of the
downward throughput trend the paper observes for large inputs (Fig 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cpu.radix_partition import CpuPartitionModel, cpu_radix_partition
from repro.data.relation import Relation, spec_from_relations
from repro.data.spec import JoinSpec
from repro.data import stats as stats_mod
from repro.errors import InvalidConfigError
from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.spec import SystemSpec

#: Target partition footprint: half the per-core L2 so the hash table and
#: probe stream coexist in cache (Shatdal's cache-consciousness argument).
TARGET_PARTITION_TUPLES = 4096
#: Fanout per pass is limited by TLB entries (Boncz et al.): 2^7 per pass.
MAX_BITS_PER_PASS = 7


@dataclass(frozen=True)
class CpuJoinMetrics:
    """Modelled execution of a CPU join."""

    seconds: float
    partition_seconds: float
    join_seconds: float
    total_tuples: int

    @property
    def throughput(self) -> float:
        """Tuples per second over both inputs (the paper's metric)."""
        return self.total_tuples / self.seconds if self.seconds > 0 else 0.0


def radix_passes_needed(n_tuples: int) -> tuple[int, int]:
    """(total radix bits, number of passes) for cache-sized partitions."""
    total_bits = max(
        1, math.ceil(math.log2(max(2.0, n_tuples / TARGET_PARTITION_TUPLES)))
    )
    passes = math.ceil(total_bits / MAX_BITS_PER_PASS)
    return total_bits, passes


class ProJoin:
    """Partitioned radix hash join on the host CPU."""

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
    ):
        self.system = system or SystemSpec()
        self.calib = calibration or DEFAULT_CALIBRATION
        self.partition_model = CpuPartitionModel(self.system, self.calib)

    # ------------------------------------------------------------------
    def _effective_threads(self, threads: int) -> float:
        """SMT threads beyond the physical cores add ~25% each."""
        cores = self.system.cpu.total_cores
        if threads <= cores:
            return float(threads)
        return cores + 0.25 * min(threads - cores, cores)

    def estimate(self, spec: JoinSpec, *, threads: int | None = None) -> CpuJoinMetrics:
        """Modelled cost for a workload spec."""
        threads = self.system.cpu.total_threads if threads is None else threads
        if threads <= 0:
            raise InvalidConfigError("threads must be positive")
        calib = self.calib
        n_build, n_probe = spec.build.n, spec.probe.n

        _, passes = radix_passes_needed(n_build)
        rate = (
            self.partition_model.pass_rate(threads)
            * calib.cpu_pro_partition_efficiency
        )
        partition_seconds = (
            passes * (spec.build.nbytes + spec.probe.nbytes) / rate
            + passes * calib.cpu_pro_sync_seconds_per_pass
        )

        matches = stats_mod.expected_join_cardinality(spec)
        cycles = (n_build + n_probe + matches) * calib.cpu_pro_join_cycles_per_tuple
        join_rate = self._effective_threads(threads) * self.system.cpu.clock_hz
        join_seconds = cycles / join_rate

        return CpuJoinMetrics(
            seconds=partition_seconds + join_seconds,
            partition_seconds=partition_seconds,
            join_seconds=join_seconds,
            total_tuples=spec.total_tuples,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        build: Relation,
        probe: Relation,
        *,
        threads: int | None = None,
    ) -> tuple[np.ndarray, CpuJoinMetrics]:
        """Execute the join functionally and model its cost.

        Returns the sorted ``(build_payload, probe_payload)`` pairs and
        the metrics (thread count affects only the metrics).
        """
        threads = self.system.cpu.total_threads if threads is None else threads
        total_bits, _ = radix_passes_needed(build.num_tuples)
        part_build = cpu_radix_partition(build, total_bits)
        part_probe = cpu_radix_partition(probe, total_bits)

        pairs: list[np.ndarray] = []
        for p in range(part_build.fanout):
            b_keys, b_payloads = part_build.partition(p)
            s_keys, s_payloads = part_probe.partition(p)
            if not b_keys.shape[0] or not s_keys.shape[0]:
                continue
            order = np.argsort(b_keys, kind="stable")
            sorted_keys = b_keys[order]
            lo = np.searchsorted(sorted_keys, s_keys, side="left")
            hi = np.searchsorted(sorted_keys, s_keys, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if not total:
                continue
            probe_idx = np.repeat(np.arange(s_keys.shape[0]), counts)
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            build_idx = order[np.repeat(lo, counts) + within]
            pairs.append(
                np.stack([b_payloads[build_idx], s_payloads[probe_idx]], axis=1)
            )

        if pairs:
            out = np.concatenate(pairs)
            out = out[np.lexsort((out[:, 1], out[:, 0]))]
        else:
            out = np.empty((0, 2), dtype=np.int64)

        spec = spec_from_relations(build, probe)
        return out, self.estimate(spec, threads=threads)
