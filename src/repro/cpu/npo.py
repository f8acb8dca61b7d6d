"""NPO: the non-partitioned (hardware-oblivious) CPU hash join.

Blanas et al.'s "no partitioning" join builds one shared hash table over
the build relation and probes it from all threads.  It performs well
while the table is cache-resident and degrades once lookups miss the
last-level cache — the comparison point the paper carries through
Figures 8 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.pro import CpuJoinMetrics
from repro.data import stats as stats_mod
from repro.data.relation import Relation, spec_from_relations
from repro.data.spec import JoinSpec
from repro.errors import InvalidConfigError
from repro.gpusim import atomics
from repro.gpusim.atomics import NIL
from repro.gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.gpusim.spec import SystemSpec
from repro.kernels.common import ht_slot, next_power_of_two

CACHE_LINE = 64


class NpoJoin:
    """Non-partitioned CPU hash join."""

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
    ):
        self.system = system or SystemSpec()
        self.calib = calibration or DEFAULT_CALIBRATION

    # ------------------------------------------------------------------
    def _llc_hit_fraction(self, footprint_bytes: float) -> float:
        """Fraction of lookups served by the aggregate last-level cache."""
        llc = self.system.cpu.sockets * self.system.cpu.l3_per_socket
        if footprint_bytes <= 0:
            return 1.0
        return min(1.0, llc / footprint_bytes) * 0.85

    def estimate(self, spec: JoinSpec, *, threads: int | None = None) -> CpuJoinMetrics:
        threads = self.system.cpu.total_threads if threads is None else threads
        if threads <= 0:
            raise InvalidConfigError("threads must be positive")
        calib = self.calib
        cpu = self.system.cpu

        footprint = spec.build.n * (spec.build.tuple_bytes + 8)
        hit = self._llc_hit_fraction(footprint)
        # Memory traffic of misses; bandwidth shared by all threads but
        # also capped by what the thread count can sustain.
        bandwidth = min(
            cpu.total_memory_bandwidth * 0.6,
            threads * calib.cpu_thread_bandwidth,
        )
        build_lines = spec.build.n * calib.cpu_npo_build_lines_per_tuple
        probe_lines = spec.probe.n * calib.cpu_npo_lines_per_probe
        miss_bytes = (build_lines + probe_lines) * (1.0 - hit) * CACHE_LINE
        memory_seconds = miss_bytes / bandwidth

        # Cache-resident instruction path.
        matches = stats_mod.expected_join_cardinality(spec)
        cycles = (spec.build.n + spec.probe.n + matches) * calib.cpu_npo_cycles_per_tuple
        eff_threads = min(threads, cpu.total_cores) + 0.25 * max(
            0, min(threads - cpu.total_cores, cpu.total_cores)
        )
        compute_seconds = cycles / (eff_threads * cpu.clock_hz)

        seconds = max(memory_seconds, compute_seconds)
        return CpuJoinMetrics(
            seconds=seconds,
            partition_seconds=0.0,
            join_seconds=seconds,
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
        """Functional execution: one global chaining table, full probe."""
        nslots = next_power_of_two(max(1, build.num_tuples))
        slots = ht_slot(build.key, nslots)
        table = atomics.chain_insert(slots, nslots)

        cursors = table.heads[ht_slot(probe.key, nslots)]
        hits: list[np.ndarray] = []
        live = np.nonzero(cursors != NIL)[0]
        cursors = cursors[live]
        while live.size:
            hit = build.key[cursors] == probe.key[live]
            if hit.any():
                hits.append(
                    np.stack(
                        [build.payload[cursors[hit]], probe.payload[live[hit]]], axis=1
                    )
                )
            cursors = table.next[cursors]
            alive = cursors != NIL
            live = live[alive]
            cursors = cursors[alive]

        if hits:
            out = np.concatenate(hits)
            out = out[np.lexsort((out[:, 1], out[:, 0]))]
        else:
            out = np.empty((0, 2), dtype=np.int64)
        spec = spec_from_relations(build, probe)
        return out, self.estimate(spec, threads=threads)
