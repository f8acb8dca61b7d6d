"""Out-of-GPU strategy 1: streamed probe relation (§IV-A).

The build relation fits in GPU memory; the probe relation does not.  The
build side is transferred once and partitioned on the GPU; the probe
side is split into chunks (half the build size by default, as in Fig 11)
that are double-buffered over PCIe and joined with the resident
partitioned build — transfers overlap kernels via separate streams, so
"the total execution time is the transfer time for the data plus the GPU
execution time for the last chunk".  Result materialization mirrors the
input double-buffering on the D2H engine (§IV-C).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import GpuJoinConfig, default_config
from repro.core.gpu_partitioned import OUT_TUPLE_BYTES, GpuPartitionedJoin
from repro.core.results import JoinRunResult
from repro.core.strategy import (
    STREAMING,
    JoinPlan,
    PipelinedJoinStrategy,
    register_strategy,
)
from repro.data import stats as stats_mod
from repro.data.relation import Relation, spec_from_relations
from repro.data.spec import JoinSpec
from repro.errors import DeviceMemoryOverflowError
from repro.gpusim.calibration import Calibration
from repro.gpusim.cost import GpuCostModel
from repro.gpusim.device_memory import DeviceMemory
from repro.gpusim.spec import SystemSpec
from repro.gpusim.transfer import TransferModel
from repro.kernels.aggregate import JoinAggregate, aggregate_pairs
from repro.kernels.build_hash import build_copartition_tables
from repro.kernels.common import key_bit_width
from repro.kernels.probe_hash import probe_copartitions
from repro.kernels.radix_partition import estimate_partition_cost, gpu_radix_partition
from repro.pipeline.tasks import D2H, GPU, H2D


@register_strategy
class StreamingProbeJoin(PipelinedJoinStrategy):
    """Build resident in GPU memory, probe streamed over PCIe."""

    key = STREAMING
    name = "GPU Partitioned (streaming)"

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
    ):
        self.system = system or SystemSpec()
        self.config = config or default_config()
        self.cost_model = GpuCostModel(self.system, calibration)
        self.transfer = TransferModel(self.system, self.cost_model.calib)
        self._resident = GpuPartitionedJoin(self.system, calibration, self.config)

    # ------------------------------------------------------------------
    @classmethod
    def device_bytes_needed(cls, spec: JoinSpec, system: SystemSpec) -> int:
        """Partitioned build + double-buffered chunk and output buffers
        must co-reside in device memory (§IV-A/§IV-C)."""
        chunk_bytes = max(1, spec.build.n // 2) * spec.probe.tuple_bytes
        return 2 * spec.build.nbytes + 6 * chunk_bytes

    def default_chunk_tuples(self, build_n: int) -> int:
        """Chunks half the size of the build table (Fig 11's setup)."""
        return max(1, build_n // 2)

    def _check_device_memory(self, spec: JoinSpec, chunk_tuples: int) -> None:
        """Partitioned build + two input chunk buffers + two output
        buffers must co-reside (§IV-A/§IV-C double buffering)."""
        memory = DeviceMemory(self.system.gpu.device_memory)
        memory.allocate("build(partitioned)", 2 * spec.build.nbytes)
        chunk_bytes = chunk_tuples * spec.probe.tuple_bytes
        for i in range(2):
            memory.allocate(f"chunk[{i}]", 2 * chunk_bytes)  # raw + partitioned
        for i in range(2):
            memory.allocate(f"out[{i}]", int(chunk_bytes * OUT_TUPLE_BYTES / 8))

    # ------------------------------------------------------------------
    def _pipeline_plan(
        self,
        spec: JoinSpec,
        *,
        chunk_tuples: int,
        chunk_join_seconds,
        build_prep_seconds: float,
        matches: float,
        materialize: bool,
    ) -> JoinPlan:
        """Declare the §IV-A double-buffered pipeline as a task graph."""
        n_chunks = math.ceil(spec.probe.n / chunk_tuples)
        chunk_bytes = chunk_tuples * spec.probe.tuple_bytes
        dma_rate = self.transfer.pipelined_dma_rate()

        plan = JoinPlan(
            strategy=self.name,
            spec=spec,
            phases=(H2D, GPU, D2H),
            matches=matches,
            materialize=materialize,
            pcie_h2d_bytes=spec.build.nbytes + spec.probe.nbytes,
            pcie_d2h_bytes=matches * OUT_TUPLE_BYTES if materialize else 0.0,
            notes={
                "tuple_bytes": float(spec.build.tuple_bytes),
                "chunks": float(n_chunks),
                "chunk_bytes": float(chunk_bytes),
            },
        )
        plan.add("build.h2d", H2D, spec.build.nbytes / dma_rate)
        plan.add("build.partition", GPU, build_prep_seconds, ["build.h2d"])

        out_bytes_per_chunk = matches / n_chunks * OUT_TUPLE_BYTES
        for i in range(n_chunks):
            this_chunk = min(chunk_tuples, spec.probe.n - i * chunk_tuples)
            deps = []
            if i >= 2:  # two input buffers swap roles (§IV-A)
                deps.append(f"probe.join[{i - 2}]")
            transfer = plan.add(
                f"probe.h2d[{i}]",
                H2D,
                this_chunk * spec.probe.tuple_bytes / dma_rate,
                deps,
            )
            join_deps = [transfer, "build.partition"]
            if materialize and i >= 2:  # two output buffers (§IV-C)
                join_deps.append(f"probe.d2h[{i - 2}]")
            plan.add(f"probe.join[{i}]", GPU, float(chunk_join_seconds(i)), join_deps)
            if materialize:
                plan.add(
                    f"probe.d2h[{i}]",
                    D2H,
                    out_bytes_per_chunk / dma_rate,
                    [f"probe.join[{i}]"],
                )
        return plan

    # ------------------------------------------------------------------
    def prepare(
        self,
        spec: JoinSpec,
        *,
        chunk_tuples: int | None = None,
        materialize: bool = False,
    ) -> JoinPlan:
        chunk_tuples = chunk_tuples or self.default_chunk_tuples(spec.build.n)
        self._check_device_memory(spec, chunk_tuples)
        cfg = self.config
        bits_per_pass = cfg.bits_per_pass_for(spec.build.n)
        total_bits = sum(bits_per_pass)

        # Build-side preparation: partition it, then build the co-partition
        # tables once — every chunk probes the same resident tables.
        build_prep = (
            estimate_partition_cost(
                spec.build.n, spec.build.tuple_bytes, bits_per_pass, self.cost_model
            ).seconds
            + self.cost_model.build_tables_seconds(spec.build.n, spec.build.tuple_bytes)
        )

        build_sizes = stats_mod.expected_partition_sizes(spec.build, total_bits)
        matches = stats_mod.expected_join_cardinality(spec)
        key_bits = key_bit_width(max(spec.build.distinct, spec.probe.distinct) - 1)

        # Fast path: every chunk probes the same resident build tables,
        # so the join formula's build-side invariants are computed once
        # and each chunk only scales the probe side by its fraction —
        # at most two distinct values (full chunks + a trailing partial
        # one), memoized per chunk size.
        probe_sizes_base = stats_mod.expected_partition_sizes(spec.probe, total_bits)
        evaluator = self._resident._join_cost_evaluator(
            build_sizes,
            probe_sizes_base,
            matches,
            tuple_bytes=spec.build.tuple_bytes,
            radix_bits=total_bits,
            key_bits=key_bits,
            materialize=materialize,
            charge_build=False,
        )
        join_memo: dict[int, float] = {}

        def chunk_join_seconds(i: int) -> float:
            this_chunk = min(chunk_tuples, spec.probe.n - i * chunk_tuples)
            cached = join_memo.get(this_chunk)
            if cached is None:
                partition = estimate_partition_cost(
                    this_chunk, spec.probe.tuple_bytes, bits_per_pass, self.cost_model
                )
                cached = partition.seconds + evaluator.seconds(
                    this_chunk / spec.probe.n
                )
                join_memo[this_chunk] = cached
            return cached

        return self._pipeline_plan(
            spec,
            chunk_tuples=chunk_tuples,
            chunk_join_seconds=chunk_join_seconds,
            build_prep_seconds=build_prep,
            matches=matches,
            materialize=materialize,
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        build: Relation,
        probe: Relation,
        *,
        chunk_tuples: int | None = None,
        materialize: bool = False,
    ) -> JoinRunResult:
        """Functional execution: chunk the probe side and join each chunk
        against the resident partitioned build (the union of chunk joins
        equals the full join — §IV-A's correctness argument)."""
        cfg = self.config
        chunk_tuples = chunk_tuples or self.default_chunk_tuples(build.num_tuples)
        bits_per_pass = cfg.bits_per_pass_for(build.num_tuples)

        part_build, build_partition_cost = gpu_radix_partition(
            build, bits_per_pass, self.cost_model, bucket_capacity=cfg.bucket_capacity
        )
        tables, _ = build_copartition_tables(
            part_build,
            nslots=cfg.ht_slots,
            elements_per_block=cfg.elements_per_block,
            cost_model=self.cost_model,
        )

        chunk_costs: list[float] = []
        build_payloads: list[np.ndarray] = []
        probe_payloads: list[np.ndarray] = []
        n_chunks = math.ceil(probe.num_tuples / chunk_tuples)
        for i in range(n_chunks):
            chunk = probe.slice(i * chunk_tuples, min((i + 1) * chunk_tuples, probe.num_tuples))
            part_chunk, chunk_partition_cost = gpu_radix_partition(
                chunk, bits_per_pass, self.cost_model, bucket_capacity=cfg.bucket_capacity
            )
            result = probe_copartitions(
                tables,
                part_chunk,
                elements_per_block=cfg.elements_per_block,
                threads_per_block=cfg.threads_per_block_join,
                cost_model=self.cost_model,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )
            chunk_costs.append(chunk_partition_cost.seconds + result.cost.seconds)
            build_payloads.append(result.build_payloads)
            probe_payloads.append(result.probe_payloads)

        all_build = np.concatenate(build_payloads) if build_payloads else np.empty(0, np.int64)
        all_probe = np.concatenate(probe_payloads) if probe_payloads else np.empty(0, np.int64)

        spec = spec_from_relations(build, probe)
        # An empty probe executes zero chunks, but the degenerate spec
        # (n=1) still plans one; charge phantom chunks at zero cost.
        metrics = self.simulate(
            self._pipeline_plan(
                spec,
                chunk_tuples=chunk_tuples,
                chunk_join_seconds=lambda i: chunk_costs[i] if i < len(chunk_costs) else 0.0,
                build_prep_seconds=build_partition_cost.seconds,
                matches=float(all_build.shape[0]),
                materialize=materialize,
            )
        )
        if materialize:
            return JoinRunResult(
                metrics=metrics, build_payloads=all_build, probe_payloads=all_probe
            )
        return JoinRunResult(
            metrics=metrics, aggregate=aggregate_pairs(all_build, all_probe)
        )
