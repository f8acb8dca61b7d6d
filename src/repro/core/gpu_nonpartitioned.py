"""The non-partitioned GPU hash join strategy (§V-B comparison point).

Wraps the chaining and perfect-hash kernels behind the same strategy
interface as :class:`~repro.core.gpu_partitioned.GpuPartitionedJoin` so
the evaluation harness can sweep both families uniformly.
"""

from __future__ import annotations

from repro.core.config import GpuJoinConfig
from repro.core.gpu_partitioned import OUT_TUPLE_BYTES
from repro.core.results import JoinRunResult
from repro.core.strategy import (
    GPU_NONPARTITIONED,
    GPU_NONPARTITIONED_PERFECT,
    JoinPlan,
    PipelinedJoinStrategy,
    register_strategy,
)
from repro.data import stats as stats_mod
from repro.data.relation import Relation, spec_from_relations
from repro.data.spec import JoinSpec
from repro.errors import DeviceMemoryOverflowError, InvalidConfigError
from repro.gpusim.calibration import Calibration
from repro.gpusim.cost import GpuCostModel, KernelCost
from repro.gpusim.spec import SystemSpec
from repro.kernels.aggregate import aggregate_pairs
from repro.kernels.nonpartitioned import CHAINING, PERFECT, chaining_join, perfect_hash_join
from repro.pipeline.tasks import GPU


@register_strategy
class GpuNonPartitionedJoin(PipelinedJoinStrategy):
    """Single global hash table in device memory (chaining or perfect)."""

    key = GPU_NONPARTITIONED

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
        *,
        variant: str = CHAINING,
    ):
        # The non-partitioned kernels take no partitioning config; the
        # parameter exists for the uniform strategy-factory signature.
        if variant not in (CHAINING, PERFECT):
            raise InvalidConfigError(f"unknown variant: {variant!r}")
        self.system = system or SystemSpec()
        self.config = config
        self.cost_model = GpuCostModel(self.system, calibration)
        self.variant = variant

    @property
    def name(self) -> str:
        if self.variant == PERFECT:
            return "GPU Non-partitioned w/ perfect hash"
        return "GPU Non-partitioned"

    def _fingerprint_extras(self) -> tuple:
        return (self.variant,)

    # ------------------------------------------------------------------
    @classmethod
    def device_bytes_needed(cls, spec: JoinSpec, system: SystemSpec) -> int:
        """Inputs + the global hash table must be device resident."""
        return spec.build.nbytes + spec.probe.nbytes + spec.build.n * 16

    def _check_device_memory(self, spec: JoinSpec) -> None:
        needed = self.device_bytes_needed(spec, self.system)
        if needed > self.system.gpu.device_memory:
            raise DeviceMemoryOverflowError(
                f"non-partitioned join needs {needed / 1e9:.2f} GB but the "
                f"device has {self.system.gpu.device_memory / 1e9:.2f} GB"
            )

    def _gather_cost(self, spec: JoinSpec, matches: float) -> KernelCost:
        """Late materialization: probe identifiers stay in scan order, so
        probe-side attributes stream sequentially; build-side matches are
        in hash order and gather randomly (§V-B, Figs 9–10)."""
        cost = KernelCost.zero()
        if spec.probe.late_payload_bytes:
            cost = cost + self.cost_model.gather_payload(
                matches, spec.probe.late_payload_bytes, random=False
            )
        if spec.build.late_payload_bytes:
            cost = cost + self.cost_model.gather_payload(
                matches, spec.build.late_payload_bytes, random=True
            )
        return cost

    def _plan(
        self,
        spec: JoinSpec,
        build_cost: KernelCost,
        probe_cost: KernelCost,
        gather_cost: KernelCost,
        matches: float,
        *,
        materialize: bool,
    ) -> JoinPlan:
        """Build → probe → gather, serial on the GPU compute queue."""
        plan = JoinPlan(
            strategy=self.name,
            spec=spec,
            phases=("build", "probe", "gather"),
            matches=matches,
            materialize=materialize,
            notes={"tuple_bytes": float(spec.build.tuple_bytes)},
        )
        build = plan.add("build", GPU, build_cost.seconds, phase="build")
        probe = plan.add("probe", GPU, probe_cost.seconds, [build], phase="probe")
        plan.add("gather", GPU, gather_cost.seconds, [probe], phase="gather")
        return plan

    # ------------------------------------------------------------------
    def prepare(self, spec: JoinSpec, *, materialize: bool = False) -> JoinPlan:
        self._check_device_memory(spec)
        calib = self.cost_model.calib
        matches = stats_mod.expected_join_cardinality(spec)
        if self.variant == PERFECT:
            build_cost = KernelCost(
                self.cost_model.scan_seconds(spec.build.nbytes)
                + calib.kernel_launch_seconds
            )
            accesses = calib.perfect_hash_accesses_per_probe
        else:
            build_cost = self.cost_model.nonpartitioned_build(
                spec.build.n, spec.build.tuple_bytes
            )
            accesses = calib.nonpartitioned_accesses_per_probe
        probe_cost = self.cost_model.nonpartitioned_probe(
            spec.probe.n,
            spec.build.n,
            spec.probe.tuple_bytes,
            accesses_per_probe=accesses,
            matches=matches,
            materialize=materialize,
            out_tuple_bytes=OUT_TUPLE_BYTES,
        )
        gather_cost = self._gather_cost(spec, matches)
        return self._plan(
            spec, build_cost, probe_cost, gather_cost, matches, materialize=materialize
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        build: Relation,
        probe: Relation,
        *,
        materialize: bool = False,
    ) -> JoinRunResult:
        if self.variant == PERFECT:
            result = perfect_hash_join(
                build,
                probe,
                self.cost_model,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )
        else:
            result = chaining_join(
                build,
                probe,
                self.cost_model,
                materialize=materialize,
                out_tuple_bytes=OUT_TUPLE_BYTES,
            )
        spec = spec_from_relations(build, probe)
        gather_cost = self._gather_cost(spec, float(result.matches))
        metrics = self.simulate(
            self._plan(
                spec,
                result.build_cost,
                result.probe_cost,
                gather_cost,
                float(result.matches),
                materialize=materialize,
            )
        )
        if materialize:
            return JoinRunResult(
                metrics=metrics,
                build_payloads=result.build_payloads,
                probe_payloads=result.probe_payloads,
            )
        return JoinRunResult(
            metrics=metrics,
            aggregate=aggregate_pairs(result.build_payloads, result.probe_payloads),
        )


@register_strategy
class GpuPerfectHashJoin(GpuNonPartitionedJoin):
    """The perfect-hash variant under its own registry key."""

    key = GPU_NONPARTITIONED_PERFECT

    def __init__(
        self,
        system: SystemSpec | None = None,
        calibration: Calibration | None = None,
        config: GpuJoinConfig | None = None,
    ):
        super().__init__(system, calibration, config, variant=PERFECT)
