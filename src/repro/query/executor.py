"""Query executor: evaluates plans with the paper's join strategies.

Each :class:`~repro.query.plan.HashJoin` is executed functionally with
the strategy the §IV planner selects for the inputs' sizes (or a pinned
one), using late materialization: the join carries row identifiers, and
the surviving columns of both sides are gathered afterwards.  Simulated
operator times are accumulated into a query-level report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GpuJoinConfig
from repro.core.planner import choose_strategy_name
from repro.core.strategy import create_strategy
from repro.data.relation import spec_from_relations
from repro.errors import InvalidConfigError
from repro.gpusim.spec import SystemSpec
from repro.query.plan import (
    Aggregate,
    Comparison,
    Filter,
    HashJoin,
    PlanNode,
    Scan,
    validate,
)
from repro.query.table import Table


@dataclass
class OperatorReport:
    """Simulated cost of one executed operator."""

    operator: str
    detail: str
    rows_out: int
    seconds: float


@dataclass
class QueryResult:
    """Output table (or aggregate row) plus the per-operator report."""

    table: Table
    aggregates: dict[str, int] | None = None
    report: list[OperatorReport] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(item.seconds for item in self.report)

    def explain(self) -> str:
        lines = [
            f"{item.operator:10s} {item.detail:42s} "
            f"{item.rows_out:>12,} rows {item.seconds * 1e3:10.3f} ms"
            for item in self.report
        ]
        lines.append(f"{'total':10s} {'':42s} {'':>17} {self.seconds * 1e3:10.3f} ms")
        return "\n".join(lines)


class QueryExecutor:
    """Evaluates plan trees bottom-up."""

    def __init__(
        self,
        system: SystemSpec | None = None,
        config: GpuJoinConfig | None = None,
    ):
        self.system = system or SystemSpec()
        self.config = config

    # ------------------------------------------------------------------
    def execute(self, node: PlanNode) -> QueryResult:
        validate(node)
        report: list[OperatorReport] = []
        table = self._evaluate(node, report)
        if isinstance(node, Aggregate):
            sums = {
                column: int(table.column(column).sum())
                for column in node.sum_columns
            }
            aggregates = {"count": table.num_rows, **sums}
            return QueryResult(table=table, aggregates=aggregates, report=report)
        return QueryResult(table=table, report=report)

    # ------------------------------------------------------------------
    def _evaluate(self, node: PlanNode, report: list[OperatorReport]) -> Table:
        if isinstance(node, Scan):
            report.append(
                OperatorReport("scan", node.table.name, node.table.num_rows, 0.0)
            )
            return node.table
        if isinstance(node, Filter):
            child = self._evaluate(node.child, report)
            column = child.column(node.column)
            mask = _apply_comparison(column, node.op, node.literal)
            out = child.filter(mask)
            # A filter is one coalesced scan of the predicate column, at
            # the column's actual width (narrow flag/date columns cost
            # proportionally less than 8-byte keys).
            from repro.gpusim.cost import GpuCostModel

            seconds = GpuCostModel(self.system).scan_seconds(
                column.shape[0] * column.dtype.itemsize
            )
            report.append(
                OperatorReport(
                    "filter",
                    f"{node.column} {node.op.value} {node.literal}",
                    out.num_rows,
                    seconds,
                )
            )
            return out
        if isinstance(node, HashJoin):
            return self._join(node, report)
        if isinstance(node, Aggregate):
            child = self._evaluate(node.child, report)
            report.append(
                OperatorReport(
                    "aggregate", ",".join(node.sum_columns) or "count", 1, 0.0
                )
            )
            return child
        raise InvalidConfigError(f"unknown plan node: {type(node).__name__}")

    def _join(self, node: HashJoin, report: list[OperatorReport]) -> Table:
        build_table = self._evaluate(node.build, report)
        probe_table = self._evaluate(node.probe, report)
        build_rel = build_table.key_relation(node.build_key)
        probe_rel = probe_table.key_relation(node.probe_key)

        # A pinned strategy key overrides the planner; both paths are
        # registry lookups (unknown keys raise UnknownStrategyError).
        spec = spec_from_relations(build_rel, probe_rel)
        key = node.strategy or choose_strategy_name(spec, self.system)
        strategy = create_strategy(key, self.system, config=self.config)

        result = strategy.execute(build_rel, probe_rel, materialize=True)
        build_rows = result.build_payloads
        probe_rows = result.probe_payloads

        out = Table.concat_columns(
            f"({build_table.name}x{probe_table.name})",
            build_table.gather(build_rows),
            probe_table.gather(probe_rows),
        )
        report.append(
            OperatorReport(
                "hash-join",
                f"{build_table.name}.{node.build_key} = "
                f"{probe_table.name}.{node.probe_key} [{strategy.name}]",
                out.num_rows,
                result.metrics.seconds,
            )
        )
        return out


def _apply_comparison(
    column: np.ndarray, op: Comparison, literal: int
) -> np.ndarray:
    if op is Comparison.EQ:
        return column == literal
    if op is Comparison.LT:
        return column < literal
    if op is Comparison.LE:
        return column <= literal
    if op is Comparison.GT:
        return column > literal
    if op is Comparison.GE:
        return column >= literal
    raise InvalidConfigError(f"unknown comparison: {op!r}")
