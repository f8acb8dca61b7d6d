"""Data substrate: relations, workload specs, generators, statistics."""

from repro.data.generator import (
    DEFAULT_SEED,
    generate_join,
    generate_relation,
    naive_join_count,
    naive_join_pairs,
)
from repro.data.relation import (
    DEFAULT_PAYLOAD_BYTES,
    KEY_BYTES,
    Relation,
    spec_from_relations,
)
from repro.data.spec import (
    Distribution,
    JoinSpec,
    RelationSpec,
    replicated_pair,
    unique_pair,
    zipf_pair,
)

__all__ = [
    "DEFAULT_PAYLOAD_BYTES",
    "DEFAULT_SEED",
    "Distribution",
    "JoinSpec",
    "KEY_BYTES",
    "Relation",
    "RelationSpec",
    "generate_join",
    "generate_relation",
    "naive_join_count",
    "naive_join_pairs",
    "replicated_pair",
    "spec_from_relations",
    "unique_pair",
    "zipf_pair",
]
