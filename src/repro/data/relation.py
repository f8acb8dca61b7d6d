"""Columnar relations.

The paper's workload (§V-A) mimics the standard microbenchmark used by the
CPU-join literature: narrow tuples of a 4-byte key and a 4-byte payload,
stored column-wise.  We keep the columns as numpy arrays (``int64`` for
headroom; the *modelled* width stays 4 bytes so that all traffic
computations match the paper) and carry two extra pieces of metadata:

``payload_bytes``
    The in-tuple payload width.  The base workload uses 4 bytes.

``late_payload_bytes``
    Width of additional attributes that are *late materialized*: the join
    carries a tuple identifier and the attributes are gathered afterwards
    (Figures 9 and 10 vary this width from 16 to 128 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidRelationError

if TYPE_CHECKING:  # pragma: no cover - spec.py imports this module
    from repro.data.spec import JoinSpec

#: Modelled width of a join key in bytes (the paper uses 4-byte keys).
KEY_BYTES = 4

#: Modelled width of the in-tuple payload in bytes.
DEFAULT_PAYLOAD_BYTES = 4


@dataclass
class Relation:
    """An in-memory columnar relation participating in a join.

    Parameters
    ----------
    key:
        Join-key column.  Stored as ``int64``; modelled as 4-byte values.
    payload:
        Payload column, by convention the tuple identifier used for late
        materialization.  Must have the same length as ``key``.
    name:
        Human-readable name used in logs and experiment reports.
    payload_bytes:
        Modelled in-tuple payload width (bytes).
    late_payload_bytes:
        Modelled width of late-materialized attributes (bytes).
    """

    key: np.ndarray
    payload: np.ndarray
    name: str = "relation"
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    late_payload_bytes: int = 0
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = np.ascontiguousarray(self.key, dtype=np.int64)
        self.payload = np.ascontiguousarray(self.payload, dtype=np.int64)
        if self.key.ndim != 1 or self.payload.ndim != 1:
            raise InvalidRelationError(
                f"{self.name}: key and payload must be one-dimensional"
            )
        if self.key.shape[0] != self.payload.shape[0]:
            raise InvalidRelationError(
                f"{self.name}: key column has {self.key.shape[0]} rows but "
                f"payload column has {self.payload.shape[0]}"
            )
        if self.payload_bytes < 0 or self.late_payload_bytes < 0:
            raise InvalidRelationError(
                f"{self.name}: payload widths must be non-negative"
            )
        self._validated = True

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        """Number of tuples in the relation."""
        return int(self.key.shape[0])

    @property
    def tuple_bytes(self) -> int:
        """Modelled width of one tuple as it flows through the join."""
        return KEY_BYTES + self.payload_bytes

    @property
    def nbytes(self) -> int:
        """Modelled total size of the join columns in bytes."""
        return self.num_tuples * self.tuple_bytes

    @property
    def total_bytes_with_late_payload(self) -> int:
        """Modelled size including the late-materialized attributes."""
        return self.nbytes + self.num_tuples * self.late_payload_bytes

    def __len__(self) -> int:  # pragma: no cover - trivial
        return self.num_tuples

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(
        cls,
        keys: np.ndarray,
        name: str = "relation",
        *,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        late_payload_bytes: int = 0,
    ) -> "Relation":
        """Build a relation whose payload is the tuple identifier (row id)."""
        keys = np.asarray(keys, dtype=np.int64)
        return cls(
            key=keys,
            payload=np.arange(keys.shape[0], dtype=np.int64),
            name=name,
            payload_bytes=payload_bytes,
            late_payload_bytes=late_payload_bytes,
        )

    def take(self, indices: np.ndarray, name: str | None = None) -> "Relation":
        """Return a new relation holding the tuples at ``indices``."""
        return Relation(
            key=self.key[indices],
            payload=self.payload[indices],
            name=name or self.name,
            payload_bytes=self.payload_bytes,
            late_payload_bytes=self.late_payload_bytes,
        )

    def slice(self, start: int, stop: int, name: str | None = None) -> "Relation":
        """Return a zero-copy view of tuples ``[start, stop)``."""
        return Relation(
            key=self.key[start:stop],
            payload=self.payload[start:stop],
            name=name or f"{self.name}[{start}:{stop}]",
            payload_bytes=self.payload_bytes,
            late_payload_bytes=self.late_payload_bytes,
        )

    def distinct_keys(self) -> int:
        """Number of distinct join keys (exact, computed from the data):
        sort, then count the changes between neighbours."""
        if not self.num_tuples:
            return 0
        keys = np.sort(self.key)
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))

    def describe(self) -> str:
        """One-line summary used by examples and the bench harness."""
        return (
            f"{self.name}: {self.num_tuples:,} tuples x "
            f"{self.tuple_bytes} B (+{self.late_payload_bytes} B late) = "
            f"{self.nbytes / 1e6:.1f} MB"
        )


def spec_from_relations(build: Relation, probe: Relation) -> JoinSpec:
    """Describe materialized relations for the shared cost helpers."""
    from repro.data.spec import Distribution, JoinSpec, RelationSpec

    def describe(rel: Relation) -> RelationSpec:
        distinct = rel.distinct_keys()
        if rel.num_tuples == 0:
            # Degenerate empty input: describe as a single-tuple domain so
            # spec validation holds; costs scale by actual counts anyway.
            return RelationSpec(
                n=1,
                payload_bytes=rel.payload_bytes,
                late_payload_bytes=rel.late_payload_bytes,
            )
        if distinct == rel.num_tuples:
            return RelationSpec(
                n=rel.num_tuples,
                payload_bytes=rel.payload_bytes,
                late_payload_bytes=rel.late_payload_bytes,
            )
        return RelationSpec(
            n=rel.num_tuples,
            distinct=distinct,
            distribution=Distribution.UNIFORM,
            payload_bytes=rel.payload_bytes,
            late_payload_bytes=rel.late_payload_bytes,
        )

    return JoinSpec(build=describe(build), probe=describe(probe))
