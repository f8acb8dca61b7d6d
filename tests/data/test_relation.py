"""Unit tests for :mod:`repro.data.relation`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import KEY_BYTES, Relation
from repro.errors import InvalidRelationError


def test_from_keys_assigns_row_ids_as_payload():
    rel = Relation.from_keys(np.array([5, 3, 9]))
    assert rel.num_tuples == 3
    assert list(rel.payload) == [0, 1, 2]


def test_tuple_and_total_bytes():
    rel = Relation.from_keys(np.arange(10), payload_bytes=4, late_payload_bytes=16)
    assert rel.tuple_bytes == KEY_BYTES + 4
    assert rel.nbytes == 10 * 8
    assert rel.total_bytes_with_late_payload == 10 * 8 + 10 * 16


def test_mismatched_columns_rejected():
    with pytest.raises(InvalidRelationError):
        Relation(key=np.arange(3), payload=np.arange(4))


def test_multidimensional_columns_rejected():
    with pytest.raises(InvalidRelationError):
        Relation(key=np.zeros((2, 2)), payload=np.zeros((2, 2)))


def test_negative_payload_width_rejected():
    with pytest.raises(InvalidRelationError):
        Relation.from_keys(np.arange(3), payload_bytes=-1)


def test_take_preserves_metadata():
    rel = Relation.from_keys(np.arange(10), payload_bytes=8, late_payload_bytes=32)
    sub = rel.take(np.array([1, 3, 5]))
    assert sub.num_tuples == 3
    assert list(sub.key) == [1, 3, 5]
    assert sub.payload_bytes == 8
    assert sub.late_payload_bytes == 32


def test_slice_is_view_and_half_open():
    rel = Relation.from_keys(np.arange(10))
    part = rel.slice(2, 5)
    assert list(part.key) == [2, 3, 4]
    assert part.key.base is not None  # zero copy


def test_distinct_keys():
    rel = Relation.from_keys(np.array([1, 1, 2, 3, 3, 3]))
    assert rel.distinct_keys() == 3


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "keys",
    [
        [],
        [7],
        [4] * 50,
        [-3, -3, -1, 0, 2, -1],
        [INT64.min, INT64.max, INT64.min, 0, -1, INT64.max],
    ],
    ids=["empty", "single", "all-duplicate", "negative", "int64-extremes"],
)
def test_distinct_keys_edge_cases(keys):
    keys = np.asarray(keys, dtype=np.int64)
    assert Relation.from_keys(keys).distinct_keys() == np.unique(keys).size


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(
        st.one_of(
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=INT64.min, max_value=INT64.max),
            st.sampled_from([INT64.min, INT64.max]),
        ),
        max_size=200,
    )
)
def test_distinct_keys_equals_unique(keys):
    keys = np.asarray(keys, dtype=np.int64)
    assert Relation.from_keys(keys).distinct_keys() == np.unique(keys).size


def test_len_and_describe():
    rel = Relation.from_keys(np.arange(4), name="r")
    assert len(rel) == 4
    assert "r:" in rel.describe()


def test_keys_coerced_to_int64():
    rel = Relation.from_keys(np.array([1, 2, 3], dtype=np.int32))
    assert rel.key.dtype == np.int64
