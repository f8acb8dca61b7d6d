"""Compact co-partition tables against the dense Listing 2 table.

The build keeps only the occupied global slots; these tests pin that the
directory answers every global slot exactly as the dense
``fanout * nslots`` head array of :func:`chain_insert_reference` would,
that probing through it is indistinguishable from probing a dense table,
and that host memory no longer scales with ``fanout * nslots``.
"""

import dataclasses
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import Relation
from repro.gpusim.atomics import NIL, chain_insert_reference
from repro.gpusim.cost import GpuCostModel
from repro.kernels.build_hash import build_copartition_tables
from repro.kernels.probe_hash import probe_copartitions
from repro.kernels.radix_partition import gpu_radix_partition

MODEL = GpuCostModel()

keys_st = st.lists(st.integers(min_value=-300, max_value=300), max_size=120)


def _partition(keys, bits):
    rel = Relation.from_keys(np.asarray(keys, dtype=np.int64))
    part, _ = gpu_radix_partition(rel, list(bits), MODEL)
    return part


def _build(part, nslots):
    tables, _ = build_copartition_tables(
        part, nslots=nslots, elements_per_block=4096, cost_model=MODEL
    )
    return tables


def _probe(tables, part):
    return probe_copartitions(
        tables, part, elements_per_block=4096, threads_per_block=512, cost_model=MODEL
    )


def _dense_reference(tables):
    """Listing 2 over every global slot of the partitioned build."""
    build = tables.build
    partition_ids = np.repeat(np.arange(build.fanout), build.partition_sizes())
    slots = tables.global_slot(partition_ids, build.keys)
    return chain_insert_reference(slots, build.fanout * tables.nslots)


@settings(max_examples=60, deadline=None)
@given(
    build_keys=keys_st,
    probe_keys=keys_st,
    bits=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    log_slots=st.integers(min_value=0, max_value=5),
)
def test_compact_table_equals_dense_reference(build_keys, probe_keys, bits, log_slots):
    nslots = 1 << log_slots
    tables = _build(_partition(build_keys, bits), nslots)
    ref = _dense_reference(tables)

    every_slot = np.arange(tables.fanout * nslots)
    assert np.array_equal(tables.lookup(every_slot), ref.heads)
    assert np.array_equal(tables.next, ref.next)
    assert np.all(np.diff(tables.slots) > 0)

    # Probing a directory that lists every slot is probing the dense table.
    dense = dataclasses.replace(tables, slots=every_slot, heads=ref.heads)
    probe = _partition(probe_keys, bits)
    compact_result, dense_result = _probe(tables, probe), _probe(dense, probe)
    assert np.array_equal(compact_result.build_payloads, dense_result.build_payloads)
    assert np.array_equal(compact_result.probe_payloads, dense_result.probe_payloads)
    assert compact_result.chain_visits == dense_result.chain_visits


def test_empty_build_side():
    tables = _build(_partition([], [3]), 16)
    assert tables.slots.size == tables.heads.size == tables.next.size == 0
    assert np.all(tables.lookup(np.arange(8 * 16)) == NIL)
    result = _probe(tables, _partition([1, 2, 3, 2], [3]))
    assert result.matches == 0
    assert result.chain_visits == 0


def test_host_memory_scales_with_tuples_not_table_slots():
    """2^15 partitions x 2048 slots: the dense head array alone was
    2^26 int64 (537 MB); the compact tables plus a probe stay small."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 30, size=4096)
    build = _partition(keys, [8, 7])
    probe = _partition(keys, [8, 7])
    assert build.fanout == 1 << 15

    tracemalloc.start()
    try:
        tables = _build(build, 2048)
        result = _probe(tables, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.matches == 4096
    assert peak < 8 * 2**20
