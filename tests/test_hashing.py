"""Memoized structural hashes of the frozen spec, config and calibration
types (:func:`repro.hashing.memoize_hash`)."""

import copy
import pickle
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from repro.core.config import GpuJoinConfig, fig5_config
from repro.data.spec import JoinSpec, RelationSpec, unique_pair, zipf_pair
from repro.gpusim.calibration import Calibration
from repro.gpusim.spec import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    SystemSpec,
    v100_system,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Builders of two equal, distinct instances of every memoized type.
VALUES = {
    "Calibration": lambda: Calibration().gpu_scaled(2.0),
    "GpuSpec": lambda: GpuSpec(name="Tesla V100", num_sms=80),
    "CpuSpec": lambda: CpuSpec(sockets=1),
    "InterconnectSpec": lambda: InterconnectSpec(name="NVLink 2.0"),
    "SystemSpec": v100_system,
    "GpuJoinConfig": lambda: fig5_config(11, "nlj"),
    "RelationSpec": lambda: zipf_pair(1 << 20, 0.75).probe,
    "JoinSpec": lambda: zipf_pair(1 << 20, 0.75, probe_n=1 << 22),
}


def field_hash(value) -> int:
    """The hash the generated dataclass ``__hash__`` would return."""
    return hash(tuple(getattr(value, f.name) for f in fields(value)))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_instances_hash_equal_and_match_the_field_hash(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert type(a).__name__ == name
    assert hash(a) == hash(b) == field_hash(a)
    assert hash(a) == hash(a)  # memo hit


@pytest.mark.parametrize("name", sorted(VALUES))
def test_memo_is_invisible_to_eq_repr_asdict_and_replace(name):
    memoized, fresh = VALUES[name](), VALUES[name]()
    hash(memoized)
    assert "_hash_memo" in vars(memoized)
    assert "_hash_memo" not in vars(fresh)
    assert memoized == fresh
    assert repr(memoized) == repr(fresh)
    assert "_hash_memo" not in repr(memoized)
    assert asdict(memoized) == asdict(fresh)
    assert "_hash_memo" not in vars(replace(memoized))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_memo_is_not_pickled_or_copied(name):
    value = VALUES[name]()
    hash(value)
    for clone in (
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert "_hash_memo" not in vars(clone)
        assert clone == value and hash(clone) == hash(value)


def test_unequal_instances_still_differ():
    assert unique_pair(1000) != unique_pair(1001)
    assert {unique_pair(1000): 1}.get(unique_pair(1001)) is None
    assert GpuJoinConfig() != GpuJoinConfig(ht_slots=1024)
    assert SystemSpec() != v100_system()


def test_unpickled_instance_is_found_in_a_process_with_another_hash_seed():
    """String and enum hashes change with ``PYTHONHASHSEED``; a memo that
    travelled with the pickle would miss the child's own dict keys."""
    values = [VALUES[name]() for name in sorted(VALUES)]
    for value in values:
        hash(value)  # memoize under this process's seed
    script = (
        "import pickle, sys\n"
        "from repro.core.config import fig5_config\n"
        "from repro.data.spec import zipf_pair\n"
        "from repro.gpusim.calibration import Calibration\n"
        "from repro.gpusim.spec import CpuSpec, GpuSpec, InterconnectSpec, "
        "v100_system\n"
        "mine = [Calibration().gpu_scaled(2.0), CpuSpec(sockets=1),\n"
        "        fig5_config(11, 'nlj'), GpuSpec(name='Tesla V100', num_sms=80),\n"
        "        InterconnectSpec(name='NVLink 2.0'),\n"
        "        zipf_pair(1 << 20, 0.75, probe_n=1 << 22),\n"
        "        zipf_pair(1 << 20, 0.75).probe, v100_system()]\n"
        "index = {value: i for i, value in enumerate(mine)}\n"
        "theirs = pickle.loads(sys.stdin.buffer.read())\n"
        "print([index.get(value) for value in theirs])\n"
    )
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(values),
            capture_output=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            check=True,
        )
        assert result.stdout.decode().strip() == str(list(range(len(values))))


def test_hash_seed_really_moves_string_hashes():
    """Guards the test above: the child's spec hashes differ from ours,
    so the lookup there only succeeds because the memo was dropped."""
    spec = JoinSpec(build=RelationSpec(n=10), probe=RelationSpec(n=10))
    script = (
        "from repro.data.spec import JoinSpec, RelationSpec\n"
        "print(hash(JoinSpec(build=RelationSpec(n=10), "
        "probe=RelationSpec(n=10))))\n"
    )
    child = {
        int(
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
                check=True,
            ).stdout
        )
        for seed in ("1", "2")
    }
    assert len(child | {hash(spec)}) > 1
