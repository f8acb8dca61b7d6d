"""Shared device-memory arena accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceMemoryOverflowError
from repro.gpusim import DeviceMemoryArena
from repro.gpusim.spec import SystemSpec

GB = 10**9


def test_reserve_and_release_roundtrip():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.try_reserve("q0", 3 * GB)
    assert arena.try_reserve("q1", 4 * GB)
    assert arena.used_bytes == 7 * GB
    assert arena.free_bytes == 1 * GB
    assert arena.release("q0") == 3 * GB
    assert arena.used_bytes == 4 * GB
    assert not arena.holds("q0")
    assert arena.holds("q1")


def test_overflow_queues_instead_of_crashing():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.try_reserve("q0", 6 * GB)
    # Does not fit: declined with no state change, no exception.
    assert not arena.try_reserve("q1", 3 * GB)
    assert arena.used_bytes == 6 * GB
    assert not arena.holds("q1")
    # After a release it fits.
    arena.release("q0")
    assert arena.try_reserve("q1", 3 * GB)


def test_used_never_exceeds_capacity():
    arena = DeviceMemoryArena(10 * GB)
    granted = 0
    for i, want in enumerate([4, 4, 4, 4, 4]):
        if arena.try_reserve(f"q{i}", want * GB):
            granted += want
        assert arena.used_bytes <= arena.capacity_bytes
        arena.check_invariants()
    assert granted == 8  # two of five declined


def test_peak_tracks_high_water_mark():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("a", 2 * GB)
    arena.reserve("b", 5 * GB)
    arena.release("a")
    arena.reserve("c", 1 * GB)
    assert arena.peak_bytes == 7 * GB
    assert arena.peak_bytes <= arena.capacity_bytes


def test_peak_fits_the_default_device():
    capacity = SystemSpec().gpu.device_memory
    arena = DeviceMemoryArena(capacity)
    assert arena.try_reserve("q", capacity)
    assert not arena.try_reserve("overflow", 1)
    assert arena.peak_bytes == capacity


def test_reserve_raises_on_overflow():
    arena = DeviceMemoryArena(1 * GB)
    with pytest.raises(DeviceMemoryOverflowError):
        arena.reserve("big", 2 * GB)


def test_bad_reservations_rejected():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("q0", GB)
    with pytest.raises(DeviceMemoryOverflowError):
        arena.try_reserve("q0", GB)  # duplicate owner
    with pytest.raises(DeviceMemoryOverflowError):
        arena.try_reserve("q1", -1)  # negative
    with pytest.raises(DeviceMemoryOverflowError):
        arena.release("unknown")
    with pytest.raises(DeviceMemoryOverflowError):
        DeviceMemoryArena(0)


def test_timeline_records_transitions():
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("a", 2 * GB, at=0.0)
    arena.reserve("b", 3 * GB, at=1.0)
    arena.release("a", at=2.0)
    assert arena.timeline == [(0.0, 2 * GB), (1.0, 5 * GB), (2.0, 3 * GB)]


def test_double_release_raises_repro_error():
    """A release the arena does not hold must raise, never be ignored:
    a swallowed double release would let the ledger drift below the
    schedule it mirrors.  Pinned as ReproError so serving callers can
    catch the library hierarchy."""
    from repro.errors import ReproError

    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("q0", GB)
    assert arena.release("q0") == GB
    with pytest.raises(DeviceMemoryOverflowError, match="double release"):
        arena.release("q0")
    assert issubclass(DeviceMemoryOverflowError, ReproError)
    # The failed release changed nothing: ledger still drained.
    assert arena.drained and arena.used_bytes == 0


def test_release_on_wrong_device_names_the_device():
    fleet = [DeviceMemoryArena(8 * GB, device=index) for index in range(2)]
    fleet[0].reserve("q0", GB)
    with pytest.raises(DeviceMemoryOverflowError, match="device 1"):
        fleet[1].release("q0")  # misrouted: q0 lives on device 0
    assert fleet[0].holds("q0")


def test_ledger_records_device_ids():
    arena = DeviceMemoryArena(8 * GB, device=3)
    arena.reserve("q0", GB, at=1.5)
    reservation = arena.reservations["q0"]
    assert reservation.device == 3
    assert reservation.granted_at == 1.5
    with pytest.raises(DeviceMemoryOverflowError):
        DeviceMemoryArena(GB, device=-1)


def test_drained_tracks_live_reservations():
    arena = DeviceMemoryArena(8 * GB)
    assert arena.drained
    arena.reserve("a", GB)
    assert not arena.drained
    arena.release("a")
    assert arena.drained
    assert arena.timeline[-1][1] == 0


def test_running_total_drift_is_caught():
    """``used_bytes`` is a running total; bypassing the arena's own
    reserve/release paths desynchronises it, and the audit says so."""
    arena = DeviceMemoryArena(8 * GB)
    arena.reserve("q0", GB)
    arena.check_invariants()
    del arena.reservations["q0"]
    with pytest.raises(DeviceMemoryOverflowError, match="running total"):
        arena.check_invariants()


def test_running_total_starts_from_given_reservations():
    from repro.gpusim.arena import Reservation

    arena = DeviceMemoryArena(8 * GB, reservations={"q0": Reservation("q0", GB)})
    assert arena.used_bytes == GB
    arena.check_invariants()


#: One arena operation: (kind, owner index, size in units of 1/8 GB).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "release", "force_release", "reconcile"]),
        st.integers(0, 7),
        st.integers(0, 40),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_running_total_matches_reservations_under_any_sequence(ops):
    unit = GB // 8
    arena = DeviceMemoryArena(4 * GB)
    live: dict[str, int] = {}
    for step, (kind, index, size) in enumerate(ops):
        owner = f"q{index}"
        at = float(step)
        if kind == "reserve":
            if owner in live:
                with pytest.raises(DeviceMemoryOverflowError):
                    arena.try_reserve(owner, size * unit, at=at)
            elif arena.try_reserve(owner, size * unit, at=at):
                live[owner] = size * unit
            else:
                assert sum(live.values()) + size * unit > arena.capacity_bytes
        elif kind == "reconcile":
            owners = sorted(o for o in live if int(o[1:]) <= index)
            assert arena.reconcile(owners, at=at) == sum(
                live.pop(o) for o in owners
            )
        elif owner not in live:
            with pytest.raises(DeviceMemoryOverflowError):
                getattr(arena, kind)(owner, at=at)
        else:
            assert getattr(arena, kind)(owner, at=at) == live.pop(owner)
        assert arena.used_bytes == sum(live.values())
        assert arena.free_bytes == arena.capacity_bytes - arena.used_bytes
        if arena.timeline:
            assert arena.timeline[-1][1] == arena.used_bytes
        arena.check_invariants()
    assert arena.peak_bytes <= arena.capacity_bytes
    assert arena.drained == (not live)
