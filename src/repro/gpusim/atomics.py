"""Atomic-operation semantics used by the build phase.

The paper's hash-table build (Listing 2) inserts every tuple at the front
of its slot's linked list with a single ``atomicExchange``:

.. code-block:: none

    slot <- entry.hash() % #slots
    old  <- atomicExchange(&HT[slot], entry.offset())
    entry.next <- old

:func:`chain_insert_reference` executes exactly that loop; it is the
ground truth.  :func:`group_slots` computes the identical final data
structure with vectorized numpy (later inserts become chain heads, each
entry links to the previous head of its slot) for the occupied slots
only; :func:`chain_insert` scatters it into a dense slot array.  The
property tests assert both against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigError

#: Sentinel for an empty slot / end of chain.
NIL = -1


@dataclass
class HashTable:
    """A chaining hash table: slot heads plus per-entry next links.

    ``heads[s]`` is the index of the most recently inserted entry whose
    key hashes to slot ``s`` (or :data:`NIL`); ``next[i]`` links entry
    ``i`` to the previously inserted entry in the same slot.  Indices are
    entry offsets, exactly as in the paper where 16-bit offsets represent
    the links between list nodes (§III-C).
    """

    heads: np.ndarray
    next: np.ndarray

    @property
    def nslots(self) -> int:
        return int(self.heads.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.next.shape[0])

    def chain(self, slot: int) -> list[int]:
        """Walk one slot's chain (tests and debugging)."""
        out: list[int] = []
        cursor = int(self.heads[slot])
        while cursor != NIL:
            out.append(cursor)
            cursor = int(self.next[cursor])
            if len(out) > self.num_entries:
                raise InvalidConfigError("cycle detected in hash chain")
        return out

    def chain_lengths(self) -> np.ndarray:
        """Length of every slot chain (vectorized)."""
        lengths = np.zeros(self.nslots, dtype=np.int64)
        cursor = self.heads.copy()
        live = cursor != NIL
        while live.any():
            lengths[live] += 1
            cursor[live] = self.next[cursor[live]]
            live = cursor != NIL
        return lengths


def atomic_exchange(array: np.ndarray, index: int, value: int) -> int:
    """Single-threaded ``atomicExchange`` semantics."""
    old = int(array[index])
    array[index] = value
    return old


def chain_insert_reference(slots: np.ndarray, nslots: int) -> HashTable:
    """Insert entries 0..n-1 in order using the Listing 2 loop."""
    slots = np.asarray(slots)
    if slots.size and (slots.min() < 0 or slots.max() >= nslots):
        raise InvalidConfigError("slot index out of range")
    heads = np.full(nslots, NIL, dtype=np.int64)
    next_ = np.full(slots.shape[0], NIL, dtype=np.int64)
    for i, slot in enumerate(slots):
        old = atomic_exchange(heads, int(slot), i)
        next_[i] = old
    return HashTable(heads=heads, next=next_)


def group_slots(
    slots: np.ndarray, nslots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table :func:`chain_insert_reference` builds, kept sparse.

    Returns ``(occupied, heads, next)``: the occupied slots in ascending
    order, each one's head entry (its *last* inserted entry), and every
    entry's link to its predecessor within the slot.  Host memory is
    O(entries), whatever ``nslots`` is.  Slot ids sort as the narrowest
    unsigned type that holds ``nslots - 1``; a stable sort yields the same
    permutation at any integer width, and stability keeps insertion
    order inside each group.
    """
    slots = np.asarray(slots, dtype=np.int64)
    n = slots.shape[0]
    if n and (slots.min() < 0 or slots.max() >= nslots):
        raise InvalidConfigError("slot index out of range")
    next_ = np.full(n, NIL, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), next_

    order = np.argsort(
        slots.astype(np.min_scalar_type(nslots - 1)), kind="stable"
    )
    grouped = slots[order]
    same_as_prev = grouped[1:] == grouped[:-1]

    # Entry order[k] follows order[k-1] within its slot group.
    followers = np.nonzero(same_as_prev)[0] + 1
    next_[order[followers]] = order[followers - 1]

    # Heads are the last member of each group.
    last_of_group = np.ones(n, dtype=bool)
    last_of_group[:-1] = ~same_as_prev
    return grouped[last_of_group], order[last_of_group], next_


def chain_insert(slots: np.ndarray, nslots: int) -> HashTable:
    """Vectorized equivalent of :func:`chain_insert_reference`: the
    :func:`group_slots` heads scattered into a dense slot array."""
    occupied, group_heads, next_ = group_slots(slots, nslots)
    heads = np.full(nslots, NIL, dtype=np.int64)
    heads[occupied] = group_heads
    return HashTable(heads=heads, next=next_)
