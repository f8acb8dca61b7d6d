"""Hash-once support for the frozen value types used as cache keys.

Specs, configs and calibrations are frozen dataclasses, and every
estimate, plan and ladder cache key hashes them.  The generated
dataclass ``__hash__`` re-hashes every field (and, for nested specs,
every field of every member) on each call, which made structural
hashing a large share of the serving hot path.  :func:`memoize_hash`
keeps the generated hash's *value* and computes it once per instance.

The memo is an instance attribute outside the dataclass fields, so
``==``, ``repr``, :func:`dataclasses.asdict` and
:func:`dataclasses.replace` never see it.  It is also dropped from the
pickled state (which :mod:`copy` uses too): string and enum hashes
depend on the interpreter's hash seed, so an instance unpickled in
another process recomputes its hash there.
"""

from __future__ import annotations

from typing import TypeVar

T = TypeVar("T", bound=type)

_MEMO = "_hash_memo"


def memoize_hash(cls: T) -> T:
    """Class decorator for a frozen dataclass; apply it above
    ``@dataclass(frozen=True)`` so it wraps the generated ``__hash__``."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash_memo
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, _MEMO, value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_MEMO, None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls
