"""Byte-budget accounting for mapping caches.

Every FTL in the paper is compared at an equal *byte* budget, not an equal
entry count — that is how TPFTL's 6B compressed entries and S-FTL's
run-length-compressed pages turn into extra hit ratio.  ``ByteBudget``
centralises the arithmetic so each FTL only declares how many bytes each
of its objects costs.
"""

from __future__ import annotations

from ..errors import CacheCapacityError, CacheError


class ByteBudget:
    """Tracks bytes used against a fixed capacity."""

    __slots__ = ("capacity", "used")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise CacheCapacityError(
                f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.used = 0

    def charge(self, nbytes: int) -> None:
        """Consume ``nbytes``; the caller must have made room first."""
        if nbytes < 0:
            raise CacheError(f"cannot charge negative bytes ({nbytes})")
        if self.used + nbytes > self.capacity:
            raise CacheError(
                f"charge of {nbytes}B overflows budget "
                f"({self.used}/{self.capacity}B used)")
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget."""
        if nbytes < 0:
            raise CacheError(f"cannot release negative bytes ({nbytes})")
        if nbytes > self.used:
            raise CacheError(
                f"release of {nbytes}B exceeds usage {self.used}B")
        self.used -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ByteBudget(used={self.used}, capacity={self.capacity})"
