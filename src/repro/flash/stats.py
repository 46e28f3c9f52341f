"""Operation counters for the flash substrate.

The flash array counts *physical* operations only; attribution of those
operations to causes (user access, cache writeback, GC migration, ...)
happens in the FTL-level metrics.  Keeping a physical ground truth lets
integration tests check that the two accountings agree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from ..types import BlockKind


@dataclass
class FlashStats:
    """Raw counts of physical flash operations.

    The per-kind operation counts are plain integers the flash array
    increments in place (they sit on its per-page paths).
    """

    data_reads: int = 0
    translation_reads: int = 0
    data_writes: int = 0
    translation_writes: int = 0
    data_erases: int = 0
    translation_erases: int = 0

    # -- fault handling (all zero on an ideal device) -------------------
    #: ECC retry reads issued after transient read errors.
    read_retries: int = 0
    #: reads that needed at least one retry but ultimately succeeded.
    ecc_recovered_reads: int = 0
    #: reads that exhausted the retry budget (raised ReadError).
    uncorrectable_reads: int = 0
    #: simulated time spent in retry backoff, in microseconds.
    read_backoff_us: float = 0.0
    #: program attempts that failed (one bad page each).
    program_failures: int = 0
    #: erases that failed (the block was retired).
    erase_failures: int = 0
    #: blocks taken out of service (erase failure or bad-page wear-out).
    retired_blocks: int = 0

    def record_read_retry(self, backoff_us: float) -> None:
        """Count one ECC retry and the backoff time it cost."""
        self.read_retries += 1
        self.read_backoff_us += backoff_us

    def record_ecc_recovery(self) -> None:
        """Count one read recovered by retrying."""
        self.ecc_recovered_reads += 1

    def record_uncorrectable_read(self) -> None:
        """Count one read lost despite the full retry budget."""
        self.uncorrectable_reads += 1

    def record_program_failure(self) -> None:
        """Count one failed program attempt (page went bad)."""
        self.program_failures += 1

    def record_erase_failure(self) -> None:
        """Count one failed erase."""
        self.erase_failures += 1

    def record_block_retired(self) -> None:
        """Count one block leaving service permanently."""
        self.retired_blocks += 1

    # ------------------------------------------------------------------
    # Views and totals
    # ------------------------------------------------------------------
    @property
    def erases(self) -> Dict[BlockKind, int]:
        """Block erases by the role the block played."""
        return {BlockKind.DATA: self.data_erases,
                BlockKind.TRANSLATION: self.translation_erases}

    @property
    def total_reads(self) -> int:
        """All page reads, across kinds."""
        return self.data_reads + self.translation_reads

    @property
    def total_writes(self) -> int:
        """All page programs, across kinds."""
        return self.data_writes + self.translation_writes

    @property
    def total_erases(self) -> int:
        """All block erases, across kinds."""
        return self.data_erases + self.translation_erases

    def fault_summary(self) -> Dict[str, float]:
        """The fault/retry counters as a flat dict, for reports."""
        return {
            "read_retries": self.read_retries,
            "ecc_recovered_reads": self.ecc_recovered_reads,
            "uncorrectable_reads": self.uncorrectable_reads,
            "read_backoff_us": self.read_backoff_us,
            "program_failures": self.program_failures,
            "erase_failures": self.erase_failures,
            "retired_blocks": self.retired_blocks,
        }

    def snapshot(self) -> "FlashStats":
        """An independent copy, for before/after deltas."""
        return dataclasses.replace(self)

    def reset(self) -> None:
        """Zero all counters (used after warm-up/prefill).

        Fault counters are zeroed too: a warm-up's faults are part of
        the warm-up, just like its writes.
        """
        for field in dataclasses.fields(self):
            setattr(self, field.name, field.default)
