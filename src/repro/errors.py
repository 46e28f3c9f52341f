"""Exception hierarchy for the TPFTL reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at the API boundary.  Subclasses are split
along subsystem lines (flash substrate, cache management, FTL logic,
workload handling, configuration) because those are the natural recovery
boundaries: a trace-format problem is actionable by the user, while a flash
invariant violation indicates a simulator bug and should propagate.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with another."""


class FlashError(ReproError):
    """Base class for flash-substrate errors."""


class ProgramError(FlashError):
    """A page was programmed in violation of NAND constraints.

    Raised when writing to a non-free page (erase-before-write violation)
    or to an out-of-range physical address.
    """


class EraseError(FlashError):
    """A block erase violated NAND constraints (e.g. valid pages remain)."""


class ReadError(FlashError):
    """A page read failed even after exhausting the ECC retry budget.

    Injected read errors are normally transient and corrected by the
    retry-with-backoff loop; this is the uncorrectable tail.
    """


class DeviceWornOutError(FlashError):
    """Block retirement has exhausted the device's spare capacity.

    Raised when retiring one more block (after an erase failure or a
    bad-page accumulation) would leave fewer usable blocks than the
    logical space plus metadata and GC reserve require.  The device can
    still be read; it can no longer safely accept writes.
    """


class PowerLossError(FlashError):
    """A simulated power cut stopped the device mid-workload.

    Raised by the fault injector at the start of the flash operation on
    which power dies, so the flash state equals everything completed
    before the cut — exactly what a post-crash scan would find.
    """


class OutOfSpaceError(FlashError):
    """The flash ran out of free blocks and garbage collection cannot help.

    This happens when the logical space plus metadata exceeds the physical
    capacity minus over-provisioning, i.e. the device is misconfigured for
    the workload footprint.
    """


class CacheError(ReproError):
    """Base class for mapping-cache errors."""


class CacheCapacityError(CacheError):
    """The cache budget is too small to hold even one working unit."""


class FTLError(ReproError):
    """An FTL-level invariant was violated (simulator bug)."""


class SimInvariantError(ReproError):
    """A structural invariant of the simulator was violated.

    Raised where the code used to rely on bare ``assert`` statements:
    unlike those, these checks survive ``python -O`` and carry enough
    context to debug.  Seeing one always means a simulator bug, never a
    user error.
    """


class SanitizerError(ReproError):
    """FTLSan detected a broken runtime invariant (see ``repro.analysis``).

    Carries the sanitizer rule code (e.g. ``"SAN005"`` for the §4.5
    prefetch-boundary rule) and the host operation sequence number at
    which the violation was detected, so a failing run can be replayed
    deterministically up to the offending operation.
    """

    def __init__(self, code: str, message: str,
                 op_seq: "int | None" = None) -> None:
        prefix = f"[{code}" + (f" @ op {op_seq}" if op_seq is not None
                               else "") + "] "
        super().__init__(prefix + message)
        #: sanitizer rule code, e.g. ``"SAN001"``
        self.code = code
        #: host page-operation sequence number at detection time
        self.op_seq = op_seq


class TranslationError(FTLError):
    """Address translation failed: the LPN has no mapping anywhere."""


class MetricsError(ReproError):
    """A statistic was requested that the run did not collect.

    Raised e.g. when :meth:`~repro.metrics.ResponseStats.percentile` is
    called on stats that were aggregated without ``keep_samples=True``:
    silently returning nothing would let a caller mistake "not measured"
    for "no data".
    """


class WorkloadError(ReproError):
    """A trace could not be parsed or a generator was misconfigured."""


class ExperimentError(ReproError):
    """An experiment runner was asked for an unknown experiment/FTL."""


class RunnerError(ExperimentError):
    """Base class for supervised-execution failures in the runner.

    Everything the supervision layer reports derives from this, so a
    caller that already guards experiments with ``except
    ExperimentError`` keeps working unchanged when supervision is on.
    """


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """Structured record of one permanently failed cell.

    This is data, not an exception: a quarantined cell becomes one of
    these in the bench report and on the CLI's stderr, while the rest
    of the matrix keeps running.  ``error_type`` names the exception the
    cell raised, or one of the two failures the supervisor detects
    itself: ``"WorkerCrashError"`` (the worker process died without
    reporting) and ``"CellTimeoutError"`` (the watchdog killed it).
    ``transient`` records whether the attempts were retryable (worker
    death, timeout, ``OSError``) or the first attempt failed
    deterministically.
    """

    key: str
    label: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed_s: float
    transient: bool

    def to_payload(self) -> Dict[str, Any]:
        """The record as a JSON-safe dict (bench-report encoding)."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One-line human-readable description of the failure."""
        kind = "transient" if self.transient else "deterministic"
        return (f"{self.label}: {self.error_type}: {self.message} "
                f"({kind}, {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''}, "
                f"{self.elapsed_s:.1f}s)")


class MatrixFailureError(RunnerError):
    """One or more cells of a batch were quarantined.

    Raised *after* every other cell of the batch has completed (and
    been committed to the run cache), so no finished work is lost: a
    rerun only retries the failed cells.  Carries
    the :class:`CellFailure` records as :attr:`failures`.
    """

    def __init__(self, failures: "Sequence[CellFailure]") -> None:
        self.failures = list(failures)
        lines = "; ".join(f.summary() for f in self.failures[:5])
        extra = (f" (+{len(self.failures) - 5} more)"
                 if len(self.failures) > 5 else "")
        super().__init__(
            f"{len(self.failures)} cell"
            f"{'s' if len(self.failures) != 1 else ''} quarantined after "
            f"supervision: {lines}{extra}; completed cells are cached — "
            f"rerun to retry only the failures")
