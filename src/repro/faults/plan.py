"""The fault plan: a declarative, seedable description of NAND faults.

A :class:`FaultPlan` says *what can go wrong and how often*; the
:class:`~repro.faults.injector.FaultInjector` built from it decides
*when* each fault fires, deterministically from the seed and the order
of flash operations.  Keeping the plan a frozen dataclass means a run is
reproducible from its configuration alone, and plans can be embedded in
:class:`~repro.config.SSDConfig` (which is hashed as an experiment key).

Rates follow the failure modes NAND datasheets specify:

* **read errors** — transient bit flips; corrected by ECC retries with
  exponential backoff, uncorrectable only if the retry budget runs out;
* **program failures** — a page fails to program; the page is marked
  bad and the write moves to the next programmable page;
* **erase failures** — a block fails to erase and is retired (the
  classic grown-bad-block event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and budgets of every injectable fault class.

    All rates are per-operation probabilities in ``[0, 1]``.  The plan
    with every rate zero and no power cut is a no-op; the flash array
    skips the injector in that case.
    """

    #: RNG seed; two injectors with equal plans inject identical faults
    #: when consulted in the same operation order.
    seed: int = 0
    #: probability a single read attempt returns an ECC error.
    read_error_rate: float = 0.0
    #: probability a program attempt fails (page goes bad).
    program_fail_rate: float = 0.0
    #: probability an erase fails (block is retired).
    erase_fail_rate: float = 0.0
    #: ECC retries allowed before a read is declared uncorrectable.
    max_read_retries: int = 8
    #: fraction of a block's pages gone bad at which the next erase
    #: retires the block instead of returning it to the free pool.
    bad_page_retire_fraction: float = 0.5
    #: cut power at the start of flash operation N+1 (i.e. after N
    #: operations complete); None disables the cut.
    power_cut_after_ops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "program_fail_rate",
                     "erase_fail_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.max_read_retries < 0:
            raise ConfigError("max_read_retries must be non-negative")
        if not 0.0 < self.bad_page_retire_fraction <= 1.0:
            raise ConfigError(
                "bad_page_retire_fraction must be in (0, 1]")
        if (self.power_cut_after_ops is not None
                and self.power_cut_after_ops < 0):
            raise ConfigError("power_cut_after_ops must be non-negative")

    @property
    def is_noop(self) -> bool:
        """True when this plan can never inject anything."""
        return (self.read_error_rate == 0.0
                and self.program_fail_rate == 0.0
                and self.erase_fail_rate == 0.0
                and self.power_cut_after_ops is None)

    @property
    def injects_media_faults(self) -> bool:
        """True when any of the random media-fault rates is non-zero."""
        return (self.read_error_rate > 0.0
                or self.program_fail_rate > 0.0
                or self.erase_fail_rate > 0.0)
