"""Crash recovery: rebuild the mapping state from flash alone.

A demand-based FTL loses its RAM state — the mapping cache *and* the
GTD — on power failure.  Because this simulator records each page's
logical identity alongside its content (the stand-in for the out-of-band
area real controllers use), the full mapping state can be reconstructed
by scanning flash:

* every valid data page contributes an LPN -> PPN binding;
* every valid translation page contributes a VTPN -> PTPN binding.

Out-of-place writing guarantees at most one valid physical page per
logical page (the write path invalidates the superseded copy before the
new mapping is published), so the scan is unambiguous.  The recovered
data mapping is the *freshest* state — fresher than the on-flash
translation pages, which may lag behind by the dirty cache entries lost
in the crash.  :func:`recovery_report` quantifies exactly that gap, the
"vulnerability to a power failure" cost the paper's §1 attributes to
large RAM caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .errors import FTLError, SimInvariantError
from .flash import FlashMemory
from .types import BlockKind, PageState, UNMAPPED


@dataclass(frozen=True)
class RecoveredState:
    """Mapping state reconstructed by a full flash scan."""

    #: LPN -> PPN from valid data pages (UNMAPPED where never written)
    data_mapping: List[int]
    #: VTPN -> PTPN from valid translation pages
    gtd: Dict[int, int]
    #: blocks scanned, for reporting
    scanned_blocks: int

    def mapped_pages(self) -> int:
        """Number of LPNs with a recovered mapping."""
        return sum(1 for ppn in self.data_mapping if ppn != UNMAPPED)


def scan_flash(flash: FlashMemory, logical_pages: int) -> RecoveredState:
    """Rebuild the complete mapping state by scanning every block.

    Raises :class:`FTLError` if two valid pages claim the same logical
    page — that would mean the FTL broke the invalidate-before-publish
    invariant and recovery is ambiguous.
    """
    data_mapping = [UNMAPPED] * logical_pages
    gtd: Dict[int, int] = {}
    for block in flash.blocks:
        # retired blocks hold no live data: their valid pages were
        # migrated before the erase that retired them.
        if block.kind is BlockKind.FREE or block.kind is BlockKind.RETIRED:
            continue
        for offset in range(block.pages_per_block):
            if block.state(offset) is not PageState.VALID:
                continue
            meta = block.meta(offset)
            if meta is None:  # pragma: no cover - valid pages carry meta
                raise SimInvariantError(
                    f"valid page in block {block.block_id} offset "
                    f"{offset} has no recorded metadata")
            ppn = flash.ppn_of(block.block_id, offset)
            if block.kind is BlockKind.DATA:
                if not 0 <= meta < logical_pages:
                    raise FTLError(
                        f"valid data page {ppn} claims out-of-range "
                        f"LPN {meta}")
                if data_mapping[meta] != UNMAPPED:
                    raise FTLError(
                        f"LPN {meta} claimed by both PPN "
                        f"{data_mapping[meta]} and PPN {ppn}")
                data_mapping[meta] = ppn
            else:
                if meta in gtd:
                    raise FTLError(
                        f"VTPN {meta} claimed by two translation pages")
                gtd[meta] = ppn
    return RecoveredState(data_mapping=data_mapping, gtd=gtd,
                          scanned_blocks=len(flash.blocks))


@dataclass(frozen=True)
class RecoveryReport:
    """How a crashed FTL's recovered state relates to its RAM state."""

    #: LPNs whose on-flash translation entry was stale (dirty-in-cache)
    stale_translation_entries: int
    #: LPNs recovered (valid data pages found)
    recovered_pages: int
    #: translation pages recovered into the GTD
    recovered_translation_pages: int

    @property
    def stale_fraction(self) -> float:
        """Stale entries over recovered pages."""
        if not self.recovered_pages:
            return 0.0
        return self.stale_translation_entries / self.recovered_pages


def recover(ftl) -> RecoveredState:
    """Recover mapping state for an FTL after a simulated crash.

    Returns the state a controller would rebuild at next boot.  The
    FTL's RAM state is not consulted — only flash.
    """
    return scan_flash(ftl.flash, ftl.ssd.logical_pages)


def recovery_report(ftl) -> RecoveryReport:
    """Compare the recovered state against the FTL's on-flash table.

    The difference counts the dirty mapping entries a crash would have
    had to rebuild by scanning (or lost, on a controller without OOB
    scanning) — i.e. the consistency debt of the mapping cache.
    """
    state = recover(ftl)
    stale = 0
    for lpn, recovered_ppn in enumerate(state.data_mapping):
        if recovered_ppn == UNMAPPED:
            continue
        if ftl.flash_table[lpn] != recovered_ppn:
            stale += 1
    return RecoveryReport(
        stale_translation_entries=stale,
        recovered_pages=state.mapped_pages(),
        recovered_translation_pages=len(state.gtd),
    )


def verify_recovery(ftl) -> None:
    """Assert the recovered state matches the FTL's live view.

    The recovered data mapping must equal ``lookup_current`` for every
    LPN, and the recovered GTD must match the live one (for FTLs that
    keep translation pages).  Raises :class:`FTLError` on mismatch.
    """
    state = recover(ftl)
    for lpn, recovered_ppn in enumerate(state.data_mapping):
        live = ftl.lookup_current(lpn)
        if recovered_ppn != live:
            raise FTLError(
                f"recovery mismatch for LPN {lpn}: scan says "
                f"{recovered_ppn}, FTL says {live}")
    if ftl.uses_translation_pages:
        for vtpn, ptpn in enumerate(ftl.gtd):
            if ptpn != state.gtd.get(vtpn, UNMAPPED):
                raise FTLError(
                    f"recovery mismatch for VTPN {vtpn}")
