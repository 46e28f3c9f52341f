"""FTLSan: a config-gated runtime sanitizer for the FTL simulators.

Inspired by the address/thread sanitizers' "pay a constant factor,
catch the bug at the op that caused it" tradeoff: when
``SimulationConfig.sanitizer.enabled`` is set, :class:`~repro.ftl.base.
BaseFTL` attaches an :class:`FTLSan` instance that

* maintains a **shadow page map** of host-visible state (last write /
  trim per LPN) and cross-validates it against the FTL's authoritative
  mapping and the flash substrate (rule ``SAN001``);
* re-runs the structural checkers of :mod:`repro.analysis.checkers`
  (``SAN002``–``SAN004``, ``SAN009``) every ``interval`` host page
  operations, with the expensive full sweeps (whole-table injectivity,
  flash state machine) throttled to every ``full_every``-th sample;
* receives inline **event hooks** from TPFTL's prefetch/replacement
  path and enforces the §4.4/§4.5 rules at the moment they could break
  (``SAN005``–``SAN008``).

Violations raise :class:`~repro.errors.SanitizerError` carrying the
rule code and the host operation sequence number, so a failing run can
be replayed deterministically up to the offending operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from ..config import SanitizerConfig
from ..errors import SanitizerError
from ..types import Op, TRIM, WRITE
from . import checkers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ftl.base import BaseFTL
    from ..ftl.tpftl import EntryNode, TPFTL, TPNode

#: shadow-map verdicts: last host op per LPN
_WRITTEN, _TRIMMED = "W", "T"


class FTLSan:
    """Runtime invariant checker attached to one FTL instance.

    The FTL calls :meth:`after_op` once per host page operation (the
    sampling clock) and the inline ``note_*`` hooks from its
    prefetch/replacement path.  All state lives here; the FTL keeps a
    single ``sanitizer`` attribute that is ``None`` when disabled, so
    the fast path costs one attribute test.
    """

    def __init__(self, ftl: "BaseFTL", config: SanitizerConfig) -> None:
        self.ftl = ftl
        self.config = config
        #: host page-operation sequence number (drives sampling)
        self.op_seq = 0
        #: samples taken so far (drives the full-sweep throttle)
        self.checks_run = 0
        #: full sweeps completed (exposed for tests/reports)
        self.full_scans = 0
        #: host-visible truth: LPN -> last op ("W" written, "T" trimmed)
        self.shadow: Dict[int, str] = {}
        #: LPNs touched since the last sample (incremental SAN001)
        self.touched: Set[int] = set()
        #: per-checker persistent memory (e.g. seen-BAD pages)
        self.memory: Dict[str, set] = {}
        #: distinct TP nodes evicted from during the current prefetch
        self._prefetch_victims: Set[int] = set()
        self._prefetching = False
        self._is_tpftl = (getattr(ftl, "name", "") == "tpftl")

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def fail(self, code: str, message: str) -> None:
        """Raise a :class:`SanitizerError` tagged with the current op."""
        raise SanitizerError(code, message, op_seq=self.op_seq)

    # ------------------------------------------------------------------
    # Sampling clock
    # ------------------------------------------------------------------
    def after_op(self, lpn: int, op: Op) -> None:
        """Record one completed host page operation and maybe sample.

        Called by the FTL at the end of its per-page data path, i.e.
        after translation, flash traffic, mapping update and GC — the
        point where every invariant should hold.
        """
        self.op_seq += 1
        if op is WRITE:
            self.shadow[lpn] = _WRITTEN
        elif op is TRIM:
            self.shadow[lpn] = _TRIMMED
        self.touched.add(lpn)
        if self.op_seq % self.config.interval:
            return
        self.checks_run += 1
        full = (self.checks_run % self.config.full_every == 0)
        self.run_checks(full=full)

    def run_checks(self, full: bool = False) -> None:
        """Run the state checkers now (``full`` adds the O(device) sweeps).

        Public so tests and experiment teardown can force a final full
        validation regardless of where the sampling clock stopped.
        """
        ftl = self.ftl
        lpns = sorted(self.shadow) if full else self.touched
        checkers.check_shadow(ftl, self.fail, self.shadow, lpns)
        if full:
            checkers.check_injectivity(ftl, self.fail)
        if self._is_tpftl:
            checkers.check_two_level_lru(  # type: ignore[arg-type]
                ftl, self.fail)
            checkers.check_hotness(ftl, self.fail)  # type: ignore[arg-type]
        checkers.check_budget(ftl, self.fail)
        if full:
            checkers.check_flash_state(ftl.flash, self.fail, self.memory)
            self.full_scans += 1
        self.touched.clear()

    def final_check(self) -> None:
        """Force one full-sweep validation (for run teardown)."""
        self.run_checks(full=True)

    # ------------------------------------------------------------------
    # Event hooks (SAN005-SAN008) — called inline by TPFTL
    # ------------------------------------------------------------------
    def note_prefetch_plan(self, ftl: "TPFTL", lpn: int,
                           plan: List[int]) -> None:
        """§4.5 rule 1 (SAN005): the prefetch plan for a miss on ``lpn``
        must stay within ``lpn``'s translation page."""
        vtpn = ftl.geometry.vtpn_of(lpn)
        for candidate in plan:
            if ftl.geometry.vtpn_of(candidate) != vtpn:
                self.fail(
                    "SAN005",
                    f"prefetch plan for LPN {lpn} (VTPN {vtpn}) crosses "
                    f"the translation-page boundary to LPN {candidate} "
                    f"(VTPN {ftl.geometry.vtpn_of(candidate)})")

    def note_prefetch_begin(self) -> None:
        """Mark the start of a prefetch batch (arms SAN006 tracking)."""
        self._prefetching = True
        self._prefetch_victims.clear()

    def note_prefetch_end(self) -> None:
        """Mark the end of a prefetch batch (disarms SAN006 tracking)."""
        self._prefetching = False
        self._prefetch_victims.clear()

    def note_eviction(self, ftl: "TPFTL", node: "TPNode",
                      victim: "EntryNode",
                      protect: Optional["EntryNode"]) -> None:
        """Validate one entry eviction (SAN006 + SAN007).

        Called by ``TPFTL._evict_one`` (from a miss's one ``_make_room``
        call, or a prefetch's confined to one node) after the victim is
        chosen and before it is written back and dropped inline.
        """
        if self._prefetching:
            self._prefetch_victims.add(node.vtpn)
            if len(self._prefetch_victims) > 1:
                self.fail(
                    "SAN006",
                    "prefetch-induced replacement touched TP nodes "
                    f"{sorted(self._prefetch_victims)}; §4.5 confines "
                    "it to a single node")
        if ftl.techniques.clean_first and victim.dirty:
            for entry in reversed(node.entries.values()):
                if not entry.dirty and entry is not protect:
                    self.fail(
                        "SAN007",
                        f"dirty entry LPN {victim.lpn} evicted from TP "
                        f"node {node.vtpn} while clean entry LPN "
                        f"{entry.lpn} was available (clean-first)")

    def note_writeback(self, ftl: "TPFTL", node: "TPNode",
                       victim: "EntryNode") -> None:
        """Validate the batch-update postcondition (SAN008).

        Called by ``TPFTL._writeback`` after the translation-page update:
        with batch update enabled the dirty walk (``tpftl._take_dirty``)
        must have left the victim's whole TP node clean, by count and by
        flag, and only the victim may be about to leave the cache.
        """
        if not ftl.techniques.batch_update:
            return
        if node.dirty_count != 0:
            self.fail(
                "SAN008",
                f"batch update of TP node {node.vtpn} left "
                f"{node.dirty_count} dirty entries behind")
        recount = sum(1 for entry in node.entries.values() if entry.dirty)
        if recount:
            self.fail(
                "SAN008",
                f"batch update of TP node {node.vtpn} left {recount} "
                "entries flagged dirty")
        if victim.lpn not in node.entries:
            self.fail(
                "SAN008",
                f"victim LPN {victim.lpn} already left TP node "
                f"{node.vtpn} during writeback (only the victim may "
                "leave, and only after the update)")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Sampling counters for experiment reports."""
        return {
            "ops": self.op_seq,
            "samples": self.checks_run,
            "full_scans": self.full_scans,
        }


def attach(ftl: "BaseFTL") -> Optional[FTLSan]:
    """Build an :class:`FTLSan` for ``ftl`` if its config enables one."""
    sanitizer_cfg = ftl.config.sanitizer
    if not sanitizer_cfg.enabled:
        return None
    return FTLSan(ftl, sanitizer_cfg)
