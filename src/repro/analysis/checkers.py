"""State checkers behind FTLSan's ``SAN0xx`` rules.

Each checker is a plain function taking the FTL under test and a
``fail(code, message)`` callback, so the same checks serve two callers:

* :class:`~repro.analysis.sanitizer.FTLSan` wires ``fail`` to raise
  :class:`~repro.errors.SanitizerError` tagged with the current host
  operation sequence number (failures replay deterministically);
* ``TPFTL.assert_invariants`` calls the TPFTL checkers directly from
  property-based tests, outside any sanitized run.

Rule map (paper sections in parentheses):

========  ============================================================
SAN001    shadow page-map cross-validation (all FTLs)
SAN002    two-level LRU structural well-formedness (§4.1/§4.2)
SAN003    TP-node hotness bookkeeping: ``hot_sum``/``dirty_count`` and
          the stored ``hotness`` quotient (§4.2)
SAN004    byte-budget recount vs. ``ByteBudget``/capacity accounting
SAN005    prefetch never crosses a translation-page boundary (§4.5)
SAN006    prefetch-induced eviction confined to one TP node (§4.5)
SAN007    clean-first victim choice (§4.4)
SAN008    batch-update postcondition: only the victim leaves, the rest
          of its node turns clean (§4.4)
SAN009    flash page state machine: counters match states, BAD pages
          and RETIRED blocks are terminal, victim index exact
========  ============================================================

SAN005–SAN008 are *event* rules checked inline by FTLSan's
``note_*`` hooks; this module hosts the *state* rules (SAN001–SAN004,
SAN009) that recompute ground truth from scratch.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, TYPE_CHECKING

from ..config import TPFTL_ENTRY_BYTES, TPFTL_NODE_BYTES
from ..types import BlockKind, PageState, UNMAPPED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..flash import FlashMemory
    from ..ftl.base import BaseFTL
    from ..ftl.tpftl import TPFTL

#: signature of the violation callback: (rule code, message)
FailFn = Callable[[str, str], None]

#: FTLSan rule codes with one-line descriptions (mirrors the table in
#: the module docstring; used by ``python -m repro.analysis rules``).
SAN_RULES: Dict[str, str] = {
    "SAN001": "shadow page-map cross-validation against flash state",
    "SAN002": "two-level LRU structural well-formedness (tpftl)",
    "SAN003": "TP-node hotness/dirty bookkeeping in sync (tpftl, §4.2)",
    "SAN004": "byte-budget recount matches ByteBudget/capacity accounting",
    "SAN005": "prefetch stays within one translation page (§4.5)",
    "SAN006": "prefetch-induced eviction confined to one TP node (§4.5)",
    "SAN007": "clean-first victim choice honoured (§4.4)",
    "SAN008": "batch-update leaves the victim's node all-clean (§4.4)",
    "SAN009": "flash page state machine (BAD/RETIRED terminal, counters)",
}


# ----------------------------------------------------------------------
# SAN001: shadow page map
# ----------------------------------------------------------------------
def check_shadow(ftl: "BaseFTL", fail: FailFn, shadow: Dict[int, str],
                 lpns: Iterable[int]) -> None:
    """Cross-validate ``lpns`` against the sanitizer's shadow map.

    ``shadow`` records the last host operation per LPN: ``"W"`` (must be
    mapped to a valid flash page whose recorded metadata is the LPN) or
    ``"T"`` (must be unmapped).  LPNs absent from the shadow are skipped
    — their mapping still reflects prefill and is covered by the
    injectivity sweep.
    """
    for lpn in lpns:
        expected = shadow.get(lpn)
        if expected is None:
            continue
        current = ftl.lookup_current(lpn)
        if expected == "T":
            if current != UNMAPPED:
                fail("SAN001",
                     f"LPN {lpn} was trimmed but still maps to PPN "
                     f"{current}")
            continue
        if current == UNMAPPED:
            fail("SAN001", f"LPN {lpn} was written but is unmapped")
            continue
        block = ftl.flash.block_of(current)
        offset = ftl.flash.offset_of(current)
        state = block.state(offset)
        if state is not PageState.VALID:
            fail("SAN001",
                 f"LPN {lpn} maps to PPN {current} in state {state.name}")
            continue
        meta = block.meta(offset)
        if meta != lpn:
            fail("SAN001",
                 f"LPN {lpn} maps to PPN {current} whose metadata says "
                 f"LPN {meta}")


def check_injectivity(ftl: "BaseFTL", fail: FailFn) -> None:
    """No two LPNs may resolve to the same physical page (full sweep)."""
    owner: Dict[int, int] = {}
    for lpn in range(len(ftl.flash_table)):
        current = ftl.lookup_current(lpn)
        if current == UNMAPPED:
            continue
        previous = owner.get(current)
        if previous is not None:
            fail("SAN001",
                 f"LPNs {previous} and {lpn} both map to PPN {current}")
            return
        owner[current] = lpn


# ----------------------------------------------------------------------
# SAN002/SAN003: TPFTL two-level LRU structure and hotness
# ----------------------------------------------------------------------
def check_two_level_lru(ftl: "TPFTL", fail: FailFn) -> None:
    """Structural well-formedness of the two-level LRU lists (§4.1).

    Every TP node in the page-level list must be indexed in ``by_vtpn``
    (and vice versa), be non-empty, and key each of its entry nodes under
    the entry's own LPN, which must belong to the node's translation page.
    """
    seen = 0
    for node in ftl.page_list:
        seen += 1
        indexed = ftl.by_vtpn.get(node.vtpn)
        if indexed is not node:
            fail("SAN002",
                 f"TP node {node.vtpn} in page list is not the node "
                 "indexed under its VTPN")
            return
        for lpn, entry in node.entries.items():
            if entry.lpn != lpn:
                fail("SAN002",
                     f"entry LPN {entry.lpn} of TP node {node.vtpn} "
                     f"is keyed under LPN {lpn}")
                return
            if entry.lpn // ftl.entries_per_page != node.vtpn:
                fail("SAN002",
                     f"entry LPN {entry.lpn} cached under TP node "
                     f"{node.vtpn} belongs to translation page "
                     f"{entry.lpn // ftl.entries_per_page}")
                return
        if not node.entries:
            fail("SAN002", f"empty TP node {node.vtpn} in page list")
            return
    if seen != len(ftl.by_vtpn):
        fail("SAN002",
             f"page list holds {seen} nodes but by_vtpn indexes "
             f"{len(ftl.by_vtpn)}")


def check_hotness(ftl: "TPFTL", fail: FailFn) -> None:
    """§4.2 bookkeeping: ``hot_sum``/``dirty_count`` match recounts and
    the stored ``hotness`` is their quotient (a stale one would steer
    the page list by a hotness the node no longer has)."""
    for node in ftl.page_list:
        hot = 0
        dirty = 0
        for entry in node.entries.values():
            hot += entry.hot_seq
            if entry.dirty:
                dirty += 1
        if hot != node.hot_sum:
            fail("SAN003",
                 f"TP node {node.vtpn} hot_sum {node.hot_sum} != "
                 f"recounted {hot}")
            return
        if dirty != node.dirty_count:
            fail("SAN003",
                 f"TP node {node.vtpn} dirty_count {node.dirty_count} "
                 f"!= recounted {dirty}")
            return
        if node.entries and node.hotness != hot / len(node.entries):
            fail("SAN003",
                 f"TP node {node.vtpn} stored hotness {node.hotness} != "
                 f"{hot} / {len(node.entries)}")
            return


# ----------------------------------------------------------------------
# SAN004: budget accounting
# ----------------------------------------------------------------------
def check_budget(ftl: "BaseFTL", fail: FailFn) -> None:
    """Recount the cache's cost model against its budget accounting.

    Dispatches on the FTL: TPFTL and S-FTL carry :class:`ByteBudget`
    instances whose ``used`` must equal a from-scratch recount and never
    exceed capacity; DFTL carries an entry capacity.  FTLs without a
    bounded cache are skipped.
    """
    name = getattr(ftl, "name", "")
    if name == "tpftl":
        _check_tpftl_budget(ftl, fail)  # type: ignore[arg-type]
    elif name == "sftl":
        _check_sftl_budget(ftl, fail)
    elif name == "dftl":
        if len(ftl.cmt) > ftl.capacity_entries:  # type: ignore[attr-defined]
            fail("SAN004",
                 f"DFTL CMT holds {len(ftl.cmt)} entries, "  # type: ignore[attr-defined]
                 f"capacity {ftl.capacity_entries}")  # type: ignore[attr-defined]


def _check_tpftl_budget(ftl: "TPFTL", fail: FailFn) -> None:
    used = 0
    for node in ftl.page_list:
        used += TPFTL_NODE_BYTES + len(node) * TPFTL_ENTRY_BYTES
    if used != ftl.budget.used:
        fail("SAN004",
             f"TPFTL budget says {ftl.budget.used}B used but the cache "
             f"recounts to {used}B")
        return
    if ftl.budget.used > ftl.budget.capacity:
        fail("SAN004",
             f"TPFTL budget overdrawn: {ftl.budget.used}B of "
             f"{ftl.budget.capacity}B")


def _check_sftl_budget(ftl: "BaseFTL", fail: FailFn) -> None:
    from ..ftl.sftl import BUFFER_ENTRY_BYTES
    page_budget = ftl.page_budget  # type: ignore[attr-defined]
    used = sum(page.charged_bytes
               for page in ftl.pages.values())  # type: ignore[attr-defined]
    if used != page_budget.used:
        fail("SAN004",
             f"S-FTL page budget says {page_budget.used}B used but "
             f"cached pages recount to {used}B")
        return
    buffer_budget = ftl.buffer_budget  # type: ignore[attr-defined]
    if buffer_budget is not None:
        parked = sum(len(group) for group
                     in ftl.buffer.values())  # type: ignore[attr-defined]
        if parked * BUFFER_ENTRY_BYTES != buffer_budget.used:
            fail("SAN004",
                 f"S-FTL dirty buffer says {buffer_budget.used}B used "
                 f"but holds {parked} entries "
                 f"({parked * BUFFER_ENTRY_BYTES}B)")


# ----------------------------------------------------------------------
# SAN009: flash page state machine
# ----------------------------------------------------------------------
def check_flash_state(flash: "FlashMemory", fail: FailFn,
                      memory: Dict[str, set]) -> None:
    """Validate the flash substrate's per-block state machine.

    * per-block ``invalid/bad`` counters equal a recount of the page
      states (``valid_count`` is read off them), and the four states
      partition the block (a FREE page below the write pointer would
      also break the partition via ``free_count``);
    * pages once BAD stay BAD (terminal across erases);
    * blocks once RETIRED stay RETIRED (terminal);
    * blocks in the free pool hold no valid pages;
    * the victim index is exact: every in-service block with invalid
      pages sits in the bucket of its count, and nothing else is
      indexed (a stale id would be collected twice, a missing one never).

    ``memory`` persists the previously-seen BAD pages and RETIRED block
    ids between invocations (terminal-state tracking needs history).
    """
    seen_bad = memory.setdefault("bad_pages", set())
    seen_retired = memory.setdefault("retired", set())
    indexed = 0
    for block in flash.blocks:
        valid = invalid = bad = 0
        for offset in range(block.pages_per_block):
            state = block.state(offset)
            if state is PageState.VALID:
                valid += 1
            elif state is PageState.INVALID:
                invalid += 1
            elif state is PageState.BAD:
                bad += 1
                seen_bad.add((block.block_id, offset))
        if invalid != block.invalid_count or bad != block.bad_count:
            fail("SAN009",
                 f"block {block.block_id} counters "
                 f"({block.invalid_count}i/{block.bad_count}b) != "
                 f"recount ({invalid}i/{bad}b)")
            return
        if valid + invalid + bad + block.free_count \
                != block.pages_per_block:
            fail("SAN009",
                 f"block {block.block_id} page states do not partition "
                 "the block (FREE page below the write pointer?)")
            return
        if block.is_free and valid:
            fail("SAN009",
                 f"free-pool block {block.block_id} holds {valid} "
                 "valid pages")
            return
        if block.kind is BlockKind.RETIRED:
            seen_retired.add(block.block_id)
        elif invalid and not block.is_free:
            if block.block_id not in flash.victim_index[invalid]:
                fail("SAN009",
                     f"block {block.block_id} has {invalid} invalid pages "
                     "but is missing from that victim-index bucket")
                return
            indexed += 1
    stale = sum(len(bucket) for bucket in flash.victim_index) - indexed
    if stale:
        fail("SAN009",
             f"victim index holds {stale} stale id(s): a free or retired "
             "block, or one filed under a count it no longer has")
        return
    for block_id, offset in seen_bad:
        if flash.blocks[block_id].state(offset) is not PageState.BAD:
            fail("SAN009",
                 f"page {offset} of block {block_id} was BAD but is now "
                 f"{flash.blocks[block_id].state(offset).name} (BAD is "
                 "terminal)")
            return
    for block_id in seen_retired:
        if flash.blocks[block_id].kind is not BlockKind.RETIRED:
            fail("SAN009",
                 f"block {block_id} was RETIRED but is now "
                 f"{flash.blocks[block_id].kind.value} (RETIRED is "
                 "terminal)")
            return
