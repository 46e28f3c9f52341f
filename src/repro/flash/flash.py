"""The flash array: blocks, free list, and per-kind write frontiers.

``FlashMemory`` is deliberately policy-free.  It will program the next page
of the active block for a region (data or translation), invalidate pages,
and erase blocks — and it counts every operation — but *when* to collect
garbage, which block to victimise, and how mappings change are decisions of
the FTL layered on top.  This mirrors the split in FlashSim that the paper
extends.  An out-of-place write is one call: ``program(kind, meta,
supersedes=old_ppn)`` programs the new page and invalidates the copy it
replaces in the same body; :meth:`FlashMemory.invalidate` on its own is
what a TRIM uses.

The array owns the per-page state: a ``bytearray`` of state bytes and an
array of 32-bit metadata words (typecode ``WORD_TYPECODE``), both indexed
by PPN (layout and values: :mod:`~repro.flash.block`).  Each
:class:`Block` is a window onto them, so read, invalidate and program
reach a page without finding its block.

Every operation has one body.  What makes it cheap on an ideal device is
bookkeeping the array always keeps: operation counts are plain integers on
:class:`FlashStats`, a counting victim index — one set of block ids per
invalid-page count — lets greedy GC selection read the fullest bucket
instead of scanning every block.

Reliability is handled here, below the FTLs, the way real controllers do,
through one per-operation hook: when the :class:`~repro.faults.FaultInjector`
is *live* (its plan can inject, a power cut is armed, or an oracle was
stubbed) every program, read and erase consults it; an idle injector costs
one attribute check.  Only an *ordered* one can cut power or fail a
program, so only it is entered per operation (``on_operation``); an
unordered one is counted inline, and a read rolls ``roll_reads(1)``.
Transient read errors are retried with exponential backoff; a failed
program marks the page bad and transparently moves the write to the next
programmable page; a failed erase — or an erase of a block whose bad
pages crossed the retirement threshold — takes the block out of service.
Bad pages and retirement are per-block state, so a worn array runs the
same code as a pristine one.  Retirement eats the spare capacity; when
more blocks retire than the over-provisioning can absorb, the array
raises :class:`~repro.errors.DeviceWornOutError`.

Two mechanics differ with the hook, and the choice is whether the
injector is *ordered* (a cut armed, a program that can fail, a stubbed
oracle), never a flag: the bulk fill (:meth:`FlashMemory.program_batch`)
and the one page mover (behind :meth:`FlashMemory.migrate_valid` for a
victim and :meth:`FlashMemory.relocate` for the scattered translation
pages GC is forced to rewrite) work in bulk — a victim is lifted with
one metadata slice, one translation of its state window and one
victim-index move, and the copies chunk-fill the write frontier — and
go page by page — read, then a program that supersedes the source —
only under an ordered injector, whose faults and cut observe every
operation.  Read and erase faults keep the bulk path; both leave the
same array behind.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from itertools import compress
from typing import Deque, List, Optional, Sequence, Set, Tuple, Union

from ..config import SSDConfig
from ..errors import (DeviceWornOutError, EraseError, FlashError,
                      OutOfSpaceError, ProgramError, ReadError)
from ..faults import FaultInjector
from ..types import (BlockKind, DATA_BLOCK, DATA_PAGE, PageKind, PageState,
                     RETIRED_BLOCK, TRANSLATION_BLOCK, UNMAPPED,
                     WORD_TYPECODE)
from .block import Block, INVALID, VALID
from .stats import FlashStats

#: ``bytes.translate`` table of a victim lift: VALID pages go INVALID,
#: every other state stays
_LIFTED = bytes(INVALID if value == VALID else value for value in range(256))
#: one VALID state byte; ``_VALID_PAGE * n`` is a run of n programmed pages
_VALID_PAGE = bytes((VALID,))


class FlashMemory:
    """An array of NAND blocks with one write frontier per region."""

    def __init__(self, config: SSDConfig,
                 injector: Optional[FaultInjector] = None) -> None:
        self.config = config
        self.pages_per_block = config.pages_per_block
        #: one state byte and one metadata word per physical page,
        #: indexed by PPN; every block is a window onto them
        self._states: bytearray = bytearray(config.physical_pages)
        self._meta: "array[int]" = (array(WORD_TYPECODE, [0])
                                    * config.physical_pages)
        self.blocks: List[Block] = [
            Block(i, config.pages_per_block, self._states, self._meta)
            for i in range(config.physical_blocks)
        ]
        self._free: Deque[int] = deque(range(config.physical_blocks))
        #: the two write frontiers (None until first use / after the
        #: frontier block is erased)
        self._active_data: Optional[Block] = None
        self._active_trans: Optional[Block] = None
        self.stats = FlashStats()
        #: monotonic operation sequence, stamped onto blocks at program
        #: time so GC policies can reason about block age.
        self.op_seq = 0
        #: fault oracle behind the per-operation hook (idle by default).
        self.injector = (injector if injector is not None
                         else FaultInjector(config.fault_plan()))
        #: blocks permanently out of service, in retirement order.
        self.retired_block_ids: List[int] = []
        #: bad pages in a block at which its next erase retires it.
        self._bad_retire_pages = max(1, math.ceil(
            config.pages_per_block
            * self.injector.plan.bad_page_retire_fraction))
        #: free-pool level at which GC triggers (cached off the config
        #: so the per-page ``gc_needed`` check stays one comparison).
        self._gc_trigger = config.gc_trigger_blocks
        #: greedy-victim index: ``victim_index[n]`` holds the ids of the
        #: in-service blocks with exactly ``n`` invalid pages, n > 0
        #: (bucket 0 stays empty).  Exact, not lazy: a block moves one
        #: bucket per invalidation and leaves when erased or retired.
        self.victim_index: List[Set[int]] = [
            set() for _ in range(config.pages_per_block + 1)]

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ppn_of(self, block_id: int, offset: int) -> int:
        """Compose a PPN from a block id and in-block offset."""
        return block_id * self.pages_per_block + offset

    def block_id_of(self, ppn: int) -> int:
        """Block id owning ``ppn``."""
        return ppn // self.pages_per_block

    def offset_of(self, ppn: int) -> int:
        """In-block offset of ``ppn``."""
        return ppn % self.pages_per_block

    def block_of(self, ppn: int) -> Block:
        """The Block object owning ``ppn``."""
        return self.blocks[self.block_id_of(ppn)]

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Blocks currently in the free pool."""
        return len(self._free)

    @property
    def gc_needed(self) -> bool:
        """True once the free pool has shrunk to the GC trigger level."""
        return len(self._free) <= self._gc_trigger

    @property
    def retired_block_count(self) -> int:
        """Blocks permanently out of service."""
        return len(self.retired_block_ids)

    @property
    def spare_blocks_remaining(self) -> int:
        """Retirements the device can still absorb before wearing out.

        Grown bad pages in live blocks are charged against the spares
        too (in whole-block equivalents): capacity they ate is just as
        gone as a retired block's.
        """
        return (self.config.spare_blocks - len(self.retired_block_ids)
                - self.bad_page_count // self.pages_per_block)

    @property
    def is_worn(self) -> bool:
        """True once retirement or bad pages have consumed any capacity."""
        return bool(self.retired_block_ids) or self.bad_page_count > 0

    @property
    def bad_page_count(self) -> int:
        """Pages lost to program failures, device-wide."""
        return sum(block.bad_count for block in self.blocks)

    def active_block(self, kind: BlockKind) -> Optional[Block]:
        """The current write frontier for a region (may be None)."""
        return (self._active_data if kind is DATA_BLOCK
                else self._active_trans)

    def total_erase_count(self) -> int:
        """Sum of per-block erase counts (wear)."""
        return sum(block.erase_count for block in self.blocks)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def program(self, kind: PageKind, meta: int,
                supersedes: int = UNMAPPED) -> int:
        """Program one page of the given kind; returns its PPN.

        ``meta`` is the logical identity of the content (LPN for data
        pages, VTPN for translation pages), recorded so GC can find the
        owner of every valid page.  The page goes to the region's write
        frontier.  An injected program failure marks the target page bad
        and retries on the next programmable page (allocating a fresh
        frontier block if needed), as a real controller's write path
        does.

        ``supersedes``, when it is a PPN, is the page the new one
        replaces: it is invalidated once the program has succeeded, in
        this body (the out-of-place write's second half, with its
        victim-index move).  It must be VALID; anything else raises
        :class:`~repro.errors.ProgramError` before a page is programmed.
        """
        states = self._states
        ppb = self.pages_per_block
        if supersedes != UNMAPPED and states[supersedes] != VALID:
            raise ProgramError(
                f"page {supersedes % ppb} of block {supersedes // ppb} "
                f"is {PageState(states[supersedes]).name}, cannot "
                "supersede it")
        injector = self.injector
        while True:
            if kind is DATA_PAGE:
                block = self._active_data
                if block is None or block._write_ptr >= ppb:
                    block = self._allocate(DATA_BLOCK)
            else:
                block = self._active_trans
                if block is None or block._write_ptr >= ppb:
                    block = self._allocate(TRANSLATION_BLOCK)
            if injector.live:
                if not injector.ordered:
                    injector.ops_seen += 1  # no cut to check, no failure
                else:
                    injector.on_operation()
                    if injector.program_fails():
                        self.op_seq += 1
                        block.mark_bad()
                        self.stats.record_program_failure()
                        self._check_spares()
                        continue
            seq = self.op_seq + 1
            self.op_seq = seq
            # the write pointer always rests on a FREE page (bad pages
            # are skipped when it moves), so the transition is direct
            offset = block._write_ptr
            ppn = block._base + offset
            states[ppn] = VALID
            self._meta[ppn] = meta
            block._write_ptr = offset + 1
            block.last_program_seq = seq
            if block.bad_count:
                block._advance()
            if kind is DATA_PAGE:
                self.stats.data_writes += 1
            else:
                self.stats.translation_writes += 1
            if supersedes != UNMAPPED:
                # the superseded copy goes INVALID and its block one
                # victim-index bucket up (what ``invalidate`` does)
                states[supersedes] = INVALID
                old = self.blocks[supersedes // ppb]
                buckets = self.victim_index
                buckets[old.invalid_count].discard(old.block_id)
                old.invalid_count += 1
                buckets[old.invalid_count].add(old.block_id)
            return ppn

    def program_batch(self, kind: PageKind,
                      metas: Sequence[int]) -> List[int]:
        """Program ``metas`` in order at the region frontier; returns PPNs.

        The frontier is chunk-filled: mechanically identical to
        programming one page at a time (same frontier allocations from
        the free pool, same final ``op_seq`` and per-block
        ``last_program_seq``), minus the per-op bookkeeping: ``metas``
        becomes one word array per call, and each block's chunk is a
        slice of it beside a run of VALID state bytes.  Under an
        ordered injector every program consults it individually.
        """
        injector = self.injector
        if injector.ordered:
            return [self.program(kind, meta) for meta in metas]
        data = kind is DATA_PAGE
        ppb = self.pages_per_block
        states = self._states
        page_meta = self._meta
        words = array(WORD_TYPECODE, metas)
        ppns: List[int] = []
        i, total = 0, len(words)
        while i < total:
            block = self._active_data if data else self._active_trans
            if block is None or block._write_ptr >= ppb:
                block = self._allocate(DATA_BLOCK if data
                                       else TRANSLATION_BLOCK)
            write_ptr = block._write_ptr
            take = ppb - write_ptr
            if take > total - i:
                take = total - i
            if injector.live:  # unordered: no cut, no failure
                injector.ops_seen += take
            first = block._base + write_ptr
            stop = first + take
            states[first:stop] = _VALID_PAGE * take
            page_meta[first:stop] = words[i:i + take]
            block._write_ptr = write_ptr + take
            self.op_seq += take
            block.last_program_seq = self.op_seq
            ppns.extend(range(first, stop))
            i += take
        if data:
            self.stats.data_writes += total
        else:
            self.stats.translation_writes += total
        return ppns

    def relocate(self, ppns: Sequence[int],
                 kind: PageKind) -> Tuple[List[int], List[int]]:
        """Move the valid pages at ``ppns``, wherever they sit, to the
        region frontier; ``(metas, new_ppns)`` in the order given."""
        return self._move(ppns, kind)

    def migrate_valid(self, block: Block,
                      kind: PageKind) -> Tuple[List[int], List[int]]:
        """GC helper: the same for every valid page of ``block``, in
        ascending source-offset order."""
        return self._move(block, kind)

    def _move(self, source: Union[Block, Sequence[int]],
              kind: PageKind) -> Tuple[List[int], List[int]]:
        """The one page mover: the valid pages of a victim ``Block``, or
        the pages at a sequence of PPNs, to the frontier; one read and
        one program counted per page.

        Under an ordered injector each page is read, then programmed
        superseding its source, in turn, so a program fault or power cut
        lands between exactly the operations it would on hardware.
        Otherwise the steps run in bulk: a live injector rolls every
        read first (an uncorrectable one raises before any page moves),
        then the sources are lifted — a victim with one metadata slice,
        one translation of its state window and one victim-index move,
        scattered pages one by one, each checked to be valid so none
        moves twice — and the copies chunk-fill the frontier.
        """
        victim = source if isinstance(source, Block) else None
        ppns: Sequence[int] = (() if isinstance(source, Block)
                               else source)
        states = self._states
        base = victim._base if victim is not None else 0
        end = base + self.pages_per_block
        # ``victim.valid_count``, counted inline
        moved = (states.count(VALID, base, end) if victim is not None
                 else len(ppns))
        injector = self.injector
        faults = (injector.roll_reads(moved)
                  if injector.live and not injector.ordered else [])
        if victim is not None and (injector.ordered or faults):
            # a victim's pages one by one: only the page-by-page path
            # and a failed read need their PPNs
            ppns = [victim._base + offset
                    for offset in victim.valid_offsets()]
        if injector.ordered:
            metas: List[int] = []
            new_ppns: List[int] = []
            for ppn in ppns:
                meta = self.read(ppn, kind)
                metas.append(meta)
                new_ppns.append(self.program(kind, meta, ppn))
            return metas, new_ppns
        for index, failures in faults:
            for failed in range(1, failures + 1):
                self._read_failed(ppns[index], failed)
            self.stats.record_ecc_recovery()
        buckets = self.victim_index
        if victim is not None:
            window = states[base:end]
            metas = list(compress(self._meta[base:end],
                                  map(VALID.__eq__, window)))
            if moved:
                states[base:end] = window.translate(_LIFTED)
                buckets[victim.invalid_count].discard(victim.block_id)
                victim.invalid_count += moved
                buckets[victim.invalid_count].add(victim.block_id)
        else:
            page_meta = self._meta
            blocks = self.blocks
            ppb = self.pages_per_block
            metas = []
            for ppn in ppns:
                if states[ppn] != VALID:
                    raise FlashError(
                        f"read of {PageState(states[ppn]).name} page at "
                        f"PPN {ppn}")
                states[ppn] = INVALID
                metas.append(page_meta[ppn])
                block = blocks[ppn // ppb]
                buckets[block.invalid_count].discard(block.block_id)
                block.invalid_count += 1
                buckets[block.invalid_count].add(block.block_id)
        if kind is DATA_PAGE:
            self.stats.data_reads += moved
        else:
            self.stats.translation_reads += moved
        return metas, self.program_batch(kind, metas)

    def read(self, ppn: int, kind: PageKind) -> int:
        """Read a page; returns its metadata (LPN/VTPN).

        Reading a non-valid page is a simulator bug and raises.
        Transient (injected) read errors are retried with exponential
        backoff up to the plan's retry budget; each retry is itself a
        flash operation.  Exhausting the budget raises
        :class:`~repro.errors.ReadError`.
        """
        if self._states[ppn] != VALID:
            raise FlashError(
                f"read of {PageState(self._states[ppn]).name} page at "
                f"PPN {ppn}")
        injector = self.injector
        if injector.live:
            if not injector.ordered:  # no cut: the loop below, one roll
                for _, failures in injector.roll_reads(1):
                    for failed in range(1, failures + 1):
                        self._read_failed(ppn, failed)
                    self.stats.record_ecc_recovery()
            else:
                injector.on_operation()
                failures = 0
                while injector.read_attempt_fails():
                    failures += 1
                    if failures <= injector.plan.max_read_retries:
                        injector.on_operation()
                    self._read_failed(ppn, failures)
                if failures:
                    self.stats.record_ecc_recovery()
        if kind is DATA_PAGE:
            self.stats.data_reads += 1
        else:
            self.stats.translation_reads += 1
        return self._meta[ppn]

    def _read_failed(self, ppn: int, failures: int) -> None:
        """Charge failed attempt number ``failures`` of a read of ``ppn``:
        one ECC retry with exponential backoff or, past the plan's retry
        budget, an uncorrectable :class:`~repro.errors.ReadError`."""
        if failures > self.injector.plan.max_read_retries:
            self.stats.record_uncorrectable_read()
            raise ReadError(
                f"uncorrectable error at PPN {ppn} after {failures} attempts")
        self.stats.record_read_retry(
            backoff_us=self.config.read_us * (2 ** (failures - 1)))

    def invalidate(self, ppn: int) -> None:
        """Invalidate the page at ``ppn`` (its content was superseded).

        Out-of-band bookkeeping, not a flash operation: the injector is
        not consulted.  Moves the block up one victim-index bucket.
        """
        block_id = ppn // self.pages_per_block
        # Block.invalidate inlined (same check, same transition): this
        # plus the index move runs once per superseded page.
        states = self._states
        if states[ppn] != VALID:
            raise ProgramError(
                f"page {ppn % self.pages_per_block} of block {block_id} "
                f"is {PageState(states[ppn]).name}, cannot invalidate")
        states[ppn] = INVALID
        block = self.blocks[block_id]
        invalid = block.invalid_count + 1
        block.invalid_count = invalid
        index = self.victim_index
        index[invalid - 1].discard(block_id)
        index[invalid].add(block_id)

    def erase(self, block_id: int) -> bool:
        """Erase a block; True if it returned to the free pool.

        False means the block was retired instead — its erase failed, or
        its accumulated bad pages crossed the retirement threshold.  The
        physical erase is still counted in the latter case.  Retiring
        past the spare capacity raises
        :class:`~repro.errors.DeviceWornOutError`.
        """
        block = self.blocks[block_id]
        if block.is_free:
            raise FlashError(f"block {block_id} is already free")
        if block.kind is RETIRED_BLOCK:
            raise FlashError(f"block {block_id} is retired")
        base = block._base  # ``block.valid_count``, counted inline
        valid = self._states.count(VALID, base, base + self.pages_per_block)
        if valid:
            raise EraseError(
                f"block {block_id} still has {valid} valid pages")
        kind = block.kind
        if block is self._active_data:
            self._active_data = None
        elif block is self._active_trans:
            self._active_trans = None
        injector = self.injector
        if injector.live:
            if not injector.ordered:
                injector.ops_seen += 1  # no cut to check
            else:
                injector.on_operation()
            if injector.erase_fails():
                self.stats.record_erase_failure()
                self._retire(block)
                return False
        # only now does the block's state change: a power cut raised by
        # the injector above leaves the victim indexed, and selectable
        self.victim_index[block.invalid_count].discard(block_id)
        block.erase()
        if kind is DATA_BLOCK:
            self.stats.data_erases += 1
        else:
            self.stats.translation_erases += 1
        if block.bad_count >= self._bad_retire_pages:
            self._retire(block)
            return False
        self._free.append(block_id)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocate(self, region: BlockKind) -> Block:
        if not self._free:
            if self.is_worn:  # the rule ``BaseFTL._run_gc`` applies
                raise DeviceWornOutError(
                    "no free blocks left with "
                    f"{len(self.retired_block_ids)} blocks retired and "
                    f"{self.bad_page_count} bad pages")
            raise OutOfSpaceError(
                "no free blocks left; GC failed to reclaim space")
        block = self.blocks[self._free.popleft()]
        block.kind = region
        if region is DATA_BLOCK:
            self._active_data = block
        else:
            self._active_trans = block
        return block

    def _retire(self, block: Block) -> None:
        """Take ``block`` out of service permanently."""
        self.victim_index[block.invalid_count].discard(block.block_id)
        block.kind = RETIRED_BLOCK
        self.retired_block_ids.append(block.block_id)
        self.stats.record_block_retired()
        self._check_spares()

    def _check_spares(self) -> None:
        if self.spare_blocks_remaining < 0:
            raise DeviceWornOutError(
                f"{len(self.retired_block_ids)} blocks retired and "
                f"{self.bad_page_count} pages grown bad, but the device "
                f"has only {self.config.spare_blocks} spare blocks; the "
                "remaining capacity cannot hold the logical space")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlashMemory(blocks={len(self.blocks)}, "
                f"free={self.free_block_count}, "
                f"retired={self.retired_block_count})")
