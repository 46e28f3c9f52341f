"""The execution core against its frozen reference.

Until PR 12 a second, per-operation core served as the living oracle
for the batched one.  The oracle is now ``tests/golden_digests.json``:
the one core must reproduce every cell of ``tests/golden_cells.py``
(which says how each was frozen, and regenerates the table) byte for
byte.

What legitimately stays dual inside the one core is cross-checked
directly: chunk-filled prefill/GC migration (an ideal device, or a plan
that can fail only reads and erases) against the page-by-page order an
ordered plan gets (an armed cut, program faults or a stubbed oracle),
and the counting victim index and running erase-count spread against
full scans.

Also here, unchanged: the regression for a bug fixed alongside the
batched core — ``CacheSampler.maybe_sample`` fired on every request
after a multi-page request jumped several boundaries at once.
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SimulationConfig
from repro.errors import (DeviceWornOutError, FlashError, PowerLossError,
                          ReadError)
from repro.experiments.runner import (decode_result, encode_result,
                                      execute_spec)
from repro.faults import FaultInjector, FaultPlan
from repro.flash import FlashMemory
from repro.flash.block import Block
from repro.ftl import make_ftl
from repro.metrics import CacheSampler
from repro.ssd import DeviceModel
from repro.types import AccessResult, BlockKind, PageKind, PageState
from repro.workloads import make_preset

from conftest import (check_every_selection, golden_digests, make_trace,
                      random_ops, result_digest)
from golden_cells import (FAULT_CELLS, FTLS, GC_HEAVY, PANEL_CELLS,
                          POWER_CUT_AFTER, ROOMY, RUN_CELLS, SPEC_CELLS,
                          TIER1_WORKLOADS, TINY, TINY_SSD, TRACE_CELLS,
                          all_cells, check,
                          flash_state, gc_heavy_trace, media_fault_config,
                          sanitized_run, small_trace)


# ----------------------------------------------------------------------
# The golden table
# ----------------------------------------------------------------------
class TestGoldenTable:
    @pytest.mark.parametrize("name", [
        name for name in (*SPEC_CELLS, *RUN_CELLS, *FAULT_CELLS,
                          *TRACE_CELLS, *PANEL_CELLS)
        if name.startswith(("zoo/", "bench/", "ablation/", "small-cache/",
                            "device/gc-heavy-sftl", "faults/media",
                            "faults/read-erase", "traces/", "panels/"))])
    def test_cell_matches_reference(self, name):
        check(name)

    def test_table_and_cells_agree(self):
        assert set(golden_digests()["cells"]) == set(all_cells())

    def test_bench_spec_digests_unchanged(self):
        """The cache addresses BENCH_fastpath.json used to pin."""
        for label, digest in golden_digests()["specs"].items():
            assert SPEC_CELLS[f"bench/{label}"].digest == digest


class TestTier1Parity:
    """The core reproduces the reference on every tier-1 cell."""

    @pytest.mark.parametrize("workload", TIER1_WORKLOADS)
    @pytest.mark.parametrize("ftl", FTLS)
    def test_cell_parity(self, workload, ftl):
        check(f"tier1/{workload}:{ftl}")

    def test_parity_survives_decode_roundtrip(self):
        result = execute_spec(SPEC_CELLS["tier1/financial2:dftl"])
        decoded = decode_result(encode_result(result))
        assert (result_digest(decoded)
                == golden_digests()["cells"]["tier1/financial2:dftl"])

    def test_multichannel_parity(self):
        spec = SPEC_CELLS["channels4/financial2:dftl"]
        assert execute_spec(spec).channels == 4
        check("channels4/financial2:dftl")


class TestDeviceLevelParity:
    """Hand-built devices against the reference's digests."""

    def test_warmup_parity(self):
        check("device/warmup-dftl")
        check("device/gc-heavy-dftl")

    def test_fault_plan_falls_back_to_reference(self):
        """A read-only plan keeps the batched prefill and GC mover and
        still reproduces the digest frozen when live plans went page by
        page (the ``faults/read-erase-*`` cells pin the same for a
        read + erase plan over two demand-based FTLs)."""
        check("faults/read-only-optimal")

    def test_power_cut_fires_at_the_reference_operation(self):
        """Same exception at the same ``ops_seen``, same flash left
        behind — the digest pins all three; the message is spelled out
        so a drift names itself."""
        ftl = make_ftl("dftl", TINY)
        ftl.flash.injector.arm_power_loss(POWER_CUT_AFTER)
        with pytest.raises(PowerLossError,
                           match=f"after {POWER_CUT_AFTER} flash"):
            DeviceModel(ftl).run(small_trace(count=600))
        assert ftl.flash.injector.ops_seen == POWER_CUT_AFTER
        check("faults/power-cut-dftl")

    def test_sanitizer_sees_every_op(self):
        """FTLSan runs in the policy slice: full per-op coverage."""
        _, ftl, pages = sanitized_run()
        assert ftl.sanitizer is not None
        assert ftl.sanitizer.op_seq == pages
        check("device/sanitized-tpftl")

    def test_mid_run_exception_leaves_device_reusable(self):
        """A replay that dies in the serve loop must leave nothing
        behind that a later replay on the same device can observe."""
        check("device/follow-up-after-abort")


class TestOpsSeen:
    """``FaultInjector.ops_seen``: flash operations started while the
    plan is live."""

    def test_idle_plan_counts_nothing(self):
        ftl = make_ftl("dftl", ROOMY)
        DeviceModel(ftl).run(small_trace(count=200))
        assert not ftl.flash.injector.live
        assert ftl.flash.injector.ops_seen == 0

    def test_live_plan_counts_every_started_operation(self):
        """Programs, read attempts (ECC retries included) and erases
        each start one operation; invalidation is out-of-band
        bookkeeping and starts none."""
        ssd = dataclasses.replace(TINY_SSD, read_error_rate=1.0,
                                  max_read_retries=3)
        flash = FlashMemory(ssd)
        injector = flash.injector
        ppns = [flash.program(PageKind.DATA, meta) for meta in range(8)]
        assert injector.ops_seen == 8
        with pytest.raises(ReadError):
            flash.read(ppns[0], PageKind.DATA)
        assert injector.ops_seen == 8 + 1 + 3
        for ppn in ppns:
            flash.invalidate(ppn)
        assert injector.ops_seen == 12
        assert flash.erase(flash.block_id_of(ppns[0]))
        assert injector.ops_seen == 13

    def test_arming_makes_an_idle_injector_live(self):
        flash = FlashMemory(TINY_SSD)
        injector = flash.injector
        for meta in range(3):
            flash.program(PageKind.DATA, meta)
        assert injector.ops_seen == 0
        injector.arm_power_loss(2)
        assert injector.live
        flash.program(PageKind.DATA, 3)
        flash.program(PageKind.DATA, 4)
        with pytest.raises(PowerLossError, match="after 2 flash"):
            flash.program(PageKind.DATA, 5)
        assert injector.ops_seen == 2


# ----------------------------------------------------------------------
# What stays dual inside the one core, against its own reference
# ----------------------------------------------------------------------
def with_plan(name, config, plan):
    """``name`` over an array built, and prefilled, under ``plan``."""
    ftl = make_ftl(name, config, prefill=False)
    ftl.flash = FlashMemory(config.ssd, injector=FaultInjector(plan))
    ftl.prefill()
    return ftl


def never_firing(name, config):
    """``name`` over an array whose plan is ordered but can never fire."""
    return with_plan(name, config, FaultPlan(power_cut_after_ops=10 ** 12))


def programs_in_one_migration(injector):
    """``FlashMemory.program`` calls one ``migrate_valid`` of a data
    block with seven valid pages makes under ``injector``."""
    flash = FlashMemory(TINY_SSD, injector=injector)
    ppns = flash.program_batch(PageKind.DATA,
                               range(TINY_SSD.pages_per_block + 1))
    flash.invalidate(ppns[0])
    program, calls = flash.program, [0]

    def spy(*args, **kwargs):
        calls[0] += 1
        return program(*args, **kwargs)

    flash.program = spy
    flash.migrate_valid(flash.block_of(ppns[0]), PageKind.DATA)
    return calls[0]


class TestPlanSelectsMechanics:
    """Chunk-filled prefill/GC migration (an unordered plan: ideal, or
    read and erase faults only) and the page-by-page read -> program ->
    invalidate order (an ordered plan) are the same machine."""

    @pytest.mark.parametrize("name", ("dftl", "tpftl"))
    def test_batched_and_per_op_migration_agree(self, name):
        batched = make_ftl(name, GC_HEAVY)
        per_op = never_firing(name, GC_HEAVY)
        assert flash_state(batched.flash) == flash_state(per_op.flash)
        assert not batched.flash.injector.live
        assert not per_op.flash.injector.plan.is_noop
        results = [DeviceModel(ftl).run(gc_heavy_trace())
                   for ftl in (batched, per_op)]
        assert results[0].metrics.gc_data_collections > 0
        assert results[0].metrics.gc_translation_collections > 0
        assert result_digest(results[0]) == result_digest(results[1])
        assert flash_state(batched.flash) == flash_state(per_op.flash)
        assert batched.flash.op_seq == per_op.flash.op_seq
        assert batched.flash.injector.ops_seen == 0
        assert per_op.flash.injector.ops_seen > per_op.flash.op_seq / 2

    @pytest.mark.parametrize("name", ("dftl", "tpftl"))
    def test_read_faults_batch_and_agree_with_page_by_page(self, name):
        """A read-only plan batches; the same plan made ordered by a
        never-firing cut goes page by page.  Same draws in the same
        order, so everything the two leave behind is equal."""
        plan = FaultPlan(seed=3, read_error_rate=0.05)
        batched = with_plan(name, GC_HEAVY, plan)
        per_op = with_plan(name, GC_HEAVY, dataclasses.replace(
            plan, power_cut_after_ops=10 ** 12))
        assert batched.flash.injector.live
        assert not batched.flash.injector.ordered
        assert per_op.flash.injector.ordered
        flash, move, retried = batched.flash, batched.flash._move, []

        def move_counting_retries(sources, kind):
            before = flash.stats.read_retries
            moved = move(sources, kind)
            retried.append(flash.stats.read_retries - before)
            return moved

        flash._move = move_counting_retries
        results = [DeviceModel(ftl).run(gc_heavy_trace())
                   for ftl in (batched, per_op)]
        assert results[0].metrics.gc_data_collections > 0
        assert results[0].metrics.gc_translation_collections > 0
        assert sum(retried) > 0  # ECC retries inside batched moves
        assert result_digest(results[0]) == result_digest(results[1])
        assert flash_state(batched.flash) == flash_state(per_op.flash)
        assert batched.flash.op_seq == per_op.flash.op_seq
        injectors = [ftl.flash.injector for ftl in (batched, per_op)]
        assert len({(injector.ops_seen, injector.injected_read_errors,
                     injector.injected_program_failures,
                     injector.injected_erase_failures,
                     injector._rng.getstate())
                    for injector in injectors}) == 1
        assert (batched.flash.stats.fault_summary()
                == per_op.flash.stats.fault_summary())

    @pytest.mark.parametrize("trigger", (
        "cut", "program_fail_rate", "read_attempt_fails", "program_fails",
        "erase_fails"))
    def test_each_ordered_trigger_goes_page_by_page(self, trigger):
        injector = FaultInjector(FaultPlan(
            read_error_rate=0.01,
            program_fail_rate=1e-12 if trigger == "program_fail_rate" else 0))
        if trigger == "cut":
            injector.arm_power_loss(10 ** 6)
        elif trigger != "program_fail_rate":
            setattr(injector, trigger, lambda: False)
        assert injector.ordered
        assert programs_in_one_migration(injector) == 7

    def test_read_and_erase_faults_alone_keep_the_batch(self):
        for plan in (FaultPlan(read_error_rate=0.01),
                     FaultPlan(erase_fail_rate=0.01),
                     FaultPlan(read_error_rate=0.01, erase_fail_rate=0.01)):
            injector = FaultInjector(plan)
            assert injector.live and not injector.ordered
            assert programs_in_one_migration(injector) == 0


def gc_ready_ftl():
    """DFTL on the tiny device, run until GC has victims to choose from."""
    ftl = make_ftl("dftl", GC_HEAVY)
    DeviceModel(ftl).run(gc_heavy_trace())
    return ftl


class TestVictimIndexEquivalence:
    """The counting victim index against full greedy scans."""

    @given(seed=st.integers(0, 2 ** 16),
           write_ratio=st.floats(0.5, 1.0),
           program_fail_rate=st.sampled_from((0.0, 0.004, 0.02)),
           erase_fail_rate=st.sampled_from((0.0, 0.02, 0.1)))
    # a pool that runs dry inside GC's translation-page relocation on a
    # worn array: it must end in DeviceWornOutError, not OutOfSpaceError
    @example(seed=320, write_ratio=1.0, program_fail_rate=0.0,
             erase_fail_rate=0.1)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_greedy_selection_matches(self, seed, write_ratio,
                                      program_fail_rate, erase_fail_rate):
        ssd = dataclasses.replace(
            TINY_SSD, program_fail_rate=program_fail_rate,
            erase_fail_rate=erase_fail_rate, fault_seed=seed)
        ftl = make_ftl("dftl", SimulationConfig(
            ssd=ssd, cache=CacheConfig(budget_bytes=1024)))
        checks = check_every_selection(ftl)
        trace = make_trace(random_ops(700, 512, seed=seed,
                                      write_ratio=write_ratio))
        try:
            DeviceModel(ftl).run(trace)
        except DeviceWornOutError:
            pass
        assert checks[0] > 0

    def test_worn_array_reaches_the_index(self):
        """Bad pages and retired blocks, which the old fast mode
        refused, select through the same index."""
        ftl = make_ftl("dftl", media_fault_config("dftl"))
        checks = check_every_selection(ftl)
        trace = make_preset("financial1", num_requests=2_000,
                            logical_pages=ftl.ssd.logical_pages)
        try:
            DeviceModel(ftl).run(trace)
        except DeviceWornOutError:
            pass
        assert checks[0] > 0
        assert ftl.flash.bad_page_count > 0
        assert ftl.flash.retired_block_count > 0

    def test_power_cut_on_the_erase_leaves_the_victim_selectable(self):
        """The index forgets a block where its state changes, which is
        after the injector had its say on the erase."""
        ftl = gc_ready_ftl()
        flash, victim = ftl.flash, ftl._select_victim()

        def erase_as_power_dies(block_id):
            flash.injector.arm_power_loss(0)
            return type(flash).erase(flash, block_id)

        flash.erase = erase_as_power_dies
        with pytest.raises(PowerLossError):
            ftl._collect(victim, AccessResult())
        assert victim.valid_count == 0 and not victim.is_free
        assert ftl._select_victim() is victim

    def test_failed_erase_leaves_the_block_in_no_bucket(self):
        ftl = gc_ready_ftl()
        victim = ftl._select_victim()
        ftl.flash.injector.erase_fails = lambda: True
        ftl._collect(victim, AccessResult())
        assert victim.kind is BlockKind.RETIRED and victim.invalid_count
        assert not any(victim.block_id in bucket
                       for bucket in ftl.flash.victim_index)
        assert ftl._select_victim() is not victim


def aged_flash(seed, live=False):
    """A tiny array aged by a seeded script of programs, invalidations
    and erases of both page kinds -> (flash, valid PPNs per kind).
    ``live`` attaches an ordered injector that is consulted on every
    operation and never fires."""
    flash = FlashMemory(TINY_SSD, injector=FaultInjector(FaultPlan(
        power_cut_after_ops=10 ** 12)) if live else None)
    rng = random.Random(seed)
    valid = {kind: [] for kind in PageKind}
    for meta in range(rng.randrange(120, 320)):
        kind = PageKind.DATA if rng.random() < 0.7 else PageKind.TRANSLATION
        valid[kind].append(flash.program(kind, meta))
        pool = valid[rng.choice(list(PageKind))]
        if pool and rng.random() < 0.5:
            flash.invalidate(pool.pop(rng.randrange(len(pool))))
    for block in flash.blocks:
        if (block.invalid_count and not block.valid_count
                and block is not flash.active_block(block.kind)):
            flash.erase(block.block_id)
    return flash, valid


def array_state(flash):
    """Everything a bulk move may leave behind."""
    return (flash_state(flash), flash.op_seq, flash.victim_index,
            flash.stats, flash.free_block_count)


class TestRelocate:
    """The one page mover: scattered pages against whole victims, the
    batched ideal-device path against the per-page ordered one."""

    @given(seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(list(PageKind)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ideal_and_live_arrays_agree(self, seed, kind, data):
        ideal, valid = aged_flash(seed)
        live, _ = aged_flash(seed, live=True)
        assert array_state(ideal) == array_state(live)
        pool = valid[kind]
        assume(pool)
        ppns = data.draw(st.lists(st.sampled_from(pool), unique=True))
        frontier = ideal.active_block(BlockKind(kind.value))
        if ideal.block_of(pool[-1]) is frontier and pool[-1] not in ppns:
            ppns.append(pool[-1])  # a source inside the block being filled
        metas = [ideal.block_of(ppn).meta(ideal.offset_of(ppn))
                 for ppn in ppns]
        ops_seen = live.injector.ops_seen
        moved = ideal.relocate(ppns, kind)
        assert moved == live.relocate(ppns, kind)
        assert moved[0] == metas and len(set(moved[1])) == len(ppns)
        assert array_state(ideal) == array_state(live)
        assert ideal.injector.ops_seen == 0
        assert live.injector.ops_seen == ops_seen + 2 * len(ppns)

    @given(seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(list(PageKind)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_whole_victim_is_its_valid_pages(self, seed, kind, data):
        whole, _ = aged_flash(seed)
        piecewise, _ = aged_flash(seed)
        frontier = whole.active_block(BlockKind(kind.value))
        victims = [block.block_id for block in whole.blocks
                   if block.kind is frontier.kind and block is not frontier]
        assume(victims)
        victim = data.draw(st.sampled_from(victims))
        ppns = [whole.ppn_of(victim, offset)
                for offset in whole.blocks[victim].valid_offsets()]
        assert (whole.migrate_valid(whole.blocks[victim], kind)
                == piecewise.relocate(ppns, kind))
        assert array_state(whole) == array_state(piecewise)
        assert not whole.blocks[victim].valid_count

    @pytest.mark.parametrize("live", (False, True))
    def test_a_page_that_is_not_valid_is_refused(self, live):
        flash, valid = aged_flash(3, live=live)
        stale = valid[PageKind.DATA][0]
        flash.invalidate(stale)
        with pytest.raises(FlashError, match=f"INVALID page at PPN {stale}"):
            flash.relocate([valid[PageKind.DATA][1], stale], PageKind.DATA)
        free = flash.ppn_of(flash._free[0], 0)
        with pytest.raises(FlashError, match=f"FREE page at PPN {free}"):
            flash.relocate([free], PageKind.DATA)

    @pytest.mark.parametrize("live", (False, True))
    def test_a_page_cannot_be_moved_twice(self, live):
        flash, valid = aged_flash(3, live=live)
        ppn = valid[PageKind.TRANSLATION][0]
        with pytest.raises(FlashError, match=f"INVALID page at PPN {ppn}"):
            flash.relocate([ppn, ppn], PageKind.TRANSLATION)

    def test_an_empty_list_moves_and_allocates_nothing(self):
        flash = FlashMemory(TINY_SSD)
        assert flash.relocate([], PageKind.TRANSLATION) == ([], [])
        assert flash.active_block(BlockKind.TRANSLATION) is None
        assert array_state(flash) == array_state(FlashMemory(TINY_SSD))


def injector_modes():
    """The three ways the mover runs: an idle injector, a live read-error
    plan (unordered: the bulk lift) and an ordered one (an oracle
    stubbed never to fire: page by page).  The read-error rate is low
    enough that the few reads here never fail."""
    ordered = FaultInjector()
    ordered.program_fails = lambda: False
    return {"idle": FaultInjector(),
            "live": FaultInjector(FaultPlan(read_error_rate=1e-9)),
            "ordered": ordered}


def mover_state(flash):
    """The raw arrays, the index, every block counter and the stats."""
    return (bytes(flash._states), flash._meta.tobytes(),
            [set(bucket) for bucket in flash.victim_index],
            [(block.kind, block.valid_count, block.invalid_count,
              block.bad_count, block._write_ptr, block.erase_count,
              block.last_program_seq) for block in flash.blocks],
            flash.stats, flash.op_seq, list(flash._free))


class TestMoverModesAgree:
    """``migrate_valid`` and ``relocate`` on one prefilled array leave
    the same array behind under each injector mode."""

    def test_three_modes_leave_identical_arrays(self):
        ppb = TINY_SSD.pages_per_block
        prefilled = FlashMemory(TINY_SSD)
        data = prefilled.program_batch(PageKind.DATA, range(64 * ppb // 2))
        trans = prefilled.program_batch(PageKind.TRANSLATION, range(3 * ppb))
        for ppn in data[::3] + trans[1::4]:
            prefilled.invalidate(ppn)
        states = {}
        for mode, injector in injector_modes().items():
            flash = copy.deepcopy(prefilled)
            flash.injector = injector
            moved = [
                flash.migrate_valid(flash.block_of(data[0]), PageKind.DATA),
                flash.migrate_valid(flash.block_of(trans[0]),
                                    PageKind.TRANSLATION),
                flash.relocate([data[5 * ppb + 1], data[ppb + 2],
                                data[9 * ppb + 7]], PageKind.DATA),
                flash.relocate([trans[2 * ppb + 3], trans[ppb]],
                               PageKind.TRANSLATION),
            ]
            assert injector.ordered == (mode == "ordered")
            assert injector.ops_seen == (0 if mode == "idle" else 2 * sum(
                len(metas) for metas, _ in moved))
            states[mode] = (moved, mover_state(flash))
        assert states["idle"] == states["live"] == states["ordered"]
        moved, _ = states["idle"]
        assert [len(metas) for metas, _ in moved] == [5, 6, 3, 2]


def take_as_frontier(flash, block_id):
    """Allocate ``block_id`` out of the free pool as the data frontier."""
    flash._free.remove(block_id)
    flash._free.appendleft(block_id)
    return flash._allocate(BlockKind.DATA)


def window_state(block):
    """Everything a ``Block`` knows about itself and its pages."""
    offsets = range(block.pages_per_block)
    return ([block.state(offset) for offset in offsets],
            [block.meta(offset) for offset in offsets], block.kind,
            block.valid_count, block.invalid_count, block.bad_count,
            block.free_count, block._write_ptr, block.erase_count,
            block.last_program_seq)


def raw_pages(flash, block_id):
    """The bytes block ``block_id`` occupies in the two flat arrays."""
    first = block_id * flash.pages_per_block
    stop = first + flash.pages_per_block
    return (bytes(flash._states[first:stop]),
            flash._meta[first:stop].tobytes())


class TestBlockWindow:
    """A block of the array is a window onto two flat arrays: it must
    behave as a stand-alone ``Block`` does and stay inside its window
    (an in-block offset used as a PPN, or a slice that forgets the
    base, lands in another block)."""

    @given(k=st.integers(1, TINY_SSD.physical_blocks - 2),
           ops=st.lists(st.tuples(
               st.sampled_from(["program", "invalidate", "bad", "erase"]),
               st.integers(0, 7)), max_size=40))
    @example(k=1, ops=[("bad", 0), ("program", 2), ("bad", 0),
                       ("program", 7), ("invalidate", 1), ("invalidate", 0),
                       ("invalidate", 0), ("invalidate", 0),
                       ("invalidate", 0), ("invalidate", 0), ("erase", 0),
                       ("program", 3)])
    @settings(max_examples=60, deadline=None)
    def test_window_matches_a_stand_alone_block(self, k, ops):
        ppb = TINY_SSD.pages_per_block
        flash = FlashMemory(TINY_SSD)
        for neighbour in (k - 1, k + 1):
            take_as_frontier(flash, neighbour)
            ppns = flash.program_batch(
                PageKind.DATA, range(neighbour * 100, neighbour * 100 + ppb))
            flash.invalidate(ppns[neighbour % ppb])
        before = [(raw_pages(flash, b), window_state(flash.blocks[b]))
                  for b in (k - 1, k + 1)]
        window = flash.blocks[k]
        alone = Block(k, ppb)
        meta = 0
        for op, n in ops:
            if op in ("program", "bad") and not alone.is_full:
                if alone.is_free:
                    alone.kind = BlockKind.DATA
                    take_as_frontier(flash, k)
                if op == "bad":
                    # stay under the count at which an erase retires
                    if alone.bad_count + 1 < flash._bad_retire_pages:
                        assert alone.mark_bad() == window.mark_bad()
                    continue
                metas = list(range(meta, meta + min(n + 1, alone.free_count)))
                meta += len(metas)
                # the chunk fill is the ideal device's, which never
                # grows a bad page; past one, program page by page
                ppns = (flash.program_batch(PageKind.DATA, metas)
                        if not window.bad_count else
                        [flash.program(PageKind.DATA, m) for m in metas])
                assert ppns == [flash.ppn_of(k, alone.program(m, flash.op_seq))
                                for m in metas]
            elif op == "invalidate" and alone.valid_count:
                valid = alone.valid_offsets()
                assert valid == window.valid_offsets()
                alone.invalidate(valid[n % len(valid)])
                flash.invalidate(flash.ppn_of(k, valid[n % len(valid)]))
            elif (op == "erase" and not alone.is_free
                  and not alone.valid_count):
                alone.erase()
                assert flash.erase(k)
            assert window_state(alone) == window_state(window)
            # ... and right, not merely alike: bad pages outlive erases
            states = window_state(window)[0]
            assert [states.count(state) for state in PageState] == [
                window.free_count, window.valid_count,
                window.invalid_count, window.bad_count]
        assert before == [(raw_pages(flash, b), window_state(flash.blocks[b]))
                          for b in (k - 1, k + 1)]


class TestSamplerCatchUp:
    """Regression: multi-page jumps used to trigger oversampling."""

    def test_multiboundary_jump_samples_once(self):
        sampler = CacheSampler(interval=10)
        # one giant request jumps the counter across 5 boundaries
        assert sampler.maybe_sample(52, [(4, 1)])
        assert len(sampler.samples) == 1
        # the very next requests must NOT all sample (the old bug:
        # _next_at lagged at 20 and every call >= 20 fired)
        assert not sampler.maybe_sample(53, [(4, 1)])
        assert not sampler.maybe_sample(59, [(4, 1)])
        assert sampler.maybe_sample(60, [(4, 1)])
        assert [s.access_number for s in sampler.samples] == [52, 60]

    def test_exact_boundary_keeps_cadence(self):
        sampler = CacheSampler(interval=10)
        fired = [n for n in range(1, 51)
                 if sampler.maybe_sample(n, [(1, 0)])]
        assert fired == [10, 20, 30, 40, 50]

    def test_due_matches_maybe_sample(self):
        probe = CacheSampler(interval=7)
        mirror = CacheSampler(interval=7)
        jumps = [3, 7, 8, 20, 21, 22, 49, 50, 90]
        for n in jumps:
            would = probe.due(n)
            did = mirror.maybe_sample(n, [(1, 0)])
            assert would == did
            if did:
                probe.maybe_sample(n, [(1, 0)])

    def test_disabled_sampler_never_due(self):
        sampler = CacheSampler(interval=0)
        assert not sampler.due(10 ** 9)
        assert not sampler.maybe_sample(10 ** 9, [(1, 0)])

    def test_snapshot_built_only_when_a_sample_is_due(self):
        """Regression: the per-operation loop built ``cache_snapshot()``
        (a list over every cached TP node) on every request."""
        ftl = make_ftl("tpftl", ROOMY)
        snapshot, calls = ftl.cache_snapshot, [0]

        def counting():
            calls[0] += 1
            return snapshot()

        ftl.cache_snapshot = counting
        result = DeviceModel(ftl, sample_interval=200).run(small_trace())
        assert 0 < len(result.sampler.samples) == calls[0] < 1_500
