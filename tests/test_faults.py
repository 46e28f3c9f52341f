"""Fault injection: deterministic plans, ECC retries, bad-block
management, and graceful wear-out across the FTL zoo."""

import random

import pytest

from repro.config import SimulationConfig, SSDConfig
from repro.errors import (ConfigError, DeviceWornOutError, FlashError,
                          PowerLossError, ProgramError, ReadError)
from repro.faults import FaultInjector, FaultPlan
from repro.flash import FlashMemory
from repro.ftl import make_ftl
from repro.recovery import verify_recovery
from repro.types import BlockKind, PageKind, PageState

from golden_cells import flash_state
from test_integration import ALL_FTLS, config_for


def draws(seed, count):
    """The first ``count`` draws of a plan's fault RNG."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


def faulty_ssd(**kwargs) -> SSDConfig:
    defaults = dict(logical_pages=512, page_size=256, pages_per_block=8)
    defaults.update(kwargs)
    return SSDConfig(**defaults)


class TestFaultPlan:
    def test_default_plan_is_noop(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert not plan.injects_media_faults

    @pytest.mark.parametrize("field, value", [
        ("read_error_rate", -0.1), ("read_error_rate", 1.5),
        ("program_fail_rate", 2.0), ("erase_fail_rate", -1.0),
        ("max_read_retries", -1), ("bad_page_retire_fraction", 0.0),
        ("bad_page_retire_fraction", 1.5), ("power_cut_after_ops", -3),
    ])
    def test_invalid_plans_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FaultPlan(**{field: value})

    def test_config_knobs_reach_the_injector(self):
        ssd = faulty_ssd(read_error_rate=0.25, program_fail_rate=0.125,
                         erase_fail_rate=0.0625, fault_seed=42,
                         max_read_retries=3)
        ftl = make_ftl("dftl", SimulationConfig(ssd=ssd))
        plan = ftl.flash.injector.plan
        assert plan.read_error_rate == 0.25
        assert plan.program_fail_rate == 0.125
        assert plan.erase_fail_rate == 0.0625
        assert plan.seed == 42
        assert plan.max_read_retries == 3

    def test_config_validates_rates(self):
        with pytest.raises(ConfigError):
            faulty_ssd(read_error_rate=1.5)


class TestInjectorDeterminism:
    def test_same_seed_same_faults(self):
        def sequence(seed):
            inj = FaultInjector(FaultPlan(seed=seed,
                                          program_fail_rate=0.3))
            return [inj.program_fails() for _ in range(200)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_zero_rates_never_roll_the_rng(self):
        inj = FaultInjector(FaultPlan(seed=1))
        before = inj._rng.getstate()
        for _ in range(50):
            assert not inj.read_attempt_fails()
            assert not inj.program_fails()
            assert not inj.erase_fails()
        assert inj._rng.getstate() == before

    def test_operation_counter_advances(self):
        inj = FaultInjector()
        for _ in range(5):
            inj.on_operation()
        assert inj.ops_seen == 5

    @pytest.mark.parametrize("rate, budget", [
        (0.0, 8), (0.3, 8), (0.6, 2), (0.9, 1), (1.0, 3)])
    def test_batched_read_roll_draws_what_reads_one_by_one_draw(
            self, rate, budget):
        """``roll_reads`` against the per-attempt loop ``FlashMemory.read``
        runs: the same draws, counters and verdicts, stopping at the
        first read that fails past the budget."""
        plan = FaultPlan(seed=5, read_error_rate=rate,
                         max_read_retries=budget)
        batched, one_by_one = FaultInjector(plan), FaultInjector(plan)
        faults = batched.roll_reads(40)
        expected = []
        for index in range(40):
            one_by_one.on_operation()
            failures = 0
            while one_by_one.read_attempt_fails():
                failures += 1
                if failures > budget:
                    break
                one_by_one.on_operation()
            if failures:
                expected.append((index, failures))
            if failures > budget:
                break
        assert faults == expected
        assert (batched.ops_seen, batched.injected_read_errors,
                batched._rng.getstate()) == (
            one_by_one.ops_seen, one_by_one.injected_read_errors,
            one_by_one._rng.getstate())


class TestReadFaults:
    def test_transient_errors_recovered_and_counted(self):
        ssd = faulty_ssd(read_error_rate=0.4, fault_seed=3)
        ftl = make_ftl("optimal", SimulationConfig(ssd=ssd))
        for lpn in range(64):
            ftl.read_page(lpn)
        stats = ftl.flash.stats
        assert stats.ecc_recovered_reads > 0
        assert stats.read_retries >= stats.ecc_recovered_reads
        assert stats.read_backoff_us > 0
        assert stats.uncorrectable_reads == 0

    def test_certain_failure_exhausts_retry_budget(self):
        ssd = faulty_ssd(read_error_rate=1.0, max_read_retries=3)
        ftl = make_ftl("optimal", SimulationConfig(ssd=ssd))
        with pytest.raises(ReadError):
            ftl.read_page(0)
        stats = ftl.flash.stats
        assert stats.uncorrectable_reads == 1
        assert stats.read_retries == 3

    @pytest.mark.parametrize("rate, budget, failing", [(1.0, 3, 0),
                                                       (0.5, 0, 2)])
    def test_uncorrectable_read_inside_a_batch_moves_nothing(
            self, rate, budget, failing):
        """A GC move rolls every page's reads before any page moves, so
        an uncorrectable page leaves the array as it was.  Until read
        faults kept the batched mover, every live plan moved page by
        page: the pages before the failing one had already moved, and
        the FTL's mappings of them were left stale."""
        seed = next(seed for seed in range(1_000) if [
            draw < rate for draw in draws(seed, failing + 1)]
            == [False] * failing + [True])
        flash = FlashMemory(faulty_ssd(read_error_rate=rate,
                                       max_read_retries=budget,
                                       fault_seed=seed))
        ppns = flash.program_batch(PageKind.DATA, range(9))
        flash.invalidate(ppns[-2])
        injector = flash.injector
        assert not injector.ordered
        before = (flash_state(flash), flash.op_seq,
                  flash.active_block(BlockKind.DATA),
                  flash.active_block(BlockKind.TRANSLATION),
                  [set(bucket) for bucket in flash.victim_index])
        ops_seen = injector.ops_seen
        with pytest.raises(ReadError, match=f"PPN {ppns[failing]} after "
                                            f"{budget + 1} attempts"):
            flash.migrate_valid(flash.block_of(ppns[0]), PageKind.DATA)
        assert before == (flash_state(flash), flash.op_seq,
                          flash.active_block(BlockKind.DATA),
                          flash.active_block(BlockKind.TRANSLATION),
                          flash.victim_index)
        assert injector.ops_seen == ops_seen + failing + 1 + budget
        assert flash.stats.uncorrectable_reads == 1
        assert flash.stats.read_retries == budget

    def test_read_error_is_flash_error(self):
        assert issubclass(ReadError, FlashError)


class TestProgramFaults:
    def test_failed_program_marks_page_bad_and_retries(self):
        ssd = faulty_ssd()
        flash = FlashMemory(ssd)
        # fail exactly the first attempt
        flash.injector.program_fails = iter([True, False]).__next__
        ppn = flash.program(PageKind.DATA, meta=0)
        block = flash.block_of(ppn)
        assert flash.offset_of(ppn) == 1  # page 0 went bad
        assert block.state(0) is PageState.BAD
        assert block.bad_count == 1
        assert flash.stats.program_failures == 1
        assert flash.bad_page_count == 1

    def test_bad_pages_survive_erase(self):
        ssd = faulty_ssd()
        flash = FlashMemory(ssd)
        # exhaust the block: 1 bad + 7 programmed
        flash.injector.program_fails = (
            lambda it=iter([True] + [False] * 7): next(it))
        ppns = [flash.program(PageKind.DATA, meta=i) for i in range(7)]
        block = flash.block_of(ppns[0])
        for ppn in ppns:
            flash.invalidate(ppn)
        assert flash.erase(block.block_id)
        assert block.state(0) is PageState.BAD
        assert block.free_count == ssd.pages_per_block - 1

    def test_write_pointer_skips_bad_pages_after_erase(self):
        ssd = faulty_ssd()
        flash = FlashMemory(ssd)
        flash.injector.program_fails = (
            lambda it=iter([True] + [False] * 100): next(it))
        first = flash.program(PageKind.DATA, meta=0)
        block = flash.block_of(first)
        ppns = [first] + [flash.program(PageKind.DATA, meta=i)
                          for i in range(1, 7)]
        for ppn in ppns:
            flash.invalidate(ppn)
        flash.erase(block.block_id)
        block.kind = BlockKind.DATA
        # offset 0 is bad: the next program of this block lands at 1
        assert block.program(meta=9, seq=1) == 1

    def test_mark_bad_rejects_free_region_blocks(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        with pytest.raises(ProgramError):
            flash.blocks[0].mark_bad()


class TestEraseFaultsAndRetirement:
    def _full_invalid_block(self, flash):
        ppns = [flash.program(PageKind.DATA, meta=i) for i in range(8)]
        for ppn in ppns:
            flash.invalidate(ppn)
        return flash.block_of(ppns[0])

    def test_erase_failure_retires_the_block(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        block = self._full_invalid_block(flash)
        flash.injector.erase_fails = lambda: True
        assert flash.erase(block.block_id) is False
        assert block.kind is BlockKind.RETIRED
        assert block.block_id in flash.retired_block_ids
        assert flash.stats.erase_failures == 1
        assert flash.stats.retired_blocks == 1
        # retired blocks never return to the free pool
        assert block.block_id not in flash._free

    def test_retired_block_rejects_further_erases(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        block = self._full_invalid_block(flash)
        flash.injector.erase_fails = lambda: True
        flash.erase(block.block_id)
        flash.injector.erase_fails = lambda: False
        with pytest.raises(FlashError):
            flash.erase(block.block_id)

    def test_bad_page_threshold_retires_on_erase(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        # 4 of 8 pages bad = the default 0.5 retirement threshold
        fails = iter([True] * 4 + [False] * 100)
        flash.injector.program_fails = lambda: next(fails)
        ppns = [flash.program(PageKind.DATA, meta=i) for i in range(4)]
        block = flash.block_of(ppns[0])
        assert block.bad_count == 4
        for ppn in ppns:
            flash.invalidate(ppn)
        assert flash.erase(block.block_id) is False
        assert block.kind is BlockKind.RETIRED

    def test_spare_exhaustion_raises_worn_out(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        flash.injector.erase_fails = lambda: True
        spares = tiny_ssd.spare_blocks
        assert spares > 0
        with pytest.raises(DeviceWornOutError):
            for _ in range(spares + 1):
                block = self._full_invalid_block(flash)
                flash.erase(block.block_id)
        assert flash.retired_block_count == spares + 1
        assert flash.spare_blocks_remaining < 0

    def test_worn_out_is_flash_error(self):
        assert issubclass(DeviceWornOutError, FlashError)


class TestEndToEndDegradation:
    @pytest.mark.parametrize("name", ("dftl", "tpftl", "optimal"))
    def test_low_rates_stay_consistent(self, name):
        ssd = faulty_ssd(read_error_rate=0.01, program_fail_rate=0.002,
                         fault_seed=11)
        ftl = make_ftl(name, SimulationConfig(ssd=ssd))
        rng = random.Random(1)
        for _ in range(1500):
            ftl.write_page(rng.randrange(512))
        verify_recovery(ftl)
        assert ftl.flash.stats.program_failures > 0
        assert ftl.flash.bad_page_count > 0

    @pytest.mark.parametrize("name", ("dftl", "tpftl", "optimal"))
    def test_heavy_faults_end_in_worn_out_not_crash(self, name):
        ssd = faulty_ssd(read_error_rate=0.02, program_fail_rate=0.02,
                         erase_fail_rate=0.02, fault_seed=7)
        ftl = make_ftl(name, SimulationConfig(ssd=ssd))
        rng = random.Random(1)
        with pytest.raises(DeviceWornOutError):
            for _ in range(100_000):
                ftl.write_page(rng.randrange(512))

    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_no_faults_by_default(self, name):
        ftl = make_ftl(name, config_for(name))
        rng = random.Random(3)
        for _ in range(300):
            ftl.write_page(rng.randrange(512))
        assert ftl.flash.stats.fault_summary() == {
            "read_retries": 0, "ecc_recovered_reads": 0,
            "uncorrectable_reads": 0, "read_backoff_us": 0.0,
            "program_failures": 0, "erase_failures": 0,
            "retired_blocks": 0,
        }


class TestDeviceWiring:
    def test_run_result_carries_fault_counters(self, tiny_config):
        from repro.ssd import simulate
        from conftest import make_trace, random_ops
        ssd = faulty_ssd(read_error_rate=0.05, fault_seed=9)
        config = SimulationConfig(ssd=ssd)
        ftl = make_ftl("dftl", config)
        trace = make_trace(random_ops(200, 512, seed=6))
        result = simulate(ftl, trace)
        assert result.faults["ecc_recovered_reads"] > 0
        assert result.summary()["ecc_recovered_reads"] > 0

    def test_spare_blocks_accounting(self, tiny_ssd):
        assert (tiny_ssd.spare_blocks
                == tiny_ssd.physical_blocks
                - tiny_ssd.min_required_blocks)
        assert tiny_ssd.spare_blocks > 0


class TestPowerCutArming:
    def test_cut_fires_at_the_armed_operation(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        flash.injector.arm_power_loss(3)
        for i in range(3):
            flash.program(PageKind.DATA, meta=i)
        with pytest.raises(PowerLossError):
            flash.program(PageKind.DATA, meta=3)
        assert flash.injector.power_cuts == 1

    def test_disarm_restores_service(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        flash.injector.arm_power_loss(0)
        with pytest.raises(PowerLossError):
            flash.program(PageKind.DATA, meta=0)
        flash.injector.disarm_power_loss()
        assert not flash.injector.power_loss_armed
        flash.program(PageKind.DATA, meta=0)

    def test_cut_preserves_completed_state(self, tiny_ssd):
        flash = FlashMemory(tiny_ssd)
        flash.injector.arm_power_loss(2)
        a = flash.program(PageKind.DATA, meta=1)
        b = flash.program(PageKind.DATA, meta=2)
        with pytest.raises(PowerLossError):
            flash.program(PageKind.DATA, meta=3)
        # the two completed programs are intact
        assert flash.block_of(a).meta(flash.offset_of(a)) == 1
        assert flash.block_of(b).meta(flash.offset_of(b)) == 2
