"""Power-loss torture: cut power mid-workload at many points, recover
by flash scan, and hold every FTL to the acknowledged-ops contract."""

import pytest

from repro.errors import FTLError, PowerLossError
from repro.faults import powerloss
from repro.ftl import make_ftl
from repro.types import Op, PageKind

from golden_cells import GC_HEAVY
from test_integration import ALL_FTLS, config_for


def ops_for(config, count=300, seed=3):
    return powerloss.default_ops(count, config.ssd.logical_pages,
                                 seed=seed, trim_ratio=0.1)


class TestSweep:
    @pytest.mark.parametrize("name", ALL_FTLS)
    def test_fifty_cut_points_survive(self, name):
        """The acceptance sweep: >= 50 cut points per FTL, all of which
        must recover with both crash invariants intact."""
        config = config_for(name)
        report = powerloss.torture_sweep(
            name, config, ops=ops_for(config),
            cut_points=powerloss.default_cut_points(50))
        assert len(report.outcomes) == 50
        # the sweep must actually exercise crashes, not run to completion
        assert report.cuts_fired == 50

    @pytest.mark.parametrize("name", ("dftl", "tpftl"))
    def test_sweep_is_deterministic(self, name):
        config = config_for(name)
        ops = ops_for(config, count=120)
        cuts = powerloss.default_cut_points(8, start=5, stride=13)
        first = powerloss.torture_sweep(name, config, ops=ops,
                                        cut_points=cuts)
        second = powerloss.torture_sweep(name, config, ops=ops,
                                         cut_points=cuts)
        assert first.outcomes == second.outcomes

    def test_late_cut_point_lets_workload_finish(self, tiny_config):
        ops = ops_for(tiny_config, count=20)
        outcome = powerloss.run_with_cut("dftl", tiny_config, ops,
                                         cut_after=10_000_000)
        assert not outcome.fired
        assert outcome.ops_acknowledged == len(ops)

    def test_acknowledged_ops_grow_with_cut_point(self, tiny_config):
        ops = ops_for(tiny_config, count=200)
        early = powerloss.run_with_cut("dftl", tiny_config, ops, 5)
        late = powerloss.run_with_cut("dftl", tiny_config, ops, 400)
        assert early.fired and late.fired
        assert early.ops_acknowledged <= late.ops_acknowledged


class TestVerification:
    def test_lost_acknowledged_write_detected(self, tiny_config):
        """If an acked write's page is wiped from flash, the verifier
        must notice the contract violation."""
        ftl = make_ftl("optimal", tiny_config)
        ftl.write_page(7)
        ppn = ftl.lookup_current(7)
        ftl.flash.invalidate(ppn)  # forge the loss
        with pytest.raises(FTLError):
            powerloss.verify_crash_state(
                ftl.flash, tiny_config.ssd.logical_pages,
                acked={7: Op.WRITE})

    def test_duplicate_claim_detected(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        ftl.flash.program(PageKind.DATA, meta=3)  # second claim on LPN 3
        with pytest.raises(FTLError):
            powerloss.verify_crash_state(
                ftl.flash, tiny_config.ssd.logical_pages, acked={})

    def test_in_flight_op_is_exempt(self, tiny_config):
        ftl = make_ftl("optimal", tiny_config)
        ftl.write_page(7)
        ppn = ftl.lookup_current(7)
        ftl.flash.invalidate(ppn)
        # same forged loss, but LPN 7 was the op power interrupted
        powerloss.verify_crash_state(
            ftl.flash, tiny_config.ssd.logical_pages,
            acked={7: Op.WRITE}, in_flight_lpn=7)

    def test_resurrected_trim_detected(self, tiny_config):
        ftl = make_ftl("dftl", tiny_config)
        # device is prefilled: LPN 3 is mapped, so an acked TRIM on it
        # reads as resurrected data after the crash
        with pytest.raises(FTLError):
            powerloss.verify_crash_state(
                ftl.flash, tiny_config.ssd.logical_pages,
                acked={3: Op.TRIM})


class TestHelpers:
    def test_default_cut_points_shape(self):
        points = powerloss.default_cut_points(50, start=1, stride=7)
        assert len(points) == 50
        assert points[0] == 1
        assert points[1] - points[0] == 7
        assert len(set(points)) == 50

    def test_default_ops_deterministic_and_in_range(self):
        a = powerloss.default_ops(100, 512, seed=5, trim_ratio=0.1)
        b = powerloss.default_ops(100, 512, seed=5, trim_ratio=0.1)
        assert a == b
        assert all(0 <= lpn < 512 for _, lpn in a)
        assert any(op is Op.TRIM for op, _ in a)
        assert any(op is Op.WRITE for op, _ in a)

    def test_report_properties(self, tiny_config):
        ops = ops_for(tiny_config, count=60)
        report = powerloss.torture_sweep(
            "dftl", tiny_config, ops=ops,
            cut_points=powerloss.default_cut_points(4))
        assert report.cut_points == [1, 8, 15, 22]
        assert 0 <= report.cuts_fired <= 4


class TestInjectorContract:
    def test_power_loss_error_raised_mid_gc_is_clean(self, tiny_config):
        """A cut landing inside GC must still leave scannable flash."""
        ftl = make_ftl("dftl", tiny_config)
        ftl.flash.injector.arm_power_loss(0)
        with pytest.raises(PowerLossError):
            ftl.write_page(0)
        ftl.flash.injector.disarm_power_loss()
        powerloss.verify_crash_state(
            ftl.flash, tiny_config.ssd.logical_pages, acked={})

    @pytest.mark.parametrize("name", ("dftl", "tpftl"))
    def test_cut_inside_the_forced_rewrite_batch(self, name):
        """GC rewrites a victim's translation pages as one batch.  Power
        dies after the first page of a batch was programmed, as the
        second is about to be read: every VTPN still has exactly one
        valid copy (the scan raises on two) and nothing acknowledged is
        lost."""
        ftl = make_ftl(name, GC_HEAVY)
        flash, batches = ftl.flash, []

        def relocate_as_power_dies(ppns, kind):
            if len(ppns) > 1 and not flash.injector.live:
                batches.append((kind, list(ppns)))
                flash.injector.arm_power_loss(2)  # read, program | read
            return type(flash).relocate(flash, ppns, kind)

        flash.relocate = relocate_as_power_dies
        acked = {}
        with pytest.raises(PowerLossError, match="after 2 flash"):
            for _, lpn in powerloss.default_ops(
                    2_000, GC_HEAVY.ssd.logical_pages, write_ratio=1.0):
                ftl.write_page(lpn)
                acked[lpn] = Op.WRITE
        flash.injector.disarm_power_loss()
        (kind, ptpns), = batches
        assert kind is PageKind.TRANSLATION
        # the first page moved, the rest of the batch did not
        assert [flash.block_of(ptpn).meta(flash.offset_of(ptpn)) is None
                for ptpn in ptpns] == [True] + [False] * (len(ptpns) - 1)
        state = powerloss.verify_crash_state(
            flash, GC_HEAVY.ssd.logical_pages, acked, in_flight_lpn=lpn)
        assert len(state.gtd) == ftl.ssd.translation_pages
