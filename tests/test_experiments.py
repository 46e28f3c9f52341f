"""The experiment runners produce well-formed, paper-shaped results.

Runs at a micro scale (a few thousand requests) so the whole module
stays fast.  The paper's orderings live in one table,
``repro.experiments.claims``; the figure tests here assert that none of
an artifact's claims is refuted at micro scale, and EXPERIMENTS.md
records the same verdicts from a small-scale run.
"""

import dataclasses
import itertools
import json
import re

import pytest

from repro.config import TPFTLConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments import EXPERIMENTS, ExperimentResult, run_experiment
from repro.experiments.claims import CLAIMS, evaluate
from repro.experiments.common import (ABLATION_CONFIGS, build_workload,
                                      run_one, simulation_config)
from repro.experiments.runner import (RunSpec, clear_run_caches,
                                      configure_runner, execute_spec,
                                      reset_runner)
from repro.workloads import presets

from golden_cells import MICRO


@pytest.fixture(scope="module", autouse=True)
def _clean_cache():
    clear_run_caches()
    yield
    clear_run_caches()


class TestCommon:
    def test_build_workload_sizes(self):
        fin = build_workload("financial1", MICRO)
        msr = build_workload("msr-ts", MICRO)
        assert fin.logical_pages == 4096
        assert msr.logical_pages == 8192

    def test_simulation_config_cache_rule(self):
        trace = build_workload("financial1", MICRO)
        config = simulation_config(trace)
        assert (config.resolved_cache().budget_bytes
                == config.ssd.paper_cache_bytes())

    def test_simulation_config_fraction(self):
        trace = build_workload("financial1", MICRO)
        config = simulation_config(trace, cache_fraction=0.5)
        assert (config.resolved_cache().budget_bytes
                == config.ssd.full_table_bytes // 2)

    def test_run_one_produces_metrics(self):
        result = run_one("financial1", "dftl", MICRO)
        assert result.metrics.user_page_accesses > 0
        assert result.response.count > 0

    def test_ablation_cell_variants(self):
        assert TPFTLConfig.from_monogram("bc").monogram == "bc"
        assert RunSpec.for_ablation("bc", MICRO).tpftl.monogram == "bc"
        result = execute_spec(RunSpec.for_ablation("dftl", MICRO))
        assert result.ftl_name == "dftl"
        with pytest.raises(ConfigError):
            RunSpec.for_ablation("zz", MICRO)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"table2", "fig1a", "fig1b", "fig2a", "fig2b",
                    "fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
                    "fig6f", "fig7a", "fig7b", "fig7c", "fig8a",
                    "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
                    "fig10"}
        assert expected <= set(EXPERIMENTS)
        assert "modelcheck" in EXPERIMENTS  # extension
        assert "faults" in EXPERIMENTS  # extension

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99", MICRO)


def claims_hold(experiment_id):
    """Run one artifact at micro scale; none of its claims may be ✗."""
    result = run_experiment(experiment_id, MICRO)
    assert result.verdicts, experiment_id
    assert "✗" not in [v.mark for v in result.verdicts], result.render()
    return result


def holds(experiment_id):
    """A test method whose whole body is :func:`claims_hold`."""
    def test(self):
        claims_hold(experiment_id)
    return test


class TestHeadlineShapes:
    """The paper's directional claims at micro scale."""

    test_fig6a_tpftl_prd_lowest_demand_based = holds("fig6a")
    test_fig6b_tpftl_beats_dftl = holds("fig6b")
    test_fig6d_tpftl_reduces_translation_writes = holds("fig6d")
    test_fig6e_tpftl_not_slower_than_dftl = holds("fig6e")
    test_fig6f_wa_ordering = holds("fig6f")
    test_table2_deviations_positive = holds("table2")
    test_fig7a_tpftl_erases_fewer_blocks = holds("fig7a")


class TestObservationFigures:
    test_fig1a_entries_well_below_page_capacity = holds("fig1a")
    test_fig2b_series_collected = holds("fig2b")

    def test_fig1b_multi_dirty_pages_exist(self):
        for payload in claims_hold("fig1b").data.values():
            assert payload["cdf"]  # non-empty CDF

    def test_fig2a_density_map_rendered(self):
        assert claims_hold("fig2a").data["requests"] == MICRO.num_requests


class TestAblationAndSweeps:
    test_fig7c_prefetching_helps_hit_ratio = holds("fig7c")
    test_fig8a_complete_tpftl_beats_dftl = holds("fig8a")
    test_fig8c_prd_vanishes_with_full_cache = holds("fig8c")
    test_fig9a_hit_ratio_improves_with_cache = holds("fig9a")
    test_fig9c_wa_shrinks_with_cache = holds("fig9c")
    test_fig10_improvement_bounded = holds("fig10")

    def test_fig7b_batch_update_cuts_prd(self):
        assert set(claims_hold("fig7b").data) == set(ABLATION_CONFIGS)


class TestClaimsTable:
    """The table itself: coverage, floors, failure modes, rendering."""

    def test_every_paper_artifact_has_a_referenced_claim(self):
        paper = [i for i in EXPERIMENTS
                 if i == "table2" or i.startswith("fig")]
        assert len(paper) == 21 and set(paper) <= set(CLAIMS)
        assert set(CLAIMS) <= set(EXPERIMENTS)
        rows = list(itertools.chain.from_iterable(CLAIMS.values()))
        for claim in rows:
            assert re.search(r"(Fig \d+[a-f]?|Table \d+)$", claim.ref)
            assert claim.text and "\n" not in claim.text
        assert len([c for c in rows if c.min_requests]) == 5

    @pytest.mark.parametrize("experiment_id", CLAIMS)
    def test_micro_scale_passes_every_row_above_its_floor(
            self, experiment_id):
        """Every artifact, including those without a named test above
        (Fig 6c, 8b, 9b, the threshold sweep): all ✓ but the floored."""
        verdicts = run_experiment(experiment_id, MICRO).verdicts
        assert [v.mark for v in verdicts] == [
            "n/a" if claim.min_requests > MICRO.num_requests else "✓"
            for claim in CLAIMS[experiment_id]], verdicts

    def test_doctored_result_is_refuted(self):
        result = run_experiment("fig6a", MICRO)
        assert {v.mark for v in result.verdicts} == {"✓"}
        for row in result.data.values():
            row["tpftl"], row["dftl"] = row["dftl"], row["tpftl"]
        marks = {v.text: v.mark for v in evaluate(result, MICRO)}
        assert marks["TPFTL's Prd is below DFTL's"] == "✗"
        assert marks["optimal never replaces a dirty entry"] == "✓"

    def test_floor_decides_between_na_and_a_verdict(self):
        result = run_experiment("fig7c", MICRO)
        index, = [n for n, claim in enumerate(CLAIMS["fig7c"])
                  if claim.min_requests]
        floor = CLAIMS["fig7c"][index].min_requests
        assert result.verdicts[index].mark == "n/a"
        assert str(floor) in result.verdicts[index].detail
        # micro's 's' bar equals '-' to the digit: judged, it is refuted
        judged = evaluate(
            result, dataclasses.replace(MICRO, num_requests=floor))[index]
        assert (judged.mark, judged.detail) == ("✗", "")

    def test_table2_floor_spares_short_runs_a_false_refutation(self):
        """CI's chaos matrix runs Table 2 on 2 000 requests, where the
        small geometry's DFTL is not yet 5% behind on msr-src: the row
        reads n/a, not ✗.  Judged, micro's own devices still pass it."""
        result = run_experiment("table2", MICRO)
        floor = CLAIMS["table2"][0].min_requests
        assert 2_000 < floor
        assert [(v.mark, v.detail) for v in result.verdicts] == [
            ("n/a", f"needs >= {floor} requests, ran 2500"), ("✓", "")]
        judged = evaluate(
            result, dataclasses.replace(MICRO, num_requests=floor))
        assert [v.mark for v in judged] == ["✓", "✓"]

    def test_raising_predicate_is_refuted_with_the_exception_text(
            self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "fig6a", lambda scale: ExperimentResult(
                "fig6a", "malformed", ["Workload"], [],
                data={"financial1": {"dftl": 0.5}}))
        verdicts = run_experiment("fig6a", MICRO).verdicts
        assert [v.mark for v in verdicts] == ["✗"] * 4
        assert verdicts[0].detail == "KeyError: 'tpftl'"

    def test_render_and_json_carry_the_verdicts(self):
        result = run_experiment("fig7c", MICRO)
        lines = result.render().splitlines()
        count = len(result.verdicts)
        assert lines[-count - 1].startswith("paper:")
        assert lines[-count:] == [v.line() for v in result.verdicts]
        assert lines[-count].startswith("✓ Fig 7c: ")
        assert lines[-count + 1].startswith("n/a Fig 7c: ")
        assert json.loads(result.to_json())["claims"] == [
            v._asdict() for v in result.verdicts]


class TestRendering:
    def test_render_includes_title_and_rows(self):
        result = run_experiment("table2", MICRO)
        text = result.render()
        assert "[table2]" in text
        assert "financial1" in text
        assert "paper:" in text


class TestExtensionExperiments:
    def test_modelcheck_runs(self):
        result = run_experiment("modelcheck", MICRO)
        assert result.rows
        for row in result.rows:
            modeled_wa, measured_wa = row[2], row[3]
            assert modeled_wa >= 1.0
            assert measured_wa >= 1.0

    def test_modelcheck_on_a_warm_cache_builds_no_trace(
            self, tmp_path, monkeypatch):
        """The model's device size comes from the scale, not from a
        synthesised trace: served from the run cache, modelcheck
        generates no workload at all."""
        built = []

        def counted(builder):
            return lambda **kwargs: built.append(kwargs) or builder(**kwargs)

        configure_runner(jobs=1, cache_dir=tmp_path)
        try:
            cold = run_experiment("modelcheck", MICRO)
            clear_run_caches()
            for name, builder in list(presets._PRESETS.items()):
                monkeypatch.setitem(presets._PRESETS, name, counted(builder))
            warm = run_experiment("modelcheck", MICRO)
        finally:
            reset_runner()
        assert built == []
        assert warm.to_json() == cold.to_json()

    def test_threshold_sweep_runs(self):
        result = run_experiment("threshold-sweep", MICRO)
        cells = result.data["cells"]
        assert ("msr-ts", 3) in cells
        for payload in cells.values():
            assert 0.0 <= payload["hit_ratio"] <= 1.0
            assert 0.0 <= payload["accuracy"] <= 1.0

    def test_channels_sweep_runs(self):
        result = run_experiment("channels", MICRO)
        assert len(result.rows) == 8  # 2 FTLs x 4 channel counts
        trajectory = result.data["trajectory"]
        assert [t["channels"] for t in trajectory] == [1, 2, 4, 8] * 2
        for record in trajectory:
            assert record["mean_response_us"] > 0.0
            assert 0.0 <= record["gc_time_fraction"] < 1.0
            assert (record["mean_queue_delay_us"]
                    + record["mean_service_us"]
                    == pytest.approx(record["mean_response_us"]))
        # more channels never slow the mean response down
        for ftl_rows in (trajectory[:4], trajectory[4:]):
            means = [t["mean_response_us"] for t in ftl_rows]
            assert means == sorted(means, reverse=True) or \
                all(m <= means[0] for m in means)
        # the 1-channel cell is the paper's model: same digest space as
        # the Fig 6 matrix, so speedups anchor at exactly 1.0
        assert trajectory[0]["speedup_vs_1ch"] == 1.0

    def test_channels_sweep_is_bench_shaped(self):
        result = run_experiment("channels", MICRO)
        assert result.data["bench"] == "channels"
        assert result.data["channel_sweep"] == [1, 2, 4, 8]
        assert result.data["workload"] == "financial1"

    def test_faults_runs(self):
        from repro.ftl import FTL_NAMES
        result = run_experiment("faults", MICRO)
        assert len(result.rows) == len(FTL_NAMES)
        for row in result.rows:
            assert row[-1] in ("healthy", "worn out")
        power = result.data["powerloss"]
        assert set(power) == set(FTL_NAMES)
        for payload in power.values():
            # every cut point in the sweep fired and was verified
            assert payload["cut_points"] >= 50
            assert payload["cuts_fired"] == payload["cut_points"]
