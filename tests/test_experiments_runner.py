"""The parallel experiment runner and its persistent run cache.

Everything here runs at a deliberately tiny scale (hundreds of requests
on KB-sized devices) so the whole module — including the real
process-pool fan-out — stays fast.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import warnings

import pytest

from repro.config import TPFTLConfig
from repro.errors import ConfigError, ExperimentError, MatrixFailureError
from repro.experiments import ExperimentScale
from repro.experiments import runner as runner_module
from repro.experiments.common import run_matrix, run_one
from repro.experiments.runner import (CACHE_SCHEMA, ParallelRunner,
                                      RunCache, RunSpec, clear_run_caches,
                                      configure_runner, decode_result,
                                      encode_result, execute_spec,
                                      get_runner, reset_runner,
                                      resolve_jobs)
from repro.experiments.supervisor import Supervisor
from repro.workloads import presets

TINY = ExperimentScale(
    name="tiny", num_requests=900, warmup_requests=200,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=300)


@pytest.fixture(autouse=True)
def _fresh_default_runner(tmp_path):
    """Point the default runner at a throwaway cache for every test."""
    configure_runner(jobs=1, cache_dir=tmp_path / "default-cache")
    yield
    reset_runner()
    clear_run_caches()


def tiny_spec(**overrides) -> RunSpec:
    params = dict(workload="financial1", ftl="dftl", scale=TINY,
                  sample_interval=300)
    params.update(overrides)
    return RunSpec(**params)


class TestRunSpecDigest:
    def test_digest_stable_for_equal_specs(self):
        assert tiny_spec().digest == tiny_spec().digest

    def test_digest_changes_with_every_field(self):
        base = tiny_spec()
        variants = [
            tiny_spec(workload="msr-ts"),
            tiny_spec(ftl="tpftl"),
            tiny_spec(scale=dataclasses.replace(TINY, num_requests=901)),
            tiny_spec(cache_fraction=0.5),
            tiny_spec(tpftl=TPFTLConfig.from_monogram("bc")),
            tiny_spec(seed=99),
            tiny_spec(sample_interval=0),
            tiny_spec(channels=4),
        ]
        digests = {base.digest} | {spec.digest for spec in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_survives_pickling_shape(self):
        # canonical() must stay JSON-serialisable (the digest contract)
        text = json.dumps(tiny_spec().canonical(), sort_keys=True)
        assert "financial1" in text

    def test_scale_list_fractions_normalised(self):
        # regression: a list-built scale used to make the spec (and the
        # old _MATRIX_CACHE key) unhashable
        listy = ExperimentScale(name="tiny", num_requests=900,
                                warmup_requests=200,
                                financial_pages=2048, msr_pages=4096,
                                cache_fractions=[1 / 32, 1.0],
                                sample_interval=300)
        assert listy.cache_fractions == (1 / 32, 1.0)
        assert hash(listy) == hash(TINY)
        assert tiny_spec(scale=listy).digest == tiny_spec().digest
        assert {listy: "ok"}[TINY] == "ok"

    def test_channel_spec_labelled_and_executed(self):
        spec = tiny_spec(channels=4)
        assert "ch=4" in spec.label()
        assert "ch=" not in tiny_spec().label()
        result = execute_spec(spec)
        assert result.channels == 4

    def test_ablation_spec_builder(self):
        dftl = RunSpec.for_ablation("dftl", TINY)
        bare = RunSpec.for_ablation("-", TINY)
        assert dftl.ftl == "dftl" and dftl.tpftl is None
        assert bare.ftl == "tpftl"
        assert bare.tpftl.monogram == "-"


class TestResultCodec:
    def test_cache_round_trip_equals_fresh_run(self):
        spec = tiny_spec()
        fresh = execute_spec(spec)
        decoded = decode_result(encode_result(fresh))
        # field-for-field: dataclass equality covers metrics, response
        # (including samples), sampler and the faults dict
        assert decoded == fresh
        assert decoded.metrics == fresh.metrics
        assert decoded.response == fresh.response
        assert decoded.sampler == fresh.sampler
        assert decoded.summary() == fresh.summary()

    def test_round_trip_through_json_text(self):
        fresh = execute_spec(tiny_spec())
        decoded = decode_result(
            json.loads(json.dumps(encode_result(fresh))))
        assert decoded == fresh

    def test_dirty_histogram_keys_restored_as_ints(self):
        fresh = execute_spec(tiny_spec())
        assert fresh.sampler is not None
        decoded = decode_result(
            json.loads(json.dumps(encode_result(fresh))))
        assert all(isinstance(k, int)
                   for k in decoded.sampler.dirty_histogram)

    def test_idle_gc_keys_stay_constant_and_old_entries_decode(self):
        """Idle-time GC left ``RunResult``, but its two keys stay in the
        encoding as constants: an entry written before (the same keys,
        0.0 / 0 on every run without idle GC) decodes to the same
        result, and the bytes every digest hashes do not move."""
        fresh = execute_spec(tiny_spec())
        payload = json.loads(json.dumps(encode_result(fresh)))
        assert payload["background_gc_time_us"] == 0.0
        assert isinstance(payload["background_gc_time_us"], float)
        assert payload["background_collections"] == 0
        assert isinstance(payload["background_collections"], int)
        decoded = decode_result(payload)
        assert decoded == fresh
        assert decoded.summary() == fresh.summary()
        # an entry from a run that collected at idle time: the keys are
        # read by nothing, so the summary is the foreground one
        payload.update(background_gc_time_us=1_500.0,
                       background_collections=1)
        assert decode_result(payload).summary() == fresh.summary()


class TestRunCache:
    def test_persists_across_cache_instances(self, tmp_path):
        spec = tiny_spec()
        result = execute_spec(spec)
        RunCache(tmp_path).put(spec, result, 1.5)
        entry = RunCache(tmp_path).get(spec)
        assert entry is not None
        assert entry[0] == result
        assert entry[1] == 1.5

    def test_corrupt_file_is_quarantined_not_fatal(self, tmp_path):
        spec = tiny_spec()
        cache = RunCache(tmp_path)
        cache.put(spec, execute_spec(spec), 0.1)
        path = tmp_path / f"{spec.digest}.json"
        path.write_text("{ not json", encoding="utf-8")
        fresh_cache = RunCache(tmp_path)
        assert fresh_cache.get(spec) is None
        assert fresh_cache.stats()["corrupt"] == 1
        assert fresh_cache.invalid == 0
        # the evidence is moved aside, not clobbered by a recompute
        assert not path.exists()
        quarantined = tmp_path / RunCache.CORRUPT_DIR / path.name
        assert quarantined.read_text(encoding="utf-8") == "{ not json"

    def test_stale_schema_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        cache = RunCache(tmp_path)
        cache.put(spec, execute_spec(spec), 0.1)
        path = tmp_path / f"{spec.digest}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert RunCache(tmp_path).get(spec) is None

    def test_stale_fingerprint_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        cache = RunCache(tmp_path)
        cache.put(spec, execute_spec(spec), 0.1)
        path = tmp_path / f"{spec.digest}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert RunCache(tmp_path).get(spec) is None

    def test_wipe_removes_entries(self, tmp_path):
        spec = tiny_spec()
        cache = RunCache(tmp_path)
        cache.put(spec, execute_spec(spec), 0.1)
        assert cache.wipe() == 1
        assert list(tmp_path.glob("*.json")) == []

    def test_wipe_includes_quarantined_files(self, tmp_path):
        spec = tiny_spec()
        cache = RunCache(tmp_path)
        cache.put(spec, execute_spec(spec), 0.1)
        other = tiny_spec(ftl="tpftl")
        cache.put(other, execute_spec(other), 0.1)
        (tmp_path / f"{spec.digest}.json").write_text("torn",
                                                      encoding="utf-8")
        fresh = RunCache(tmp_path)
        assert fresh.get(spec) is None  # quarantines the torn file
        stats = fresh.stats()
        assert stats == {"hits": 0, "misses": 1, "stores": 0,
                         "invalid": 0, "corrupt": 1, "write_errors": 0}
        assert fresh.wipe() == 2  # the healthy entry + the quarantined one
        assert list(tmp_path.glob("*.json")) == []
        assert list((tmp_path / RunCache.CORRUPT_DIR).glob("*.json")) == []

    def test_unwritable_directory_counts_and_warns_once(self, tmp_path):
        # a file where the cache directory should be: every mkdir in
        # put() raises FileExistsError (an OSError), like a read-only
        # or otherwise broken results volume would
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        cache = RunCache(blocker)
        spec = tiny_spec()
        result = execute_spec(spec)
        with pytest.warns(RuntimeWarning, match="not.*writable"):
            cache.put(spec, result, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second put must stay silent
            cache.put(tiny_spec(ftl="tpftl"), result, 0.1)
        assert cache.stats()["write_errors"] == 2
        assert cache.stores == 0
        assert cache.get(spec) is None  # nothing persisted: a miss


class TestParallelRunner:
    def test_parallel_equals_serial_for_fixed_seed(self, tmp_path):
        specs = [tiny_spec(ftl="dftl"), tiny_spec(ftl="tpftl"),
                 tiny_spec(workload="msr-ts", ftl="tpftl")]
        serial = ParallelRunner(jobs=1, cache=None).run_specs(specs)
        parallel = ParallelRunner(jobs=2, cache=None).run_specs(specs)
        for s, p in zip(serial, parallel):
            assert s == p
            assert s.metrics.hit_ratio == p.metrics.hit_ratio
            assert s.metrics.total_erases == p.metrics.total_erases
            assert s.response.mean == p.response.mean

    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        specs = [tiny_spec(ftl="dftl"), tiny_spec(ftl="tpftl")]
        cold = ParallelRunner(jobs=2, cache=RunCache(tmp_path))
        cold_results = cold.run_specs(specs)
        assert cold.cache.stats()["misses"] == 2
        warm = ParallelRunner(jobs=2, cache=RunCache(tmp_path))
        warm_results = warm.run_specs(specs)
        stats = warm.cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 0
        assert warm_results == cold_results
        assert all(o.cached for o in warm.outcomes)

    def test_duplicate_specs_simulated_once(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=RunCache(tmp_path))
        results = runner.run_specs([tiny_spec(), tiny_spec()])
        assert results[0] is results[1]
        assert runner.cache.stats()["misses"] == 1

    def test_scale_that_measures_nothing_is_refused_before_any_cell(
            self, tmp_path, monkeypatch):
        """A warmup that leaves no request to measure fails the batch
        once, before any cell is looked up, spawned or cached."""
        executed = []
        monkeypatch.setattr(runner_module, "_timed_execute",
                            lambda spec: executed.append(spec))
        runner = ParallelRunner(jobs=2, cache=RunCache(tmp_path))
        empty = dataclasses.replace(TINY, warmup_requests=TINY.num_requests)
        with pytest.raises(ConfigError, match=r"warmup must lie in "
                                              r"\[0, 900\) .* \(got 900\)"):
            runner.run_specs([tiny_spec(), tiny_spec(scale=empty),
                              tiny_spec(ftl="tpftl", scale=empty)])
        assert executed == []
        assert runner.outcomes == [] and runner.failures == []
        assert not any(runner.cache.stats().values())
        assert list(tmp_path.iterdir()) == []

    def test_map_parallel_matches_serial(self):
        items = [(3,), (-4,), (5,)]
        assert (ParallelRunner(jobs=2).map(abs, items)
                == ParallelRunner(jobs=1).map(abs, items)
                == [3, 4, 5])

    def test_bench_report_shape(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=RunCache(tmp_path))
        runner.run_specs([tiny_spec()])
        runner.run_specs([tiny_spec()])  # warm: a hit
        report = runner.bench_report()
        assert report["bench"] == "runner"
        assert report["totals"]["cells"] == 2
        assert report["totals"]["cache_hits"] == 1
        assert report["totals"]["wall_clock_s"] > 0
        assert len(report["cells"]) == 2
        assert {"digest", "label", "elapsed_s", "cached"} \
            <= set(report["cells"][0])
        target = runner.write_bench(tmp_path / "BENCH_runner.json")
        assert json.loads(target.read_text())["totals"]["cells"] == 2

    def test_serial_equivalent_counts_executed_cells_only(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(ftl="tpftl")]
        cold = ParallelRunner(jobs=1, cache=RunCache(tmp_path))
        cold.run_specs(specs)
        totals = cold.bench_report()["totals"]
        assert totals["cache_misses"] == 2
        assert 0 < totals["serial_equivalent_s"] <= totals["wall_clock_s"]
        warm = ParallelRunner(jobs=1, cache=RunCache(tmp_path))
        warm.run_specs(specs)
        totals = warm.bench_report()["totals"]
        assert totals["cache_hits"] == 2
        assert totals["serial_equivalent_s"] == 0

    def test_forked_batch_builds_each_trace_once_in_the_parent(
            self, tmp_path, monkeypatch):
        """Under ``fork`` the parent builds every distinct trace of a
        batch before it starts a worker, so the workers synthesise
        nothing: a preset that raises on its second build in any
        process still serves a three-cell jobs=2 batch, with the jobs=1
        results."""
        specs = [tiny_spec(ftl=ftl) for ftl in ("dftl", "tpftl", "optimal")]
        serial = ParallelRunner(jobs=1, cache=None)
        expected = serial.run_specs(specs)
        assert [o.trace_built for o in serial.outcomes] == [
            True, False, False]
        clear_run_caches()
        real = presets._PRESETS["financial1"]
        log = tmp_path / "builds"
        log.touch()

        def build_once(**kwargs):
            # the log is shared by the parent and every forked worker
            if log.read_text():
                raise RuntimeError("financial1 built twice")
            log.write_text(f"{os.getpid()}\n")
            return real(**kwargs)

        monkeypatch.setitem(presets._PRESETS, "financial1", build_once)
        forked = ParallelRunner(jobs=2, cache=None)
        forked._supervisor = Supervisor(
            jobs=2, mp_context=multiprocessing.get_context("fork"))
        assert forked._supervisor.forks_workers
        results = forked.run_specs(specs)
        assert not forked.failures
        assert log.read_text() == f"{os.getpid()}\n"
        assert not any(o.trace_built for o in forked.outcomes)
        assert ([json.dumps(encode_result(r), sort_keys=True)
                 for r in results]
                == [json.dumps(encode_result(r), sort_keys=True)
                    for r in expected])

    def test_forked_batch_quarantines_a_trace_that_cannot_be_built(self):
        """A trace the parent fails to build is left to its worker, which
        fails the same way: the cell is quarantined, the rest run."""
        runner = ParallelRunner(jobs=2, cache=None)
        runner._supervisor = Supervisor(
            jobs=2, mp_context=multiprocessing.get_context("fork"))
        with pytest.raises(MatrixFailureError):
            runner.run_specs(
                [tiny_spec(workload="no-such-preset"), tiny_spec()])
        assert [o.failed for o in runner.outcomes] == [True, False]
        assert [f.error_type for f in runner.failures] == ["WorkloadError"]

    def test_spawned_workers_synthesise_their_own_traces(self):
        """A spawned worker starts from a fresh interpreter, so the
        runner builds nothing ahead of it; neither does an inline
        (jobs=1) batch, whose one process memoises as it goes."""
        spawn = multiprocessing.get_context("spawn")
        assert not Supervisor(jobs=2, mp_context=spawn).forks_workers
        assert not Supervisor(jobs=1).forks_workers

    def test_jobs_resolution(self, monkeypatch):
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1
        with pytest.raises(ExperimentError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ExperimentError):
            resolve_jobs()

    @pytest.mark.parametrize("value", ["", "   "])
    def test_blank_jobs_env_means_serial(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("value", ["abc", "2.5", "0x4", "two"])
    def test_malformed_jobs_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ExperimentError, match="must be an integer"):
            resolve_jobs()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_jobs_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ExperimentError, match="must be >= 1"):
            resolve_jobs()


class TestDefaultRunnerIntegration:
    def test_run_matrix_served_from_cache_on_rerun(self):
        matrix = run_matrix(TINY, workloads=("financial1",),
                            ftls=("dftl", "tpftl"))
        runner = get_runner()
        assert runner.cache.stats()["misses"] == 2
        again = run_matrix(TINY, workloads=("financial1",),
                           ftls=("dftl", "tpftl"))
        assert runner.cache.stats()["misses"] == 2  # no new simulations
        assert again == matrix

    def test_run_one_routes_through_cache(self):
        first = run_one("financial1", "dftl", TINY)
        second = run_one("financial1", "dftl", TINY)
        assert first == second
        assert get_runner().cache.stats()["hits"] >= 1

    def test_clear_run_caches_clears_memory_only(self):
        run_one("financial1", "dftl", TINY)
        runner = get_runner()
        assert runner_module._TRACE_MEMO
        clear_run_caches()
        assert not runner_module._TRACE_MEMO
        # disk level still warm: rerun is a hit, not a simulation
        misses_before = runner.cache.stats()["misses"]
        run_one("financial1", "dftl", TINY)
        assert runner.cache.stats()["misses"] == misses_before
