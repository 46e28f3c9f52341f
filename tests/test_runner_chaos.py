"""Chaos harness for the supervised runner.

Injects worker crashes, hangs, deterministic and transient exceptions,
SIGINT and corrupt cache files into real (tiny) matrices via the
env-gated ``REPRO_CHAOS`` hook, and asserts the supervision contract:
transient faults are retried with seeded backoff, stuck workers are
killed by the watchdog and requeued, persistent failures become
structured :class:`~repro.errors.CellFailure` records instead of
escaped tracebacks, completed cells are committed to the run cache the
moment they finish, and an interrupted matrix resumes to full
completion with every previously completed cell served from cache.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (CellFailure, ExperimentError,
                          MatrixFailureError, RunnerError)
from repro.experiments import ExperimentScale
from repro.experiments.runner import (ParallelRunner, RunCache, RunSpec,
                                      clear_run_caches, configure_runner,
                                      reset_runner)
from repro.experiments.supervisor import (CHAOS_ENV, JOURNAL_NAME,
                                          Journal, RetryPolicy,
                                          Supervisor, Task)

SRC = str(Path(__file__).resolve().parent.parent / "src")

TINY = ExperimentScale(
    name="tiny", num_requests=600, warmup_requests=100,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=300)

#: fast backoff so the whole chaos suite stays in seconds
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_factor=2.0, backoff_max_s=0.05)


@pytest.fixture(autouse=True)
def _fresh_default_runner(tmp_path):
    """Isolate the default runner; never leak chaos into other tests."""
    configure_runner(jobs=1, cache_dir=tmp_path / "default-cache")
    yield
    reset_runner()
    clear_run_caches()


def tiny_spec(**overrides) -> RunSpec:
    params = dict(workload="financial1", ftl="dftl", scale=TINY,
                  sample_interval=300)
    params.update(overrides)
    return RunSpec(**params)


def arm_chaos(tmp_path, monkeypatch, rules) -> Path:
    """Write a chaos plan and point ``REPRO_CHAOS`` at it."""
    plan = tmp_path / "chaos-plan.json"
    plan.write_text(json.dumps(rules), encoding="utf-8")
    monkeypatch.setenv(CHAOS_ENV, str(plan))
    return plan


class TestRetryPolicy:
    def test_jitter_is_seeded_and_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s("cell", 1) == policy.delay_s("cell", 1)
        assert policy.delay_s("cell", 1) != policy.delay_s("cell", 2)
        assert policy.delay_s("cell", 1) != policy.delay_s("other", 1)
        assert (RetryPolicy(seed=8).delay_s("cell", 1)
                != policy.delay_s("cell", 1))

    def test_backoff_grows_and_is_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.4, jitter=0.0)
        delays = [policy.delay_s("k", attempt)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]
        jittered = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.4,
                               jitter=0.5)
        assert all(jittered.delay_s("k", a) <= 0.4 * 1.5
                   for a in range(1, 8))

    def test_invalid_policies_rejected(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExperimentError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ExperimentError):
            RetryPolicy(jitter=-0.1)


class TestJournal:
    def test_load_missing_file_is_empty(self, tmp_path):
        state = Journal.load(tmp_path / "nope.jsonl")
        assert state.events == 0 and not state.interrupted

    def test_rotation_vs_resume(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        Journal(path).record("done", key="a", label="a", attempts=1,
                             elapsed_s=0.1)
        # fresh session rotates; the old event is gone
        fresh = Journal(path)
        assert Journal.load(path).events == 0
        fresh.record("done", key="b", label="b", attempts=1,
                     elapsed_s=0.1)
        # resume appends and replays the prior state
        resumed = Journal(path, resume=True)
        assert "b" in resumed.prior.completed
        state = Journal.load(path)
        assert state.events >= 2  # done + resume marker

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = Journal(path)
        journal.record("done", key="a", label="a", attempts=1,
                       elapsed_s=0.1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "key": "torn')  # torn write
        state = Journal.load(path)
        assert state.corrupt_lines == 1
        assert "a" in state.completed

    def test_failed_then_done_counts_as_completed(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = Journal(path)
        journal.record("failed", key="a",
                       failure={"key": "a", "label": "a"})
        journal.record("done", key="a", label="a", attempts=2,
                       elapsed_s=0.1)
        state = Journal.load(path)
        assert "a" in state.completed and "a" not in state.failed


class TestWorkerCrash:
    def test_crashed_worker_is_retried_to_success(self, tmp_path,
                                                  monkeypatch):
        clean = ParallelRunner(jobs=2, cache=None).run_specs(
            [tiny_spec(), tiny_spec(ftl="tpftl")])
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "crash",
             "attempts": [1]}])
        journal = Journal(tmp_path / JOURNAL_NAME)
        runner = ParallelRunner(jobs=2, cache=RunCache(tmp_path / "rc"),
                                retry=FAST_RETRY, journal=journal)
        results = runner.run_specs([tiny_spec(), tiny_spec(ftl="tpftl")])
        assert results == clean  # determinism survives the retry
        report = runner.bench_report()
        assert report["totals"]["retries"] == 1
        assert report["totals"]["failed"] == 0
        crashed = next(o for o in runner.outcomes
                       if o.label == "financial1:dftl")
        assert crashed.attempts == 2 and not crashed.failed
        events = [json.loads(line) for line in
                  (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        retry = next(e for e in events if e["event"] == "retry")
        assert retry["error_type"] == "WorkerCrashError"


class TestWatchdog:
    def test_hung_cell_is_killed_and_requeued(self, tmp_path,
                                              monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "hang", "seconds": 60,
             "attempts": [1]}])
        journal = Journal(tmp_path / JOURNAL_NAME)
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY,
                                timeout_s=2.0, journal=journal)
        started = time.monotonic()  # tp: allow=TP002 - harness timing
        results = runner.run_specs([tiny_spec()])
        elapsed = time.monotonic() - started  # tp: allow=TP002 - harness timing
        assert results[0] is not None
        assert elapsed < 30  # killed at ~2s, nowhere near the 60s hang
        assert runner.outcomes[-1].attempts == 2
        events = [json.loads(line) for line in
                  (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        retry = next(e for e in events if e["event"] == "retry")
        assert retry["error_type"] == "CellTimeoutError"

    def test_watchdog_requires_positive_timeout(self):
        with pytest.raises(ExperimentError):
            Supervisor(jobs=1, timeout_s=0.0)


class TestQuarantine:
    def test_deterministic_failure_not_retried(self, tmp_path,
                                               monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"}])
        cache = RunCache(tmp_path / "rc")
        runner = ParallelRunner(jobs=2, cache=cache, retry=FAST_RETRY)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs([tiny_spec(), tiny_spec(ftl="tpftl")])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 1  # deterministic: no retry budget
        assert not failure.transient
        assert "chaos" in failure.message
        assert failure.traceback  # full traceback captured, not escaped
        # the healthy cell completed and was committed before the raise
        assert cache.stats()["stores"] == 1
        assert isinstance(excinfo.value, RunnerError)
        assert isinstance(excinfo.value, ExperimentError)

    def test_transient_failure_exhausts_attempt_budget(self, tmp_path,
                                                       monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "oserror"}])
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs([tiny_spec()])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "OSError"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.transient

    def test_allow_failures_returns_none_slots(self, tmp_path,
                                               monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"}])
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY)
        results = runner.run_specs(
            [tiny_spec(), tiny_spec(ftl="tpftl")], allow_failures=True)
        assert results[0] is None
        assert results[1] is not None
        assert len(runner.failures) == 1
        report = runner.bench_report()
        assert report["totals"]["failed"] == 1
        assert report["failures"][0]["label"] == "financial1:dftl"
        failed_cell = next(c for c in report["cells"] if c["failed"])
        assert failed_cell["label"] == "financial1:dftl"

    def test_failure_manifest_round_trips(self, tmp_path, monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"}])
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY)
        runner.run_specs([tiny_spec()], allow_failures=True)
        target = runner.write_failure_manifest(tmp_path / "manifest.json")
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["manifest"] == "runner-failures"
        assert payload["failed"] == 1
        restored = CellFailure.from_payload(payload["failures"][0])
        assert restored == runner.failures[0]
        assert "RuntimeError" in restored.summary()

    def test_fail_fast_abandons_remaining_cells(self, tmp_path,
                                                monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"}])
        cache = RunCache(tmp_path / "rc")
        runner = ParallelRunner(jobs=1, cache=cache, retry=FAST_RETRY,
                                fail_fast=True)
        results = runner.run_specs(
            [tiny_spec(), tiny_spec(ftl="tpftl")], allow_failures=True)
        assert results == [None, None]  # second cell abandoned
        assert len(runner.failures) == 1
        assert cache.stats()["stores"] == 0

    def test_fail_fast_with_parallel_workers_still_running(
            self, tmp_path, monkeypatch):
        # the quarantined cell settles while a sibling worker is still
        # alive: fail-fast must terminate it mid-_poll without the
        # stale running-table snapshot blowing up (KeyError regression)
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"},
            {"match": "financial1:tpftl", "mode": "hang",
             "seconds": 120}])
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY,
                                fail_fast=True)
        started = time.monotonic()  # tp: allow=TP002 - harness timing
        results = runner.run_specs(
            [tiny_spec(), tiny_spec(ftl="tpftl")], allow_failures=True)
        elapsed = time.monotonic() - started  # tp: allow=TP002 - harness timing
        assert results == [None, None]
        assert len(runner.failures) == 1
        assert runner.failures[0].label == "financial1:dftl"
        assert elapsed < 60  # hung sibling was killed, not waited out

    def test_fail_fast_parallel_raises_structured_error(
            self, tmp_path, monkeypatch):
        # without allow_failures the same scenario must surface as a
        # MatrixFailureError (caught by the CLI), never a raw KeyError
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "raise"},
            {"match": "financial1:tpftl", "mode": "hang",
             "seconds": 120}])
        runner = ParallelRunner(jobs=2, cache=None, retry=FAST_RETRY,
                                fail_fast=True)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs([tiny_spec(), tiny_spec(ftl="tpftl")])
        assert excinfo.value.failures[0].label == "financial1:dftl"


class TestMapSupervision:
    def test_map_retries_transient_failures(self, tmp_path,
                                            monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "abs[0]", "mode": "oserror", "attempts": [1]}])
        runner = ParallelRunner(jobs=2, retry=FAST_RETRY)
        assert runner.map(abs, [(3,), (-4,), (5,)]) == [3, 4, 5]

    def test_map_quarantines_persistent_failures(self, tmp_path,
                                                 monkeypatch):
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "abs[1]", "mode": "raise"}])
        runner = ParallelRunner(jobs=2, retry=FAST_RETRY)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.map(abs, [(3,), (-4,), (5,)])
        assert excinfo.value.failures[0].label == "abs[1]"

    def test_map_serial_no_watchdog_propagates_raw(self, tmp_path,
                                                   monkeypatch):
        # jobs=1 without a watchdog is the historical plain loop
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "anything", "mode": "raise"}])
        runner = ParallelRunner(jobs=1)
        with pytest.raises(TypeError):
            runner.map(abs, [("not a number",)])


class _BrokenContext:
    """A multiprocessing context whose process spawns always fail."""

    def Pipe(self, duplex=True):
        return multiprocessing.get_context().Pipe(duplex)

    def Process(self, *args, **kwargs):
        raise OSError("chaos: process spawn refused")


def _double(value):
    """Module-level helper task (picklable) for supervisor tests."""
    return value * 2


class TestDegradeToSerial:
    def test_repeated_spawn_failure_degrades_not_dies(self, tmp_path):
        journal = Journal(tmp_path / JOURNAL_NAME)
        supervisor = Supervisor(jobs=2, timeout_s=5.0, retry=FAST_RETRY,
                                journal=journal,
                                mp_context=_BrokenContext())
        tasks = [Task(key=f"t{i}", label=f"t{i}", fn=_double,
                      args=(i,)) for i in range(4)]
        report = supervisor.run(tasks)
        assert report.results == {f"t{i}": i * 2 for i in range(4)}
        assert report.degraded and supervisor.degraded
        assert not report.failures
        events = [json.loads(line) for line in
                  (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        degraded = next(e for e in events if e["event"] == "degraded")
        assert "spawn refused" in degraded["reason"]

    def test_failed_spawn_closes_both_pipe_ends(self):
        """The runtime twin of static rule TP303: every pipe end a
        refused spawn had already acquired is closed before the retry,
        none is left to the garbage collector."""
        ends = []

        class RecordingContext(_BrokenContext):
            def Pipe(self, duplex=True):
                pair = super().Pipe(duplex)
                ends.extend(pair)
                return pair

        supervisor = Supervisor(jobs=2, timeout_s=5.0, retry=FAST_RETRY,
                                mp_context=RecordingContext())
        report = supervisor.run([Task(key="t", label="t", fn=_double,
                                      args=(21,))])
        assert report.results == {"t": 42} and report.degraded
        assert len(ends) >= 2 and all(end.closed for end in ends)

    def test_degraded_runner_still_serves_matrix(self, tmp_path):
        runner = ParallelRunner(jobs=2, cache=RunCache(tmp_path / "rc"),
                                retry=FAST_RETRY)
        runner._degraded = True  # as if a previous batch degraded
        results = runner.run_specs([tiny_spec()])
        assert results[0] is not None
        assert runner.bench_report()["supervision"]["degraded_to_serial"]

    def test_duplicate_task_keys_rejected(self):
        supervisor = Supervisor(jobs=1)
        tasks = [Task(key="same", label="a", fn=_double, args=(1,)),
                 Task(key="same", label="b", fn=_double, args=(2,))]
        with pytest.raises(ExperimentError):
            supervisor.run(tasks)


class TestCorruptCacheChaos:
    def test_matrix_recovers_from_corrupt_cache_file(self, tmp_path):
        cache_dir = tmp_path / "rc"
        specs = [tiny_spec(), tiny_spec(ftl="tpftl")]
        cold = ParallelRunner(jobs=1, cache=RunCache(cache_dir))
        expected = cold.run_specs(specs)
        # torch one entry on disk: torn write / bit rot
        victim = cache_dir / f"{specs[0].digest}.json"
        victim.write_text("{ not json at all", encoding="utf-8")
        warm = ParallelRunner(jobs=1, cache=RunCache(cache_dir))
        results = warm.run_specs(specs)
        assert results == expected  # recomputed, not propagated
        stats = warm.cache.stats()
        assert stats["corrupt"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        # the evidence is quarantined, not clobbered
        quarantined = cache_dir / "corrupt" / victim.name
        assert quarantined.exists()
        assert quarantined.read_text(encoding="utf-8").startswith("{ not")
        # and the recomputed entry is valid again
        assert RunCache(cache_dir).get(specs[0]) is not None


class TestSigintResume:
    def _driver_source(self, cache_dir: Path) -> str:
        return f"""
import sys
sys.path.insert(0, {SRC!r})
from repro.experiments import ExperimentScale
from repro.experiments.runner import ParallelRunner, RunCache, RunSpec
from repro.experiments.supervisor import Journal

scale = ExperimentScale(
    name="tiny", num_requests=600, warmup_requests=100,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=300)
specs = [RunSpec(workload="financial1", ftl="dftl", scale=scale,
                 sample_interval=300),
         RunSpec(workload="msr-ts", ftl="dftl", scale=scale,
                 sample_interval=300)]
journal = Journal({str(cache_dir / JOURNAL_NAME)!r})
runner = ParallelRunner(jobs=2, cache=RunCache({str(cache_dir)!r}),
                        journal=journal)
try:
    runner.run_specs(specs)
except KeyboardInterrupt:
    sys.exit(130)
sys.exit(0)
"""

    def test_sigint_drains_completed_cells_then_resume_finishes(
            self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "rc"
        cache_dir.mkdir()
        plan = arm_chaos(tmp_path, monkeypatch, [
            {"match": "msr-ts", "mode": "hang", "seconds": 300}])
        env = dict(os.environ)
        env[CHAOS_ENV] = str(plan)
        process = subprocess.Popen(
            [sys.executable, "-c", self._driver_source(cache_dir)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            # wait for the fast cell to land in the cache...
            deadline = time.monotonic() + 60  # tp: allow=TP002 - harness timing
            while time.monotonic() < deadline:  # tp: allow=TP002 - harness timing
                if list(cache_dir.glob("*.json")):
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.1)
            assert list(cache_dir.glob("*.json")), (
                process.communicate(timeout=5))
            # ... then interrupt while the chaos cell hangs
            process.send_signal(signal.SIGINT)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert returncode == 130
        state = Journal.load(cache_dir / JOURNAL_NAME)
        assert state.interrupted
        assert len(state.completed) == 1
        # resume without chaos: full completion, the completed cell is
        # served from cache and only the abandoned cell simulates
        monkeypatch.delenv(CHAOS_ENV)
        journal = Journal(cache_dir / JOURNAL_NAME, resume=True)
        assert journal.prior.interrupted
        assert len(journal.prior.completed) == 1
        runner = ParallelRunner(jobs=1, cache=RunCache(cache_dir),
                                journal=journal)
        specs = [tiny_spec(), tiny_spec(workload="msr-ts")]
        results = runner.run_specs(specs)
        assert all(result is not None for result in results)
        stats = runner.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        resumed = Journal.load(cache_dir / JOURNAL_NAME)
        assert not resumed.interrupted
        assert len(resumed.completed) == 2


class TestAcceptanceScenario:
    """The ISSUE's acceptance matrix: crash + hang + corrupt cache."""

    def test_chaos_matrix_completes_then_resumes_clean(self, tmp_path,
                                                       monkeypatch):
        cache_dir = tmp_path / "rc"
        specs = [tiny_spec(),                       # crashes once
                 tiny_spec(ftl="tpftl"),            # hangs once
                 tiny_spec(ftl="sftl"),             # corrupt cache entry
                 tiny_spec(ftl="optimal")]          # persistent failure
        # pre-populate the sftl cell, then corrupt it on disk
        seed_cache = RunCache(cache_dir)
        ParallelRunner(jobs=1, cache=seed_cache).run_specs([specs[2]])
        (cache_dir / f"{specs[2].digest}.json").write_text(
            "\x00garbage", encoding="utf-8")
        arm_chaos(tmp_path, monkeypatch, [
            {"match": "financial1:dftl", "mode": "crash",
             "attempts": [1]},
            {"match": "financial1:tpftl", "mode": "hang",
             "seconds": 120, "attempts": [1]},
            {"match": "financial1:optimal", "mode": "raise"}])
        journal = Journal(cache_dir / JOURNAL_NAME)
        runner = ParallelRunner(jobs=2, cache=RunCache(cache_dir),
                                retry=FAST_RETRY, timeout_s=3.0,
                                journal=journal)
        results = runner.run_specs(specs, allow_failures=True)
        # crash, hang and corruption all recovered; only the
        # deterministic failure is quarantined — as a record, not a
        # traceback
        assert [result is not None for result in results] == \
            [True, True, True, False]
        assert runner.cache.stats()["corrupt"] == 1
        manifest = runner.failure_manifest()
        assert manifest["failed"] == 1
        assert manifest["failures"][0]["label"] == "financial1:optimal"
        assert manifest["failures"][0]["traceback"]
        report = runner.bench_report()
        assert report["totals"]["retries"] >= 2  # crash + hang retries
        # resume with chaos disarmed: every previously completed cell
        # is served from cache; only the quarantined cell simulates
        monkeypatch.delenv(CHAOS_ENV)
        resumed_journal = Journal(cache_dir / JOURNAL_NAME, resume=True)
        assert len(resumed_journal.prior.failed) == 1
        resumed = ParallelRunner(jobs=2, cache=RunCache(cache_dir),
                                 retry=FAST_RETRY, timeout_s=3.0,
                                 journal=resumed_journal)
        final = resumed.run_specs(specs)
        assert all(result is not None for result in final)
        stats = resumed.cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1
        state = Journal.load(cache_dir / JOURNAL_NAME)
        assert len(state.failed) == 0
