"""Chaos harness for the supervised runner.

Injects worker crashes, deterministic and transient exceptions,
refused spawns, SIGINT (during a hung cell) and corrupt cache files
into real (tiny) matrices from the test side: ``run_specs`` goes
through ``runner._timed_execute``, which the tests replace with
:func:`_faulty_execute`; ``map`` and :class:`Supervisor` run the
module-level fault tasks below.  Every fault function is picklable,
and a "once" fault is keyed on a marker file so the retried attempt
runs clean.  The suite asserts the supervision contract: transient
faults are retried, persistent failures become structured
:class:`~repro.errors.CellFailure` records instead of escaped
tracebacks, completed cells are committed to the run cache the moment
they finish, and a plain rerun serves every committed cell from the
cache.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import SimulationConfig, SSDConfig
from repro.errors import ExperimentError, MatrixFailureError, RunnerError
from repro.experiments import ExperimentScale
from repro.experiments import runner as runner_module
from repro.experiments.runner import (ParallelRunner, RunCache, RunSpec,
                                      clear_run_caches, configure_runner,
                                      reset_runner)
from repro.experiments.supervisor import MAX_ATTEMPTS, Supervisor, Task
from repro.ftl import make_ftl

SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)

TINY = ExperimentScale(
    name="tiny", num_requests=600, warmup_requests=100,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=300)

#: the real cell executor, captured before any test replaces it
_REAL_EXECUTE = runner_module._timed_execute


@pytest.fixture(autouse=True)
def _fresh_default_runner(tmp_path):
    """Isolate the default runner from other tests."""
    configure_runner(jobs=1, cache_dir=tmp_path / "default-cache")
    yield
    reset_runner()
    clear_run_caches()


def tiny_spec(**overrides) -> RunSpec:
    params = dict(workload="financial1", ftl="dftl", scale=TINY,
                  sample_interval=300)
    params.update(overrides)
    return RunSpec(**params)


# ----------------------------------------------------------------------
# Fault injection (module-level, so worker processes can unpickle it)
# ----------------------------------------------------------------------
def _inject(mode: str, marker) -> None:
    """Fail the current attempt as ``mode`` says.

    With a ``marker`` path the fault fires once: the first attempt
    creates the file, later attempts see it and run clean.
    """
    if marker is not None:
        if os.path.exists(marker):
            return
        Path(marker).touch()
    if mode == "crash":
        os._exit(29)
    elif mode == "hang":
        time.sleep(300)
    elif mode == "raise":
        raise RuntimeError("injected failure")
    elif mode == "oserror":
        raise OSError("injected transient fault")


def _faulty_execute(plan, spec):
    """``_timed_execute`` with faults: ``plan`` holds ``(label, mode,
    marker)`` rules matched on the cell label."""
    for label, mode, marker in plan:
        if spec.label() == label:
            _inject(mode, marker)
    return _REAL_EXECUTE(spec)


def arm(monkeypatch, *rules) -> None:
    """Route every ``run_specs`` cell through :func:`_faulty_execute`."""
    monkeypatch.setattr(runner_module, "_timed_execute",
                        functools.partial(_faulty_execute, rules))


def _abs_oserror_once(marker: str, value: int) -> int:
    """``abs`` whose first call on 3 raises a transient ``OSError``."""
    if value == 3:
        _inject("oserror", marker)
    return abs(value)


def _abs_rejecting_negatives(value: int) -> int:
    """``abs`` that fails deterministically on a negative input."""
    if value < 0:
        raise RuntimeError(f"negative input {value}")
    return value


def _double(value):
    """Module-level helper task (picklable) for supervisor tests."""
    return value * 2


def _overwrite_tiny_device(marker_dir: str, index: int,
                           erase_fail_rate: float) -> int:
    """Overwrite a 512-page device 20 times; at a high erase failure
    rate retirements eat the spare blocks and the flash raises
    ``DeviceWornOutError``.  A completed item leaves ``done-<index>``
    in ``marker_dir``."""
    ssd = SSDConfig(logical_pages=512, pages_per_block=8,
                    erase_fail_rate=erase_fail_rate, fault_seed=7)
    ftl = make_ftl("optimal", SimulationConfig(ssd=ssd))
    for _ in range(20):
        for lpn in range(512):
            ftl.write_page(lpn)
    Path(marker_dir, f"done-{index}").touch()
    return ftl.flash.total_erase_count()


class TestWorkerCrash:
    def test_crashed_worker_is_retried_to_success(self, tmp_path,
                                                  monkeypatch):
        clean = ParallelRunner(jobs=2, cache=None).run_specs(
            [tiny_spec(), tiny_spec(ftl="tpftl")])
        arm(monkeypatch,
            ("financial1:dftl", "crash", str(tmp_path / "crashed")))
        runner = ParallelRunner(jobs=2, cache=RunCache(tmp_path / "rc"))
        results = runner.run_specs([tiny_spec(), tiny_spec(ftl="tpftl")])
        assert results == clean  # determinism survives the retry
        report = runner.bench_report()
        assert report["totals"]["retries"] == 1
        assert report["totals"]["failed"] == 0
        crashed = next(o for o in runner.outcomes
                       if o.label == "financial1:dftl")
        assert crashed.attempts == 2 and not crashed.failed


class TestQuarantine:
    def test_deterministic_failure_not_retried(self, tmp_path,
                                               monkeypatch):
        arm(monkeypatch, ("financial1:dftl", "raise", None))
        cache = RunCache(tmp_path / "rc")
        runner = ParallelRunner(jobs=2, cache=cache)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs([tiny_spec(), tiny_spec(ftl="tpftl")])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 1  # deterministic: no retry budget
        assert not failure.transient
        assert "injected" in failure.message
        assert failure.traceback  # full traceback captured, not escaped
        # the healthy cell completed and was committed before the raise
        assert cache.stats()["stores"] == 1
        assert isinstance(excinfo.value, RunnerError)
        assert isinstance(excinfo.value, ExperimentError)
        # the record is also on the runner and in the bench report
        assert runner.failures == [failure]
        report = runner.bench_report()
        assert report["totals"]["failed"] == 1
        assert report["failures"][0]["label"] == "financial1:dftl"
        failed_cell = next(c for c in report["cells"] if c["failed"])
        assert failed_cell["label"] == "financial1:dftl"

    def test_transient_failure_exhausts_attempt_budget(self, tmp_path,
                                                       monkeypatch):
        arm(monkeypatch, ("financial1:dftl", "oserror", None))
        runner = ParallelRunner(jobs=2, cache=None)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs([tiny_spec()])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "OSError"
        assert failure.attempts == MAX_ATTEMPTS == 3
        assert failure.transient


class TestMapSupervision:
    def test_map_retries_transient_failures(self, tmp_path):
        marker = str(tmp_path / "faulted")
        runner = ParallelRunner(jobs=2)
        assert runner.map(_abs_oserror_once,
                          [(marker, 3), (marker, -4), (marker, 5)]) \
            == [3, 4, 5]
        assert os.path.exists(marker)  # the fault did fire once

    def test_map_quarantines_persistent_failures(self):
        runner = ParallelRunner(jobs=2)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.map(_abs_rejecting_negatives, [(3,), (-4,), (5,)])
        assert excinfo.value.failures[0].label == \
            "_abs_rejecting_negatives[1]"

    def test_worn_out_device_mid_sweep(self, tmp_path):
        """A device that wears out is a deterministic failure: one
        attempt, quarantined, while the rest of the sweep completes."""
        runner = ParallelRunner(jobs=2)
        rates = (0.0, 0.0, 0.5, 0.0)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.map(_overwrite_tiny_device,
                       [(str(tmp_path), index, rate)
                        for index, rate in enumerate(rates)])
        [failure] = excinfo.value.failures
        assert failure.label == "_overwrite_tiny_device[2]"
        assert failure.error_type == "DeviceWornOutError"
        assert failure.attempts == 1
        assert not failure.transient
        # every other item finished before the batch raised
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["done-0", "done-1", "done-3"]

    def test_map_serial_quarantines_like_parallel(self):
        """jobs=1 without a watchdog runs inline, but a failing item is
        quarantined as at jobs=2: the others finish, the batch raises."""
        runner = ParallelRunner(jobs=1)
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.map(_abs_rejecting_negatives, [(3,), (-4,), (5,)])
        [failure] = excinfo.value.failures
        assert failure.label == "_abs_rejecting_negatives[1]"
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 1 and not failure.transient
        assert runner.failures == [failure]

    def test_map_failure_record_equal_at_every_job_count(self):
        """The same deterministically failing item gives the same
        CellFailure fields at jobs=1 (inline) and jobs=2 (workers)."""
        def record(jobs):
            with pytest.raises(MatrixFailureError) as excinfo:
                ParallelRunner(jobs=jobs).map(abs, [(2,), ("not a number",)])
            [failure] = excinfo.value.failures
            return (failure.label, failure.error_type, failure.message,
                    failure.attempts, failure.transient)

        serial = record(1)
        assert serial == record(2)
        assert serial[:2] == ("abs[1]", "TypeError")


class _RefusingContext:
    """A multiprocessing context that refuses the first ``refusals``
    process spawns and records every pipe end it hands out."""

    def __init__(self, refusals: float) -> None:
        self.refusals = refusals
        self.ends = []
        self._real = multiprocessing.get_context()

    def Pipe(self, duplex=True):
        pair = self._real.Pipe(duplex)
        self.ends.extend(pair)
        return pair

    def Process(self, *args, **kwargs):
        if self.refusals > 0:
            self.refusals -= 1
            raise OSError("process spawn refused")
        return self._real.Process(*args, **kwargs)


class _FailingStartContext(_RefusingContext):
    """A context whose first process really starts — a sleeping worker
    — and then reports the start as failed, so the spawn path holds a
    live process it never tracked; later spawns are real."""

    def __init__(self) -> None:
        super().__init__(refusals=0)
        self.workers = []

    def Process(self, *args, **kwargs):
        if self.workers:
            return super().Process(*args, **kwargs)
        worker = self._real.Process(target=time.sleep, args=(60,),
                                    daemon=True)
        self.workers.append(worker)
        real_start = worker.start

        def start():
            real_start()
            raise OSError("worker started, then the spawn failed")

        worker.start = start
        return worker


class TestDegradeToSerial:
    """A refused spawn, which once degraded the batch to serial, is a
    transient failed attempt that must release what it acquired."""

    def test_failed_spawn_closes_both_pipe_ends(self):
        """A runtime twin of mutant P05 (the spawn-failure cleanup
        dropped): every pipe end a refused spawn had already acquired
        is closed before the retry, none is left to the garbage
        collector."""
        context = _RefusingContext(refusals=1)
        supervisor = Supervisor(jobs=2, mp_context=context)
        report = supervisor.run([Task(key="t", label="t", fn=_double,
                                      args=(21,))])
        assert report.results == {"t": 42}
        assert report.attempts == {"t": 2}
        assert len(context.ends) == 4
        assert all(end.closed for end in context.ends)

    def test_failed_start_terminates_the_started_worker(self):
        """The other runtime twin of mutant P05: a spawn that fails
        after its process started terminates and reaps that worker and
        closes its pipe ends before the retry."""
        context = _FailingStartContext()
        supervisor = Supervisor(jobs=2, mp_context=context)
        try:
            report = supervisor.run([Task(key="t", label="t",
                                          fn=_double, args=(21,))])
            assert report.results == {"t": 42}
            assert report.attempts == {"t": 2}
            assert len(context.ends) == 4
            assert all(end.closed for end in context.ends)
            assert len(context.workers) == 1
            assert not context.workers[0].is_alive()
        finally:
            for worker in context.workers:
                if worker.is_alive():
                    worker.terminate()
                    worker.join()

    def test_always_refused_spawn_is_quarantined_as_transient(self):
        context = _RefusingContext(refusals=float("inf"))
        supervisor = Supervisor(jobs=2, mp_context=context)
        report = supervisor.run([Task(key="t", label="t", fn=_double,
                                      args=(21,))])
        assert report.results == {}
        failure = report.failures["t"]
        assert failure.error_type == "OSError"
        assert "spawn refused" in failure.message
        assert failure.transient and failure.attempts == 3
        assert len(context.ends) == 6
        assert all(end.closed for end in context.ends)

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
import functools
import sys
sys.path[:0] = [{SRC!r}, {TESTS!r}]
from repro.experiments import ExperimentScale
from repro.experiments import runner as runner_module
from repro.experiments.runner import ParallelRunner, RunCache, RunSpec
from test_runner_chaos import _faulty_execute

runner_module._timed_execute = functools.partial(
    _faulty_execute, (("msr-ts:dftl", "hang", None),))
scale = ExperimentScale(
    name="tiny", num_requests=600, warmup_requests=100,
    financial_pages=2048, msr_pages=4096,
    cache_fractions=(1 / 32, 1.0), sample_interval=300)
specs = [RunSpec(workload="financial1", ftl="dftl", scale=scale,
                 sample_interval=300),
         RunSpec(workload="msr-ts", ftl="dftl", scale=scale,
                 sample_interval=300)]
runner = ParallelRunner(jobs=2, cache=RunCache({str(cache_dir)!r}))
try:
    runner.run_specs(specs)
except KeyboardInterrupt:
    sys.exit(130)
sys.exit(0)
"""

    def test_sigint_drains_completed_cells_then_resume_finishes(
            self, tmp_path):
        cache_dir = tmp_path / "rc"
        cache_dir.mkdir()
        with subprocess.Popen(
                [sys.executable, "-c", self._driver_source(cache_dir)],
                cwd=str(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
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
                # ... then interrupt while the other cell hangs
                process.send_signal(signal.SIGINT)
                returncode = process.wait(timeout=60)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
        assert returncode == 130
        assert len(list(cache_dir.glob("*.json"))) == 1
        # the cache is the resume: a plain rerun serves the completed
        # cell from the cache and simulates only the abandoned one
        runner = ParallelRunner(jobs=1, cache=RunCache(cache_dir))
        specs = [tiny_spec(), tiny_spec(workload="msr-ts")]
        results = runner.run_specs(specs)
        assert all(result is not None for result in results)
        stats = runner.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestAcceptanceScenario:
    """Crash + corrupt cache + a persistent failure, then rerun."""

    def test_chaos_matrix_completes_then_resumes_clean(self, tmp_path,
                                                       monkeypatch):
        cache_dir = tmp_path / "rc"
        specs = [tiny_spec(),                       # crashes once
                 tiny_spec(ftl="tpftl"),            # healthy
                 tiny_spec(ftl="sftl"),             # corrupt cache entry
                 tiny_spec(ftl="optimal")]          # persistent failure
        # pre-populate the sftl cell, then corrupt it on disk
        ParallelRunner(jobs=1, cache=RunCache(cache_dir)).run_specs(
            [specs[2]])
        (cache_dir / f"{specs[2].digest}.json").write_text(
            "\x00garbage", encoding="utf-8")
        arm(monkeypatch,
            ("financial1:dftl", "crash", str(tmp_path / "crashed")),
            ("financial1:optimal", "raise", None))
        runner = ParallelRunner(jobs=2, cache=RunCache(cache_dir))
        with pytest.raises(MatrixFailureError) as excinfo:
            runner.run_specs(specs)
        # crash and corruption both recovered; only the deterministic
        # failure is quarantined — as a record, not a traceback
        assert [f.label for f in excinfo.value.failures] == \
            ["financial1:optimal"]
        assert [outcome.failed for outcome in runner.outcomes] == \
            [False, False, False, True]
        assert runner.cache.stats()["corrupt"] == 1
        assert runner.cache.stats()["stores"] == 3
        report = runner.bench_report()
        assert report["totals"]["failed"] == 1
        assert report["failures"][0]["label"] == "financial1:optimal"
        assert report["failures"][0]["traceback"]
        assert report["totals"]["retries"] == 1  # the crash's retry
        # rerun with the faults disarmed: every previously completed
        # cell is served from cache; only the quarantined cell simulates
        monkeypatch.setattr(runner_module, "_timed_execute", _REAL_EXECUTE)
        rerun = ParallelRunner(jobs=2, cache=RunCache(cache_dir))
        final = rerun.run_specs(specs)
        assert all(result is not None for result in final)
        stats = rerun.cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1
