"""Supervised execution: per-cell processes, watchdog, retry, quarantine.

The :class:`~repro.experiments.runner.ParallelRunner` fans independent
simulation cells out across processes.  Without supervision, a fleet of
cells is only as reliable as its weakest member: one OOM-killed worker,
one hung cell or one Ctrl-C aborts the whole matrix and discards every
in-flight result.  This module applies the discipline the paper demands
of the FTL itself — never lose committed state — to the harness:

* **Watchdog** — every cell runs in its own worker process with a
  wall-clock deadline (``timeout_s``).  A cell that overruns is killed
  (``SIGTERM`` then ``SIGKILL``) and requeued; the attempt is recorded
  as a :class:`~repro.errors.CellTimeoutError`.
* **Retry** — transient failures (worker death, a refused spawn,
  ``OSError``, timeouts) are requeued at once, up to ``max_attempts``
  attempts per cell.  Deterministic simulator errors are never
  retried: the simulation is seeded, so the second attempt would fail
  identically.
* **Quarantine** — a cell that exhausts its budget becomes a structured
  :class:`~repro.errors.CellFailure` record (exception type, message,
  traceback, attempts, elapsed) instead of an escaped traceback; the
  rest of the batch keeps running.
* **Interrupt** — a SIGINT drains already-completed workers through
  ``on_complete`` (the runner commits them to the run cache) and only
  then raises ``KeyboardInterrupt``.  There is no separate resume
  record: a rerun with the same cache serves every committed cell.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import CellFailure, ExperimentError

#: exception types worth retrying: the environment, not the simulation,
#: failed.  ``PermissionError`` is an ``OSError`` subclass; worker
#: crashes and watchdog timeouts are classified transient directly.
TRANSIENT_ERRORS: Tuple[type, ...] = (OSError, BrokenProcessPool,
                                      EOFError, ConnectionError)

#: how long the event loop sleeps waiting for worker messages
POLL_INTERVAL_S = 0.05


# ----------------------------------------------------------------------
# Worker process entry
# ----------------------------------------------------------------------
def _worker_entry(conn: Any, fn: Callable[..., Any], args: Tuple) -> None:
    """Child-process entry point: run the task, ship the outcome back.

    Outcomes are tuples: ``("ok", value)`` or ``("error", type_name,
    message, traceback_text, transient)``.  Nothing may escape — an
    unpicklable value or error turns into a hard exit the parent
    classifies as a worker crash.

    Workers share the terminal's foreground process group, so a Ctrl-C
    would deliver SIGINT here too and be misreported as a permanent
    cell failure; the parent owns interrupt handling (drain, then
    re-raise), so the worker ignores SIGINT and lets the parent decide
    its fate.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    try:
        value = fn(*args)
        conn.send(("ok", value))
    except BaseException as exc:
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc(),
                       isinstance(exc, TRANSIENT_ERRORS)))
        except Exception:
            os._exit(70)
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Task:
    """One supervised unit of work: a picklable ``fn(*args)`` call."""

    key: str
    label: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...]


@dataclasses.dataclass
class _TaskState:
    """Supervisor-side bookkeeping for one task across its attempts."""

    task: Task
    attempts: int = 0
    elapsed_s: float = 0.0


@dataclasses.dataclass
class _Running:
    """One live worker process and the pipe it reports through."""

    state: _TaskState
    process: Any
    conn: Any
    started: float
    deadline: float


@dataclasses.dataclass
class SupervisionReport:
    """What a :meth:`Supervisor.run` call accomplished."""

    #: key -> task return value, for every task that succeeded
    results: Dict[str, Any]
    #: key -> quarantine record, for every task that did not
    failures: Dict[str, CellFailure]
    #: key -> attempts consumed (1 = first try succeeded)
    attempts: Dict[str, int]
    #: transient-failure retries performed across the batch
    retries: int


class Supervisor:
    """Runs tasks under watchdog/retry/quarantine supervision.

    ``jobs`` bounds concurrent worker processes.  With ``jobs == 1``
    and no ``timeout_s`` tasks run in-process (the historical serial
    path — zero overhead); any watchdog requires real child processes,
    because only a separate process can be killed mid-simulation.
    ``max_attempts`` is the per-task attempt budget for transient
    failures, the first try included.

    ``on_complete(key, value, elapsed_s, attempts)`` fires the moment a
    task succeeds — the runner uses it to commit results to the run
    cache immediately, which is what makes a SIGINT lose nothing that
    already finished.
    """

    def __init__(self, jobs: int = 1,
                 timeout_s: Optional[float] = None,
                 max_attempts: int = 3,
                 mp_context: Any = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and not (math.isfinite(timeout_s)
                                          and timeout_s > 0):
            raise ExperimentError(
                f"timeout_s must be finite and positive, got {timeout_s}")
        if max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self._ctx = (mp_context if mp_context is not None
                     else multiprocessing.get_context())
        self._interrupted = False

    # -- public API -----------------------------------------------------
    def run(self, tasks: Sequence[Task],
            on_complete: Optional[Callable[[str, Any, float, int],
                                           None]] = None
            ) -> SupervisionReport:
        """Supervise ``tasks`` to completion, quarantine or interrupt.

        Returns a :class:`SupervisionReport`; raises
        ``KeyboardInterrupt`` after a SIGINT, but only once completed
        workers have been drained (and ``on_complete``'d).
        """
        states = {t.key: _TaskState(task=t) for t in tasks}
        if len(states) != len(tasks):
            raise ExperimentError("supervised task keys must be unique")
        queue: "deque[_TaskState]" = deque(states[t.key] for t in tasks)
        running: Dict[str, _Running] = {}
        results: Dict[str, Any] = {}
        failures: Dict[str, CellFailure] = {}
        retries = 0
        use_processes = self.jobs > 1 or self.timeout_s is not None
        self._interrupted = False

        previous_handler: Any = None
        handler_installed = False
        if threading.current_thread() is threading.main_thread():
            try:
                previous_handler = signal.signal(
                    signal.SIGINT, self._on_sigint)
                handler_installed = True
            except ValueError:
                handler_installed = False

        def finish(state: _TaskState, value: Any) -> None:
            key = state.task.key
            results[key] = value
            if on_complete is not None:
                on_complete(key, value, state.elapsed_s, state.attempts)

        def attempt_failed(state: _TaskState, error_type: str,
                           message: str, tb_text: str,
                           transient: bool) -> None:
            nonlocal retries
            key = state.task.key
            if transient and state.attempts < self.max_attempts:
                retries += 1
                queue.append(state)
                return
            failures[key] = CellFailure(
                key=key, label=state.task.label, error_type=error_type,
                message=message, traceback=tb_text,
                attempts=state.attempts,
                elapsed_s=round(state.elapsed_s, 6),
                transient=transient)

        try:
            while queue or running:
                if self._interrupted:
                    break
                self._launch_ready(queue, running, use_processes, finish,
                                   attempt_failed)
                if running:
                    self._poll(running, finish, attempt_failed)
        finally:
            if handler_installed:
                signal.signal(signal.SIGINT, previous_handler)

        if self._interrupted:
            # collect what workers already delivered, kill the rest
            for key in list(running):
                message = self._receive(running[key])
                if message is not None:
                    self._settle(running, key, message, finish,
                                 attempt_failed)
            for key in list(running):
                self._kill(running.pop(key))
            raise KeyboardInterrupt(
                f"interrupted: {len(results)} cells completed and "
                f"committed, {len(queue) + len(running)} abandoned")

        return SupervisionReport(
            results=results, failures=failures,
            attempts={key: state.attempts
                      for key, state in states.items()
                      if state.attempts},
            retries=retries)

    # -- internals ------------------------------------------------------
    def _on_sigint(self, signum: int, frame: Any) -> None:
        """First SIGINT: request a drain-and-stop; second: die hard."""
        if self._interrupted:
            raise KeyboardInterrupt
        self._interrupted = True

    def _launch_ready(self, queue: "deque[_TaskState]",
                      running: Dict[str, _Running],
                      use_processes: bool,
                      finish: Callable[[_TaskState, Any], None],
                      attempt_failed: Callable[..., None]) -> None:
        """Start queued tasks until the job slots are full.

        A spawn that raises consumes an attempt like any other failure
        (transient for ``OSError``), so a host that always refuses to
        spawn quarantines its tasks instead of looping forever.
        """
        while queue and len(running) < self.jobs:
            if self._interrupted:
                return
            state = queue.popleft()
            if not use_processes:
                self._run_inline(state, finish, attempt_failed)
                continue
            task = state.task
            state.attempts += 1
            parent_conn = child_conn = process = None
            try:
                parent_conn, child_conn = self._ctx.Pipe(duplex=False)
                process = self._ctx.Process(
                    target=_worker_entry,
                    args=(child_conn, task.fn, task.args),
                    daemon=True)
                process.start()
                child_conn.close()
            except (OSError, ValueError) as exc:
                # a partially-spawned worker must not leak its pipe ends
                # or a started-but-untracked process
                self._discard_spawn(parent_conn, child_conn, process)
                attempt_failed(state, type(exc).__name__, str(exc),
                               traceback.format_exc(),
                               isinstance(exc, TRANSIENT_ERRORS))
                continue
            started = _now()
            deadline = (started + self.timeout_s
                        if self.timeout_s is not None else float("inf"))
            running[task.key] = _Running(state=state, process=process,
                                         conn=parent_conn,
                                         started=started,
                                         deadline=deadline)

    @staticmethod
    def _discard_spawn(parent_conn: Optional[Any],
                       child_conn: Optional[Any],
                       process: Optional[Any]) -> None:
        """Release whatever a failed spawn attempt managed to acquire.

        Any of the three may be ``None`` (the spawn raised before it was
        created); a started process is terminated and reaped so the
        retry path never strands a live worker.
        """
        if parent_conn is not None:
            try:
                parent_conn.close()
            except OSError:
                pass
        if child_conn is not None:
            try:
                child_conn.close()
            except OSError:
                pass
        if process is not None and process.is_alive():
            process.terminate()
            process.join()

    def _run_inline(self, state: _TaskState,
                    finish: Callable[[_TaskState, Any], None],
                    attempt_failed: Callable[..., None]) -> None:
        """Serial path: run one attempt in-process (no watchdog)."""
        state.attempts += 1
        started = _now()
        try:
            value = state.task.fn(*state.task.args)
        except Exception as exc:
            state.elapsed_s += _now() - started
            attempt_failed(state, type(exc).__name__, str(exc),
                           traceback.format_exc(),
                           isinstance(exc, TRANSIENT_ERRORS))
            return
        state.elapsed_s += _now() - started
        finish(state, value)

    def _poll(self, running: Dict[str, _Running],
              finish: Callable[[_TaskState, Any], None],
              attempt_failed: Callable[..., None]) -> None:
        """Wait briefly, then settle every finished/dead/late worker."""
        try:
            _wait_connections([r.conn for r in running.values()],
                              timeout=POLL_INTERVAL_S)
        except OSError:
            pass
        now = _now()
        for key in list(running):
            record = running[key]
            state = record.state
            message = self._receive(record)
            if message is not None:
                self._settle(running, key, message, finish,
                             attempt_failed)
            elif not record.process.is_alive():
                self._reap(record)
                del running[key]
                state.elapsed_s += now - record.started
                attempt_failed(
                    state, "WorkerCrashError",
                    f"worker process died with exit code "
                    f"{record.process.exitcode} before reporting a "
                    f"result", "", True)
            elif now > record.deadline:
                self._kill(record)
                del running[key]
                state.elapsed_s += now - record.started
                attempt_failed(
                    state, "CellTimeoutError",
                    f"cell exceeded the {self.timeout_s:g}s watchdog "
                    f"timeout on attempt {state.attempts}", "", True)

    @staticmethod
    def _receive(record: _Running) -> Optional[Tuple]:
        """Non-blocking read of a worker's outcome message, if any."""
        try:
            if record.conn.poll():
                return record.conn.recv()
        except (EOFError, OSError):
            return None
        return None

    @staticmethod
    def _reap(record: _Running) -> None:
        """Join a finished worker and release its pipe."""
        try:
            record.process.join(timeout=5.0)
            if record.process.is_alive():
                record.process.kill()
                record.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            record.conn.close()
        except Exception:
            pass

    @staticmethod
    def _kill(record: _Running) -> None:
        """Forcibly stop a stuck worker: SIGTERM, then SIGKILL."""
        try:
            record.process.terminate()
            record.process.join(timeout=2.0)
            if record.process.is_alive():
                record.process.kill()
                record.process.join(timeout=5.0)
        except Exception:
            pass
        try:
            record.conn.close()
        except Exception:
            pass

    def _settle(self, running: Dict[str, _Running], key: str,
                message: Tuple,
                finish: Callable[[_TaskState, Any], None],
                attempt_failed: Callable[..., None]) -> None:
        """Retire a worker that reported ``message`` and act on it."""
        record = running.pop(key)
        record.state.elapsed_s += _now() - record.started
        self._reap(record)
        if message[0] == "ok":
            finish(record.state, message[1])
        else:
            _, etype, emsg, tb_text, transient = message
            attempt_failed(record.state, etype, emsg, tb_text, transient)


def _now() -> float:
    """Monotonic harness clock (never simulation time)."""
    return time.monotonic()  # tp: allow=TP002 - harness watchdog timing
