"""Supervised execution: per-cell processes, retry, quarantine.

The :class:`~repro.experiments.runner.ParallelRunner` fans independent
simulation cells out across processes.  The cells are seeded, so a
cell that fails or hangs does so on every attempt; what the supervisor
guards against is the environment:

* **Per-cell processes** — at ``jobs > 1`` every attempt runs in its
  own worker process, so one worker's death (an OOM kill, a segfault)
  costs that cell one attempt instead of breaking a shared pool.  A
  worker that dies without reporting is recorded with ``error_type``
  ``"WorkerCrashError"``.  At ``jobs == 1`` cells run inline.
* **Retry** — transient failures (worker death, a refused spawn,
  ``OSError``) are requeued at once, up to :data:`MAX_ATTEMPTS`
  attempts per cell.  Deterministic simulator errors are never
  retried: the second attempt would fail identically.
* **Quarantine** — a cell that exhausts its budget becomes a structured
  :class:`~repro.errors.CellFailure` record (exception type, message,
  traceback, attempts, elapsed) instead of an escaped traceback; the
  rest of the batch keeps running.

A Ctrl-C raises ``KeyboardInterrupt`` at once and stops every running
worker.  Nothing finished is lost: ``on_complete`` has already
committed each finished cell to the run cache, and a rerun with the
same cache serves every committed cell.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import CellFailure, ExperimentError

#: exception types worth retrying: the environment, not the simulation,
#: failed.  ``PermissionError`` is an ``OSError`` subclass; worker
#: crashes are classified transient directly.
TRANSIENT_ERRORS: Tuple[type, ...] = (OSError, EOFError, ConnectionError)
#: attempts per task for transient failures, the first try included
MAX_ATTEMPTS = 3

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
    cell failure; the worker ignores SIGINT, and the interrupted parent
    stops it.
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


@dataclasses.dataclass
class SupervisionReport:
    """What a :meth:`Supervisor.run` call accomplished."""

    #: key -> task return value, for every task that succeeded
    results: Dict[str, Any]
    #: key -> quarantine record, for every task that did not
    failures: Dict[str, CellFailure]
    #: key -> attempts consumed (1 = first try succeeded)
    attempts: Dict[str, int]


class Supervisor:
    """Runs tasks under retry/quarantine supervision.

    ``jobs`` bounds concurrent worker processes.  With ``jobs == 1``
    tasks run in-process (the serial path — zero overhead).

    ``on_complete(key, value)`` fires the moment a task succeeds — the
    runner uses it to commit results to the run cache immediately,
    which is what makes a Ctrl-C lose nothing that already finished.
    """

    def __init__(self, jobs: int = 1, mp_context: Any = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._ctx = (mp_context if mp_context is not None
                     else multiprocessing.get_context())

    # -- public API -----------------------------------------------------
    @property
    def uses_processes(self) -> bool:
        """True when tasks run in worker processes, not inline."""
        return self.jobs > 1

    @property
    def forks_workers(self) -> bool:
        """True when the workers are forked from this process, so each
        starts with a copy of its memory (the runner's trace memo)."""
        return (self.uses_processes
                and self._ctx.get_start_method() == "fork")

    def run(self, tasks: Sequence[Task],
            on_complete: Optional[Callable[[str, Any], None]] = None
            ) -> SupervisionReport:
        """Supervise ``tasks`` to completion or quarantine.

        Returns a :class:`SupervisionReport`.  Whatever escapes the
        loop (a ``KeyboardInterrupt``) stops every running worker on
        its way out.
        """
        states = {t.key: _TaskState(task=t) for t in tasks}
        if len(states) != len(tasks):
            raise ExperimentError("supervised task keys must be unique")
        queue: "deque[_TaskState]" = deque(states[t.key] for t in tasks)
        running: Dict[str, _Running] = {}
        results: Dict[str, Any] = {}
        failures: Dict[str, CellFailure] = {}

        def finish(state: _TaskState, value: Any) -> None:
            key = state.task.key
            results[key] = value
            if on_complete is not None:
                on_complete(key, value)

        def attempt_failed(state: _TaskState, error_type: str,
                           message: str, tb_text: str,
                           transient: bool) -> None:
            key = state.task.key
            if transient and state.attempts < MAX_ATTEMPTS:
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
                self._launch_ready(queue, running, finish, attempt_failed)
                if running:
                    self._poll(running, finish, attempt_failed)
        finally:
            for record in running.values():
                self._stop(record, terminate=True)
        return SupervisionReport(
            results=results, failures=failures,
            attempts={key: state.attempts
                      for key, state in states.items()
                      if state.attempts})

    # -- internals ------------------------------------------------------
    def _launch_ready(self, queue: "deque[_TaskState]",
                      running: Dict[str, _Running],
                      finish: Callable[[_TaskState, Any], None],
                      attempt_failed: Callable[..., None]) -> None:
        """Start queued tasks until the job slots are full.

        A spawn that raises consumes an attempt like any other failure
        (transient for ``OSError``), so a host that always refuses to
        spawn quarantines its tasks instead of looping forever.
        """
        while queue and len(running) < self.jobs:
            state = queue.popleft()
            if not self.uses_processes:
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
            running[task.key] = _Running(state=state, process=process,
                                         conn=parent_conn, started=_now())

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
        """Serial path: run one attempt in-process."""
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
        """Wait briefly, then settle every finished or dead worker."""
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
                self._stop(record)
                del running[key]
                state.elapsed_s += now - record.started
                attempt_failed(
                    state, "WorkerCrashError",
                    f"worker process died with exit code "
                    f"{record.process.exitcode} before reporting a "
                    f"result", "", True)

    @staticmethod
    def _receive(record: _Running) -> Optional[Tuple]:
        """Non-blocking read of a worker's outcome message, if any."""
        try:
            return record.conn.recv() if record.conn.poll() else None
        except (EOFError, OSError):
            return None

    @staticmethod
    def _stop(record: _Running, terminate: bool = False) -> None:
        """Stop a worker and release its pipe: join a finished one, or
        SIGTERM a stuck one (``terminate``); SIGKILL it if it lingers."""
        try:
            if terminate:
                record.process.terminate()
                record.process.join(timeout=2.0)
            else:
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

    def _settle(self, running: Dict[str, _Running], key: str,
                message: Tuple,
                finish: Callable[[_TaskState, Any], None],
                attempt_failed: Callable[..., None]) -> None:
        """Retire a worker that reported ``message`` and act on it."""
        record = running.pop(key)
        record.state.elapsed_s += _now() - record.started
        self._stop(record)
        if message[0] == "ok":
            finish(record.state, message[1])
        else:
            _, etype, emsg, tb_text, transient = message
            attempt_failed(record.state, etype, emsg, tb_text, transient)


def _now() -> float:
    """Monotonic harness clock (never simulation time)."""
    return time.monotonic()  # tp: allow=TP002 - harness timing
