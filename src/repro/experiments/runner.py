"""Parallel experiment runner with a persistent, content-addressed run cache.

The paper's evaluation (Fig 6-10, Table 2) is an embarrassingly parallel
matrix of independent (workload x FTL x configuration) simulations.  This
module gives the experiment layer the shape trace-driven simulators such
as wiscsee use to stay fast:

* :class:`RunSpec` — a picklable, content-addressed description of one
  simulation cell (workload, FTL, scale, cache fraction, TPFTL config,
  seed, sampling).  Equal specs have equal digests; changing any field
  changes the digest.
* :class:`RunCache` — persists each cell's :class:`~repro.ssd.RunResult`
  as JSON under ``results/.runcache/<digest>.json``.  Entries carry a
  schema version and a fingerprint of the simulator's source code, so a
  cache survives interpreter restarts but never a code change.  Corrupt
  files are quarantined to ``corrupt/`` and recomputed (surfaced via
  :meth:`RunCache.stats`), never fatal; stale-version files are misses.
  The cache is also the resume: a rerun serves every committed cell.
* :class:`ParallelRunner` — fans cells out across supervised worker
  processes (``--jobs N`` / ``REPRO_JOBS``), deduplicates identical
  cells, consults the cache first, and records per-cell wall-clock so
  :meth:`ParallelRunner.write_bench` can emit ``BENCH_runner.json``
  (wall-clock per cell, executed seconds, cache hit counts).  With
  ``jobs=1`` the supervisor runs cells inline, with no worker
  processes.

Execution is *supervised* (see :mod:`repro.experiments.supervisor`):
transient failures — worker death, a refused spawn, ``OSError`` — are
retried up to :data:`~repro.experiments.supervisor.MAX_ATTEMPTS`
attempts, and persistently failing cells are quarantined as structured
:class:`~repro.errors.CellFailure` records instead of aborting the
matrix.  ``run_specs`` cells and ``map`` items fail this one way at
every job count.

Every cell is deterministic: traces are generated from per-workload
seeds and the simulator itself contains no unseeded randomness (the TP
lint rules enforce this), so parallel and serial execution produce
field-for-field identical results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..config import TPFTLConfig
from ..errors import CellFailure, ExperimentError, MatrixFailureError
from ..ftl import make_ftl
from ..metrics import CacheSample, CacheSampler, FTLMetrics, ResponseStats
from ..ssd import RunResult, simulate
from ..types import Trace
from ..workloads import TrafficSpec, compose, make_preset
from .common import ExperimentScale, simulation_config
from .supervisor import Supervisor, Task

#: bump when the cache-file layout or RunResult encoding changes
#: (3: RunResult grew the idle-time GC fields; 4: per-tenant
#: response statistics and the ``qos`` dispatch-policy field)
CACHE_SCHEMA = 4
#: environment variable overriding the worker count (``--jobs`` wins)
JOBS_ENV = "REPRO_JOBS"
#: environment variable overriding the cache directory; the values
#: ``off``, ``none`` and ``0`` disable on-disk caching entirely
CACHE_ENV = "REPRO_RUNCACHE"
#: default on-disk cache location, relative to the working directory
DEFAULT_CACHE_DIR = Path("results") / ".runcache"
#: generated traces memoised per process (they are deterministic)
TRACE_MEMO_ENTRIES = 4


# ----------------------------------------------------------------------
# RunSpec: one content-addressed simulation cell
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunSpec:
    """A picklable description of one (workload, FTL, config) cell.

    ``seed`` overrides the workload preset's default seed when set;
    ``tpftl`` defaults to the complete configuration (monogram
    ``rsbc``); ``channels`` selects the device model (1 = the paper's
    single-server queue).  The digest is stable across processes and
    runs: it hashes the canonical JSON of every field.

    A ``traffic`` spec replaces the single-stream preset with a
    composed multi-tenant schedule (``workload`` then only labels the
    cell; the trace comes from :func:`~repro.workloads.compose`).
    ``qos`` picks the dispatch policy and ``keep_response_samples``
    retains per-request samples for percentile reads.  All three
    default to the paper model and are *omitted from the canonical
    form at their defaults*, so every pre-existing cell digest — and
    therefore every existing cache entry address — is unchanged.
    """

    workload: str
    ftl: str
    scale: ExperimentScale
    cache_fraction: Optional[float] = None
    tpftl: Optional[TPFTLConfig] = None
    seed: Optional[int] = None
    sample_interval: int = 0
    channels: int = 1
    traffic: Optional[TrafficSpec] = None
    qos: str = "fifo"
    keep_response_samples: bool = False

    @classmethod
    def for_ablation(cls, monogram: str, scale: ExperimentScale,
                     workload: str = "financial1") -> "RunSpec":
        """The cell for a paper-style ablation monogram (or ``dftl``),
        on the scale's channel count."""
        if monogram == "dftl":
            return cls(workload=workload, ftl="dftl", scale=scale,
                       channels=scale.channels)
        return cls(workload=workload, ftl="tpftl", scale=scale,
                   tpftl=TPFTLConfig.from_monogram(monogram),
                   channels=scale.channels)

    def canonical(self) -> Dict[str, Any]:
        """The spec as a JSON-safe dict with a stable key order.

        The post-v3 fields (``traffic``, ``qos``,
        ``keep_response_samples``) appear only when they deviate from
        the paper-model defaults: a default-valued spec canonicalises
        exactly as it did before those fields existed, keeping every
        historical digest (and cache address) valid.
        """
        data: Dict[str, Any] = {
            "workload": self.workload,
            "ftl": self.ftl,
            "scale": dataclasses.asdict(self.scale),
            "cache_fraction": self.cache_fraction,
            "tpftl": (dataclasses.asdict(self.tpftl)
                      if self.tpftl is not None else None),
            "seed": self.seed,
            "sample_interval": self.sample_interval,
            "channels": self.channels,
        }
        if self.traffic is not None:
            data["traffic"] = self.traffic.canonical()
        if self.qos != "fifo":
            data["qos"] = self.qos
        if self.keep_response_samples:
            data["keep_response_samples"] = True
        return data

    @property
    def digest(self) -> str:
        """Content address of this cell: sha256 of the canonical JSON."""
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable cell name for logs and bench records."""
        parts = [self.workload, self.ftl]
        if self.tpftl is not None:
            parts.append(self.tpftl.monogram or "-")
        if self.cache_fraction is not None:
            parts.append(f"cf={self.cache_fraction:g}")
        if self.channels != 1:
            parts.append(f"ch={self.channels}")
        if self.traffic is not None:
            parts.append(f"mix={len(self.traffic.tenants)}t")
        if self.qos != "fifo":
            parts.append(self.qos)
        return ":".join(parts)


# ----------------------------------------------------------------------
# Deterministic cell execution (shared by serial path and pool workers)
# ----------------------------------------------------------------------
_TRACE_MEMO: Dict[Tuple, Trace] = {}
#: traces this process has synthesised (a memo miss each); a cell's
#: bench record says whether its own run moved it
_trace_builds = 0


def _trace_key(spec: RunSpec) -> Tuple:
    """The memo key of a spec's trace: everything the trace depends on."""
    if spec.traffic is not None:
        return ("traffic",
                json.dumps(spec.traffic.canonical(), sort_keys=True))
    scale = spec.scale
    return (spec.workload, scale.pages_for(spec.workload),
            scale.num_requests, spec.seed)


def _synthesise(spec: RunSpec) -> Trace:
    """Build a spec's trace from scratch (no memo)."""
    global _trace_builds
    _trace_builds += 1
    if spec.traffic is not None:
        return compose(spec.traffic)
    scale = spec.scale
    kwargs: Dict[str, Any] = dict(logical_pages=scale.pages_for(spec.workload),
                                  num_requests=scale.num_requests)
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    return make_preset(spec.workload, **kwargs)


def _trim_trace_memo(entries: int) -> None:
    """Drop the oldest memoised traces until at most ``entries`` remain."""
    while len(_TRACE_MEMO) > entries:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))


def build_spec_trace(spec: RunSpec) -> Trace:
    """Build (or reuse) the deterministic trace a spec describes.

    Traffic cells compose their multi-tenant schedule from the embedded
    :class:`~repro.workloads.TrafficSpec` (which carries its own
    namespace sizes, request budgets and seeds); single-stream cells
    generate their preset from the experiment scale as before.  Both
    are memoised per process — a trace is a pure function of its memo
    key.
    """
    key = _trace_key(spec)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = _synthesise(spec)
        _trim_trace_memo(TRACE_MEMO_ENTRIES - 1)
        _TRACE_MEMO[key] = trace
    return trace


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one cell from scratch (no cache) and return its result."""
    trace = build_spec_trace(spec)
    config = simulation_config(trace, cache_fraction=spec.cache_fraction,
                               tpftl=spec.tpftl, channels=spec.channels)
    ftl = make_ftl(spec.ftl, config)
    weights = (spec.traffic.weights()
               if spec.traffic is not None and spec.qos == "fair"
               else None)
    return simulate(ftl, trace, sample_interval=spec.sample_interval,
                    keep_response_samples=spec.keep_response_samples,
                    warmup_requests=spec.scale.warmup_requests,
                    channels=config.channels, qos=spec.qos,
                    tenant_weights=weights)


def _timed_execute(spec: RunSpec) -> Tuple[RunResult, float, bool]:
    """Pool worker: execute a cell and measure its wall-clock; the flag
    says whether this process synthesised the cell's trace."""
    builds = _trace_builds
    started = time.perf_counter()  # tp: allow=TP002 - harness timing, not simulation
    result = execute_spec(spec)
    elapsed = time.perf_counter() - started  # tp: allow=TP002 - harness timing
    return result, elapsed, _trace_builds != builds


# ----------------------------------------------------------------------
# RunResult <-> JSON
# ----------------------------------------------------------------------
class _Codec:
    """Field-driven JSON codec of one dataclass: every field crosses
    unchanged except those ``special`` maps to an (encode, decode) pair.
    Decoding raises ``KeyError`` on a missing field."""

    def __init__(self, cls: type,
                 **special: Tuple[Callable[[Any], Any],
                                  Callable[[Any], Any]]) -> None:
        self.cls = cls
        self.names = tuple(field.name for field in dataclasses.fields(cls))
        self.special = special

    def encode(self, obj: Any) -> Dict[str, Any]:
        """``obj`` as a JSON-safe dict, one key per field."""
        payload = {name: getattr(obj, name) for name in self.names}
        for name, (encode, _) in self.special.items():
            payload[name] = encode(payload[name])
        return payload

    def decode(self, payload: Dict[str, Any]) -> Any:
        """Rebuild the dataclass from :meth:`encode` output."""
        values = {name: payload[name] for name in self.names}
        for name, (_, decode) in self.special.items():
            values[name] = decode(values[name])
        return self.cls(**values)


_METRICS = _Codec(FTLMetrics)
_STATS = _Codec(ResponseStats, samples=(list, list))
_SAMPLE_ROW = operator.attrgetter(
    *(field.name for field in dataclasses.fields(CacheSample)))
# JSON has no tuples and no int keys: sample rows cross as lists and
# histogram keys as strings
_SAMPLER = _Codec(
    CacheSampler,
    samples=(lambda samples: [list(_SAMPLE_ROW(s)) for s in samples],
             lambda rows: [CacheSample(*row) for row in rows]),
    dirty_histogram=(lambda counts: {str(k): v for k, v in counts.items()},
                     lambda counts: {int(k): v for k, v in counts.items()}))
_RESULT = _Codec(
    RunResult,
    metrics=(_METRICS.encode, _METRICS.decode),
    response=(_STATS.encode, _STATS.decode),
    sampler=(lambda sampler: (None if sampler is None
                              else _SAMPLER.encode(sampler)),
             lambda payload: (None if payload is None
                              else _SAMPLER.decode(payload))),
    faults=(dict, dict),
    tenants=(lambda tenants: {name: _STATS.encode(stats) for name, stats
                              in sorted(tenants.items())},
             lambda tenants: {name: _STATS.decode(stats) for name, stats
                              in tenants.items()}))
#: constants no run sets any more, kept so no golden digest or cache
#: address changes
_IDLE_GC_KEYS = {"background_gc_time_us": 0.0, "background_collections": 0}


def encode_result(result: RunResult) -> Dict[str, Any]:
    """Encode a :class:`RunResult` as a JSON-safe dict."""
    payload = _RESULT.encode(result)
    payload.update(_IDLE_GC_KEYS)
    return payload


def decode_result(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`encode_result` output.

    Raises on any shape mismatch (missing keys, renamed fields); the
    cache layer treats every decoding error as a miss.
    """
    return _RESULT.decode(payload)


# ----------------------------------------------------------------------
# Code fingerprint: invalidates the cache whenever the simulator changes
# ----------------------------------------------------------------------
_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source file, memoised per process.

    Any change to the package (FTL logic, workload generators, metrics,
    the runner itself) yields a new fingerprint, so stale cache entries
    can never leak across code versions.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


# ----------------------------------------------------------------------
# RunCache: content-addressed, persistent, self-invalidating
# ----------------------------------------------------------------------
class RunCache:
    """Persistent cache of finished cells, keyed by :attr:`RunSpec.digest`.

    One JSON file per cell under ``directory``; files from another
    schema or code version are misses, and undecodable files are
    quarantined into ``directory/corrupt/`` and counted in
    :meth:`stats` — a flaky disk surfaces as a number, not a silent
    recompute.  A runner without a cache holds ``cache=None``; there is
    no cache object that caches nothing.
    """

    #: subdirectory receiving quarantined (undecodable) cache files
    CORRUPT_DIR = "corrupt"

    def __init__(self, directory: "Path | str") -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0
        self.corrupt = 0
        self.write_errors = 0
        self._warned_unwritable = False

    # -- lookup ---------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[Tuple[RunResult, float]]:
        """Return ``(result, original_elapsed_s)`` for a cached cell."""
        entry = self._read_disk(spec.digest)
        self.hits += entry is not None
        self.misses += entry is None
        return entry

    def _read_disk(self, digest: str) -> Optional[Tuple[RunResult, float]]:
        path = self.directory / f"{digest}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (payload["schema"] != CACHE_SCHEMA
                    or payload["fingerprint"] != code_fingerprint()
                    or payload["digest"] != digest):
                self.invalid += 1
                return None
            return (decode_result(payload["result"]),
                    float(payload["elapsed_s"]))
        except FileNotFoundError:
            return None
        except Exception:
            # corrupt/truncated file: quarantine it, count it, recompute
            self.corrupt += 1
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move an undecodable cache file aside for post-mortem.

        The file lands in ``directory/corrupt/`` (best-effort: a
        read-only cache directory leaves it in place) so the evidence
        of a flaky disk or torn write survives instead of being
        clobbered by the recomputed entry.
        """
        target_dir = self.directory / self.CORRUPT_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            pass

    # -- store ----------------------------------------------------------
    def put(self, spec: RunSpec, result: RunResult,
            elapsed_s: float) -> None:
        """Persist one finished cell (atomically)."""
        digest = spec.digest
        payload = {
            "schema": CACHE_SCHEMA,
            "fingerprint": code_fingerprint(),
            "digest": digest,
            "spec": spec.canonical(),
            "elapsed_s": elapsed_s,
            "result": encode_result(result),
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, self.directory / f"{digest}.json")
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            self.stores += 1
        except OSError as exc:
            # read-only filesystem etc.: run uncached rather than fail,
            # but say so once — a cache that never persists should not
            # masquerade as a working cache
            self.write_errors += 1
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"run cache directory {self.directory} is not "
                    f"writable ({exc}); results will not persist "
                    f"across runs", RuntimeWarning, stacklevel=2)

    # -- maintenance ----------------------------------------------------
    def wipe(self) -> int:
        """Delete every persistent entry (quarantined files included);
        returns the number removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        targets = list(self.directory.glob("*.json"))
        targets += list((self.directory / self.CORRUPT_DIR).glob("*.json"))
        for path in targets:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store/corruption counters since this cache was
        created.  ``corrupt`` counts quarantined undecodable files,
        ``write_errors`` counts entries that could not be persisted."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalid": self.invalid,
                "corrupt": self.corrupt,
                "write_errors": self.write_errors}


def default_cache_dir() -> Optional[Path]:
    """Cache directory from :data:`CACHE_ENV`, or the default; ``None``
    when the environment disables persistent caching."""
    value = os.environ.get(CACHE_ENV)
    if value is None:
        return DEFAULT_CACHE_DIR
    if value.strip().lower() in ("", "off", "none", "0", "disabled"):
        return None
    return Path(value)


# ----------------------------------------------------------------------
# ParallelRunner
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CellOutcome:
    """Bench record of one cell inside a :meth:`run_specs` batch.

    ``attempts`` counts supervised execution attempts (0 for a cache
    hit); ``failed`` marks a quarantined cell whose
    :class:`~repro.errors.CellFailure` record appears in the bench
    report's ``failures`` list; ``trace_built`` is true when the process
    that ran the cell synthesised its trace (false for a memo hit, a
    trace the runner built before forking its workers, or a cache hit).
    """

    digest: str
    label: str
    elapsed_s: float
    cached: bool
    attempts: int = 0
    failed: bool = False
    trace_built: bool = False


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs`` wins, then :data:`JOBS_ENV`,
    then 1 (serial)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ExperimentError(
                    f"{JOBS_ENV} must be an integer, got {env!r}")
        else:
            jobs = 1
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return jobs


class ParallelRunner:
    """Executes batches of cells, cache-first, under supervision.

    ``jobs=1`` (the default) runs cells inline with no worker
    processes; ``jobs>1`` fans cache misses out across supervised
    worker processes.  At every job count transient failures (worker
    death, a refused spawn, ``OSError``) are retried, and persistent
    failures are quarantined as :class:`~repro.errors.CellFailure`
    records.  Completed cells are committed to the cache the moment
    they finish, so a Ctrl-C never loses finished work and a rerun
    simulates only what is missing; ``cache=None`` is the one way to
    run without one.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[RunCache] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        #: ``None`` disables caching (every cell recomputes)
        self.cache = cache
        self._supervisor = Supervisor(jobs=self.jobs)
        #: quarantine records accumulated across batches
        self.failures: List[CellFailure] = []
        self.outcomes: List[CellOutcome] = []
        #: wall-clock summed over the :meth:`run_specs` batches
        self._wall_s = 0.0

    # -- cell batches ---------------------------------------------------
    def run_specs(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run a batch of cells and return results in input order.

        Identical specs are executed once; cached cells are served from
        the :class:`RunCache` without simulating.  Quarantined cells
        raise :class:`~repro.errors.MatrixFailureError` *after* every
        other cell has completed and been cached; their records are
        also on :attr:`failures` and in the bench report.
        """
        batch_started = time.perf_counter()  # tp: allow=TP002 - harness timing
        order = [spec.digest for spec in specs]
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.digest, spec)
        # a scale whose warmup measures nothing fails every one of its
        # cells in the device: refuse it once, before any cell runs
        for spec in unique.values():
            spec.scale.check_measured()
        # (result, elapsed_s, cached, trace_built) per finished cell
        done: Dict[str, Tuple[RunResult, float, bool, bool]] = {}
        pending: List[RunSpec] = []
        for digest, spec in unique.items():
            entry = self.cache.get(spec) if self.cache is not None else None
            if entry is not None:
                done[digest] = (entry[0], entry[1], True, False)
            else:
                pending.append(spec)
        failures: Dict[str, CellFailure] = {}
        attempts: Dict[str, int] = {}
        if pending:
            tasks = [Task(key=spec.digest, label=spec.label(),
                          fn=_timed_execute, args=(spec,))
                     for spec in pending]

            def commit(key: str,
                       value: Tuple[RunResult, float, bool]) -> None:
                """Cache a finished cell immediately (Ctrl-C-safe)."""
                result, elapsed, built = value
                if self.cache is not None:
                    self.cache.put(unique[key], result, elapsed)
                done[key] = (result, elapsed, False, built)

            if self._supervisor.forks_workers:
                # every forked worker inherits the memo: build each
                # distinct trace once, here, and keep all of them for
                # the batch (a spawned worker would synthesise its own)
                for spec in pending:
                    key = _trace_key(spec)
                    if key not in _TRACE_MEMO:
                        try:
                            _TRACE_MEMO[key] = _synthesise(spec)
                        except Exception:
                            # its worker meets the same error, and the
                            # supervisor quarantines the cell
                            continue
            try:
                report = self._supervisor.run(tasks, on_complete=commit)
            finally:
                _trim_trace_memo(TRACE_MEMO_ENTRIES)
            failures = report.failures
            attempts = report.attempts
            self.failures.extend(failures.values())
        for digest in unique:
            if digest in done:
                result, elapsed, cached, built = done[digest]
                self.outcomes.append(CellOutcome(
                    digest=digest, label=unique[digest].label(),
                    elapsed_s=elapsed, cached=cached,
                    attempts=attempts.get(digest,
                                          0 if cached else 1),
                    trace_built=built))
            else:
                failure = failures[digest]
                self.outcomes.append(CellOutcome(
                    digest=digest, label=unique[digest].label(),
                    elapsed_s=failure.elapsed_s, cached=False,
                    attempts=failure.attempts, failed=True))
        self._wall_s += time.perf_counter() - batch_started  # tp: allow=TP002 - harness timing
        if failures:
            raise MatrixFailureError(
                [failures[d] for d in unique if d in failures])
        return [done[digest][0] for digest in order]

    # -- generic fan-out (faults/analysis registry experiments) ---------
    def map(self, fn: Callable[..., Any],
            items: Sequence[Tuple]) -> List[Any]:
        """Apply ``fn(*args)`` to every args-tuple, in order.

        ``fn`` must be a module-level (picklable) callable.  Items run
        under the same supervision as :meth:`run_specs` at every job
        count, so a failing item becomes the same
        :class:`~repro.errors.CellFailure` at ``jobs=1`` as at
        ``jobs=2``, raised as :class:`~repro.errors.MatrixFailureError`
        after the remaining items complete.  Results are not cached —
        use :meth:`run_specs` for content-addressed cells.
        """
        name = getattr(fn, "__name__", "fn")
        tasks = [Task(key=f"map:{index:04d}:{name}",
                      label=f"{name}[{index}]", fn=fn, args=tuple(args))
                 for index, args in enumerate(items)]
        report = self._supervisor.run(tasks)
        if report.failures:
            self.failures.extend(report.failures.values())
            raise MatrixFailureError(
                [report.failures[t.key] for t in tasks
                 if t.key in report.failures])
        return [report.results[t.key] for t in tasks]

    # -- bench trajectory ----------------------------------------------
    def bench_report(self) -> Dict[str, Any]:
        """Everything measured so far, in ``BENCH_runner.json`` shape.

        ``serial_equivalent_s`` sums the cells this runner executed: a
        cache hit's recorded ``elapsed_s`` is the run that filled the
        cache, not work done here."""
        outcomes = self.outcomes
        hits = sum(outcome.cached for outcome in outcomes)
        serial = sum(outcome.elapsed_s for outcome in outcomes
                     if not (outcome.failed or outcome.cached))
        return {
            "bench": "runner",
            "schema": CACHE_SCHEMA,
            "jobs": self.jobs,
            "cells": [dataclasses.asdict(outcome) for outcome in outcomes],
            "failures": [failure.to_payload()
                         for failure in self.failures],
            "totals": {
                "cells": len(outcomes),
                "cache_hits": hits,
                "cache_misses": len(outcomes) - hits,
                "failed": len(self.failures),
                "retries": sum(max(outcome.attempts - 1, 0)
                               for outcome in outcomes),
                "wall_clock_s": self._wall_s,
                "serial_equivalent_s": serial,
            },
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
        }

    def write_bench(self, path: "Path | str") -> Path:
        """Write :meth:`bench_report` as JSON; returns the path."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.bench_report(), indent=2)
                          + "\n", encoding="utf-8")
        return target


# ----------------------------------------------------------------------
# The process-wide default runner (what run_matrix & friends use)
# ----------------------------------------------------------------------
_DEFAULT_RUNNER: Optional[ParallelRunner] = None


def get_runner() -> ParallelRunner:
    """The shared runner, created on first use from the environment
    (:func:`default_cache_dir` picks its cache)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = configure_runner(cache_dir=default_cache_dir())
    return _DEFAULT_RUNNER


def configure_runner(jobs: Optional[int] = None, *,
                     cache_dir: "Path | str | None") -> ParallelRunner:
    """Install (and return) a new default runner.

    ``cache_dir`` is the run-cache directory, or ``None`` for a runner
    without a cache.  Raises :class:`~repro.errors.ExperimentError` on
    a bad job count, before anything runs.
    """
    global _DEFAULT_RUNNER
    cache = RunCache(cache_dir) if cache_dir is not None else None
    _DEFAULT_RUNNER = ParallelRunner(jobs=jobs, cache=cache)
    return _DEFAULT_RUNNER


def reset_runner() -> None:
    """Forget the default runner (next use rebuilds from environment)."""
    global _DEFAULT_RUNNER
    _DEFAULT_RUNNER = None


def clear_run_caches() -> None:
    """Drop in-process memoisation: the per-process trace memo.
    Persistent cache files are untouched (use :meth:`RunCache.wipe` for
    those)."""
    _TRACE_MEMO.clear()
