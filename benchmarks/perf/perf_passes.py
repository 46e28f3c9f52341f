"""One pass of one workload: a cold cell, timed from outside.

A pass is what a user pays on a run-cache miss: clear the trace memo,
synthesize the trace, build config + FTL (prefill) + device, replay
through the default core with the scale's warmup, encode the result and
hash it.  Every layer is measured by timing calls into its public
functions; nothing under ``src/`` knows it is being watched.  The six
coarse spans of a pass are always recorded (they *are* the end-to-end
timings); a traced pass additionally shadows ``serve_request`` on the
one FTL instance it built, for per-request spans, and a profiled pass
runs the same code under ``cProfile`` for per-module call counts.

Passes run in a forked child (:func:`in_child`) so heap state never
leaks from one pass into the next and ``ru_maxrss`` is per pass.
"""

from __future__ import annotations

import cProfile
import contextlib
import hashlib
import json
import os
import pstats
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perf_cells import cell_config, cell_spec
from repro.experiments.common import ExperimentScale
from repro.experiments.runner import (RunCache, build_spec_trace,
                                      clear_run_caches, code_fingerprint,
                                      encode_result)
from repro.ftl import make_ftl
from repro.ssd import RunResult, make_device, run_fast

#: ``repro.<module>`` names the profile is folded into
PROFILE_LAYERS = ("ftl", "cache", "flash", "gc", "ssd", "metrics",
                  "workloads")
#: iterations of the calibration loop, and the seconds they take on the
#: host speed the drift-corrected timings are expressed in (this
#: sandbox, quiet).  Changing either rescales every host-time metric.
CALIBRATION_STEPS = 300_000
CALIBRATION_NOMINAL_S = 0.045


class Spans:
    """In-memory span log of one pass: ``[name, start, end, parent]``.

    Times are ``perf_counter`` seconds; the writer rebases them on the
    first span's start.  A span's id is its index in :attr:`records`.
    """

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        record = [name, 0.0, 0.0, parent]
        self.records.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()  # tp: allow=TP002 - harness timing
        try:
            yield index
        finally:
            record[2] = time.perf_counter()  # tp: allow=TP002 - harness timing
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for span, start, end, _ in self.records
                   if span == name)


class ServeProbe:
    """Per-request spans on ``serve_request``, and which core ran.

    Instance attributes shadow the two methods on the one FTL and the
    one device of this pass; :meth:`remove` deletes them again, so the
    classes — and every other instance — are never touched.
    """

    def __init__(self, ftl, device) -> None:
        self.ftl = ftl
        self.device = device
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.erases: List[int] = []
        #: calls into the reference per-op loop (``DeviceModel.run``)
        self.reference_runs = 0
        serve = ftl.serve_request
        reference_run = device.run
        starts, ends, erases = self.starts, self.ends, self.erases
        clock = time.perf_counter  # tp: allow=TP002 - harness timing

        def traced_serve(request):
            started = clock()
            cost = serve(request)
            ends.append(clock())
            starts.append(started)
            erases.append(cost.erases)
            return cost

        def counted_run(*args, **kwargs):
            self.reference_runs += 1
            return reference_run(*args, **kwargs)

        ftl.serve_request = traced_serve
        device.run = counted_run

    def remove(self) -> None:
        del self.ftl.serve_request
        del self.device.run


def result_digest(payload: str) -> str:
    """sha256 of the run cache's sorted JSON encoding (the parity key
    ``fastbench.result_digest`` uses)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Slot:
    """One entry of the calibration loop's table."""

    __slots__ = ("key", "count", "link")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0
        self.link: Optional["_Slot"] = None


def calibrate(spans: Spans) -> float:
    """Time a fixed interpreter-bound loop; return its seconds.

    The sandbox's speed swings by +-20 % in phases a few seconds long
    (a pure CPU loop shows the same swings, wall and CPU time alike), so
    a 10 s run can sit wholly in a fast or a slow phase.  Each pass
    therefore times this loop — dict probes, slotted-attribute updates,
    list appends and small-int arithmetic, the simulator's own
    instruction mix — beside each stage, in the same process, and
    reports stage seconds scaled by ``CALIBRATION_NOMINAL_S / measured``.
    The loop is outside every timed stage and does the same work on
    every call.
    """
    with spans.span("host.calibrate") as index:
        table: Dict[int, _Slot] = {}
        recent: List[int] = []
        previous = None
        total = 0
        for step in range(CALIBRATION_STEPS):
            key = (step * 7919) % 4096
            slot = table.get(key)
            if slot is None:
                slot = table[key] = _Slot(key)
                slot.link = previous
                previous = slot
            slot.count += 1
            total += slot.count * 3 % 11
            recent.append(total)
            if len(recent) > 512:
                recent = []
    _, started, ended, _ = spans.records[index]
    return ended - started


def run_pass(name: str, scale: ExperimentScale, seed: int,
             reference: bool = False,
             trace_file: Optional[Path] = None) -> Dict[str, Any]:
    """Run one cold cell and return its timings, digest and statistics.

    ``reference`` replays through ``DeviceModel.run`` instead of the
    default core (the oracle for seeds without a golden).  A
    ``trace_file`` makes this the traced pass: per-request spans, the
    per-layer numbers under ``"layers"``, and the span log on disk.

    ``wall_s`` / ``setup_s`` / ``replay_s`` are drift-corrected (see
    :func:`calibrate`): each stage is scaled by the loop timings on
    either side of it.  ``raw_wall_s`` is the uncorrected sum.
    """
    spans = Spans()
    probe = None
    with spans.span("pass"):
        loop_s = [calibrate(spans)]
        with spans.span("setup"):
            clear_run_caches()
            spec = cell_spec(name, scale, seed)
            with spans.span("workloads.trace_synth"):
                trace = build_spec_trace(spec)
            with spans.span("ftl.prefill"):
                ftl = make_ftl(spec.ftl,
                               cell_config(name, spec, trace, seed))
            with spans.span("ssd.make_device"):
                device = make_device(
                    ftl, channels=spec.channels,
                    sample_interval=spec.sample_interval,
                    keep_response_samples=spec.keep_response_samples,
                    qos=spec.qos,
                    tenant_weights=(
                        spec.traffic.weights()
                        if spec.traffic is not None and spec.qos == "fair"
                        else None))
        loop_s.append(calibrate(spans))
        if trace_file is not None:
            probe = ServeProbe(ftl, device)
        try:
            with spans.span("ssd.replay") as replay_id:
                if reference:
                    result = device.run(
                        trace, warmup_requests=scale.warmup_requests)
                else:
                    result = run_fast(
                        device, trace,
                        warmup_requests=scale.warmup_requests)
        finally:
            if probe is not None:
                probe.remove()
        loop_s.append(calibrate(spans))
        with spans.span("runner.encode"):
            payload = json.dumps(encode_result(result), sort_keys=True)
        with spans.span("digest"):
            digest = result_digest(payload)
    raw_setup_s = spans.seconds("setup")
    raw_replay_s = spans.seconds("ssd.replay")
    raw_finish_s = spans.seconds("runner.encode") + spans.seconds("digest")
    before, between, after = loop_s
    setup_s = raw_setup_s * CALIBRATION_NOMINAL_S / ((before + between) / 2)
    replay_s = raw_replay_s * CALIBRATION_NOMINAL_S / ((between + after) / 2)
    finish_s = raw_finish_s * CALIBRATION_NOMINAL_S / after
    metrics = result.metrics
    report = {
        "wall_s": setup_s + replay_s + finish_s,
        "setup_s": setup_s,
        "replay_s": replay_s,
        "raw_wall_s": raw_setup_s + raw_replay_s + raw_finish_s,
        "requests": len(trace),
        "digest": digest,
        "sim": {
            "sim_mean_response_us": result.response.mean,
            "sim_hit_ratio": metrics.hit_ratio,
            "sim_write_amplification": metrics.write_amplification,
            "sim_trans_page_ops": (metrics.translation_page_reads
                                   + metrics.translation_page_writes),
        },
    }
    if probe is not None:
        _time_run_cache(spans, spec, result, report["raw_wall_s"],
                        trace_file.parent)
        report["layers"] = _layer_numbers(spans, probe, trace, result,
                                          ftl.flash.stats)
        report["layers"]["host.speed_factor"] = (
            sum(loop_s) / len(loop_s) / CALIBRATION_NOMINAL_S)
        _write_trace(trace_file, name, seed, spans, probe, replay_id)
    return report


def _time_run_cache(spans: Spans, spec, result: RunResult,
                    elapsed_s: float, scratch: Path) -> None:
    """Spans on ``RunCache.put`` / ``get`` against a throwaway dir.

    The source fingerprint is memoised per process and paid once per
    matrix, not per cell, so it is warmed outside the spans; ``get``
    reads the file back (a fresh cache object has no memory level).
    """
    code_fingerprint()
    directory = Path(tempfile.mkdtemp(prefix="runcache-", dir=scratch))
    try:
        with spans.span("runner.cache_put"):
            RunCache(directory).put(spec, result, elapsed_s)
        with spans.span("runner.cache_get"):
            entry = RunCache(directory).get(spec)
        if entry is None:
            raise RuntimeError("run cache lost the entry it just stored")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _layer_numbers(spans: Spans, probe: ServeProbe, trace,
                   result: RunResult, flash_stats) -> Dict[str, Any]:
    """The per-layer numbers of a traced pass, keyed ``layer.metric``.

    Host-time spans cover every request (warmup included, as
    ``replay_kreq_per_s`` does); ``FTLMetrics`` / ``FlashStats``
    counters cover the measured window after warmup, exactly.
    """
    metrics = result.metrics
    serve_us = [(end - start) * 1e6
                for start, end in zip(probe.starts, probe.ends)]
    serve_s = sum(serve_us) / 1e6
    gc_spans = [(end - start)
                for start, end, erased in zip(probe.starts, probe.ends,
                                              probe.erases) if erased]
    gc_serve_s = sum(gc_spans)
    replay_s = spans.seconds("ssd.replay")
    collections = (metrics.gc_data_collections
                   + metrics.gc_translation_collections)
    migrated = (metrics.gc_data_valid_migrated
                + metrics.gc_trans_valid_migrated)
    requests = len(trace)
    return {
        "workloads.trace_synth_s": spans.seconds("workloads.trace_synth"),
        "workloads.requests": requests,
        "workloads.pages_per_request": (
            sum(request.npages for request in trace) / requests),
        "ftl.prefill_s": spans.seconds("ftl.prefill"),
        "ftl.serve_s": serve_s,
        "ftl.serve_us_p50": statistics.median(serve_us),
        "ftl.serve_us_p99": statistics.quantiles(serve_us, n=100)[98],
        "ftl.policy_s": serve_s - gc_serve_s,
        "ftl.lookups": metrics.lookups,
        "ftl.hit_ratio": metrics.hit_ratio,
        "ftl.replacements": metrics.replacements,
        "ftl.dirty_replacement_ratio": metrics.p_replace_dirty,
        "ftl.prefetched_entries": metrics.prefetched_entries,
        "ftl.prefetch_hit_ratio": (
            metrics.prefetch_hits / metrics.prefetched_entries
            if metrics.prefetched_entries else 0.0),
        "ftl.batch_cleaned_entries": metrics.batch_cleaned_entries,
        "ftl.trans.cache.load": metrics.trans_reads_load,
        "ftl.trans.cache.writeback_reads": metrics.trans_reads_writeback,
        "ftl.trans.cache.writeback_writes": metrics.trans_writes_writeback,
        "ftl.trans.gc_update_reads": metrics.trans_reads_gc,
        "ftl.trans.gc_update_writes": metrics.trans_writes_gc_update,
        "ftl.trans.migration_reads": metrics.trans_reads_migration,
        "ftl.trans.migration_writes": metrics.trans_writes_migration,
        "gc.requests_with_gc": len(gc_spans),
        "gc.serve_s": gc_serve_s,
        "gc.data_collections": metrics.gc_data_collections,
        "gc.translation_collections": metrics.gc_translation_collections,
        "gc.valid_pages_per_collection": (
            migrated / collections if collections else 0.0),
        "gc.sim_time_fraction": result.gc_time_fraction,
        "flash.page_reads": flash_stats.total_reads,
        "flash.page_writes": flash_stats.total_writes,
        "flash.erases": flash_stats.total_erases,
        "ssd.replay_s": replay_s,
        "ssd.fold_s": replay_s - serve_s,
        "ssd.mean_queue_delay_us": result.response.mean_queue_delay,
        "ssd.makespan_us": result.makespan,
        "ssd.core": 1 if probe.reference_runs else 0,
        "runner.encode_s": spans.seconds("runner.encode"),
        "runner.cache_put_s": spans.seconds("runner.cache_put"),
        "runner.cache_get_s": spans.seconds("runner.cache_get"),
    }


def _write_trace(path: Path, name: str, seed: int, spans: Spans,
                 probe: ServeProbe, replay_id: int) -> None:
    """Write the span log; times are seconds since the pass started."""
    origin = spans.records[0][1]
    document = {
        "workload": name,
        "seed": seed,
        "clock": "seconds since the pass span started (perf_counter)",
        "spans": [
            {"id": index, "name": span, "parent": parent,
             "start": round(start - origin, 9),
             "end": round(end - origin, 9)}
            for index, (span, start, end, parent)
            in enumerate(spans.records)],
        "request_spans": {
            "name": "ftl.serve_request",
            "parent": replay_id,
            "columns": ["request", "start", "end", "erases"],
            "rows": [
                [index, round(start - origin, 9), round(end - origin, 9),
                 erased]
                for index, (start, end, erased)
                in enumerate(zip(probe.starts, probe.ends, probe.erases))],
        },
    }
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def profile_pass(name: str, scale: ExperimentScale,
                 seed: int) -> Dict[str, Any]:
    """One pass under ``cProfile``, folded by ``repro.<module>``.

    Call counts repeat exactly for a fixed seed; self-time shares are
    indicative only (the hook taxes Python calls, not C calls).
    """
    profiler = cProfile.Profile()
    report = profiler.runcall(run_pass, name, scale, seed)
    calls = dict.fromkeys(PROFILE_LAYERS, 0)
    self_s = dict.fromkeys(PROFILE_LAYERS, 0.0)
    total_s = 0.0
    marker = os.sep + "repro" + os.sep
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(
            profiler).stats.items():  # type: ignore[attr-defined]
        if filename == __file__:
            continue  # the harness itself (calibration loop, spans)
        total_s += tottime
        _, found, tail = filename.rpartition(marker)
        layer = tail.split(os.sep)[0] if found else ""
        if layer in calls:
            calls[layer] += ncalls
            self_s[layer] += tottime
    layers: Dict[str, Any] = {}
    for layer in PROFILE_LAYERS:
        layers[f"{layer}.calls_per_request"] = (
            calls[layer] / report["requests"])
        layers[f"{layer}.self_share"] = self_s[layer] / total_s
    return {"digest": report["digest"], "layers": layers}


def in_child(work: Callable[[], Dict[str, Any]]
             ) -> Tuple[Dict[str, Any], float]:
    """Run ``work`` in a forked child; return its report and peak RSS.

    The report comes back as JSON over a pipe; a child that raises
    reports ``{"error": traceback}``.  Peak RSS is the child's own
    ``ru_maxrss`` (KiB on Linux) in MiB.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                report = work()
            except Exception:
                report = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        text = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not text:
        return {"error": f"pass child exited with status {status}"}, 0.0
    return json.loads(text), usage.ru_maxrss / 1024.0
