"""Command-line entry point for the experiment runners.

Usage::

    python -m repro.experiments fig6a fig6b      # specific experiments
    python -m repro.experiments all              # everything, in order
    python -m repro.experiments all --scale full # paper-scale runs
    python -m repro.experiments all --jobs 8     # parallel cells
    python -m repro.experiments all --bench BENCH_runner.json
    tpftl-experiments table2                     # installed script

Finished simulation cells persist in ``results/.runcache`` (override
with ``--cache-dir``/``$REPRO_RUNCACHE``, disable with ``--no-cache``,
reset with ``--wipe-cache``), so re-runs only simulate what changed.

A quarantined cell exits 1 with its summary and traceback on stderr
instead of an escaped traceback; Ctrl-C exits 130.  Each finished cell
is already in the cache, and the cache is the resume: rerunning the
same command simulates only the cells that are not cached yet.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError, ExperimentError, RunnerError
from .common import ExperimentScale
from .registry import EXPERIMENTS, run_experiment
from .runner import configure_runner, default_cache_dir


def _at_least_one(text: str) -> int:
    """``--jobs`` argument type: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tpftl-experiments",
        description=("Regenerate the tables and figures of the TPFTL "
                     "paper (EuroSys'15)"))
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'")
    parser.add_argument(
        "--scale", choices=("small", "full"), default="small",
        help="small: CI-sized runs (default); full: paper-scale runs")
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override the number of trace requests")
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="override the number of warmup requests")
    parser.add_argument(
        "--channels", type=int, default=None, metavar="N",
        help="flash channels for every simulation cell (default 1 = "
             "the paper's single-server queue)")
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="also write each result as JSON into this directory")
    parser.add_argument(
        "--jobs", type=_at_least_one, default=None, metavar="N",
        help="worker processes for independent simulation cells "
             "(default: $REPRO_JOBS or 1 = serial)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent run cache for this invocation")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="run-cache directory (default: $REPRO_RUNCACHE or "
             "results/.runcache)")
    parser.add_argument(
        "--wipe-cache", action="store_true",
        help="delete every cached run before executing")
    parser.add_argument(
        "--bench", metavar="FILE", default=None,
        help="write runner bench data (per-cell wall-clock, executed "
             "and wall seconds, cache hits) to this JSON file, e.g. "
             "BENCH_runner.json")
    return parser


def resolve_scale(args: argparse.Namespace) -> ExperimentScale:
    """Build the ExperimentScale the CLI args select."""
    scale = (ExperimentScale.full() if args.scale == "full"
             else ExperimentScale.small())
    overrides = {}
    if args.requests is not None:
        overrides["num_requests"] = args.requests
    if args.warmup is not None:
        overrides["warmup_requests"] = args.warmup
    if args.channels is not None:
        overrides["channels"] = args.channels
    if overrides:
        from dataclasses import replace
        scale = replace(scale, **overrides)
    return scale


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    ids = list(args.experiments)
    if len(ids) == 1 and ids[0].lower() == "all":
        ids = list(EXPERIMENTS)
    unknown = [i for i in ids if i.lower() not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        scale = resolve_scale(args)
        # the device would refuse every cell of this scale
        scale.check_measured()
        runner = configure_runner(
            jobs=args.jobs,
            cache_dir=(None if args.no_cache
                       else args.cache_dir if args.cache_dir is not None
                       else default_cache_dir()))
    except (ConfigError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.wipe_cache and runner.cache is not None:
        removed = runner.cache.wipe()
        print(f"wiped {removed} cached runs", file=sys.stderr)
    json_dir = None
    if args.json is not None:
        json_dir = Path(args.json)
        json_dir.mkdir(parents=True, exist_ok=True)
    try:
        for experiment_id in ids:
            started = time.time()  # tp: allow=TP002 - CLI progress display
            result = run_experiment(experiment_id, scale)
            elapsed = time.time() - started  # tp: allow=TP002 - CLI progress display
            print(result.render())
            print(f"({elapsed:.1f}s)\n")
            if json_dir is not None:
                path = json_dir / f"{experiment_id}_{scale.name}.json"
                path.write_text(result.to_json(), encoding="utf-8")
    except KeyboardInterrupt:
        cached = (runner.cache.stats()["stores"]
                  if runner.cache is not None else 0)
        print(f"\ninterrupted: {cached} completed cells committed to "
              f"the run cache; rerun the same command to finish the "
              f"remaining cells", file=sys.stderr)
        _write_bench(runner, args)
        return 130
    except RunnerError as exc:
        print(f"supervision: {exc}", file=sys.stderr)
        for failure in runner.failures:
            print(f"  quarantined {failure.summary()}", file=sys.stderr)
            if failure.traceback:
                print(failure.traceback.rstrip(), file=sys.stderr)
        _write_bench(runner, args)
        return 1
    _write_bench(runner, args)
    return 0


def _write_bench(runner, args) -> None:
    """Honour ``--bench`` (also on the interrupt/failure exits)."""
    if args.bench is None:
        return
    target = runner.write_bench(args.bench)
    totals = runner.bench_report()["totals"]
    print(f"bench: {totals['cells']} cells, "
          f"{totals['cache_hits']} cache hits, "
          f"{totals['failed']} failed, {totals['retries']} retries, "
          f"{totals['serial_equivalent_s']:.1f}s executed in "
          f"{totals['wall_clock_s']:.1f}s wall -> {target}",
          file=sys.stderr)

