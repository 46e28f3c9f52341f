"""``tpftl-sim``: run any FTL against any workload from the shell.

A general-purpose front door to the simulator, complementing the
figure-oriented ``tpftl-experiments`` CLI::

    tpftl-sim --ftl tpftl --workload financial1 --requests 20000
    tpftl-sim --ftl dftl --trace Financial1.spc --format spc
    tpftl-sim --ftl tpftl --workload msr-ts --cache-fraction 0.03125
    tpftl-sim --ftl sftl --workload msr-src --channels 4 --json -

Prints the run summary as a table (or JSON with ``--json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .config import (CacheConfig, SimulationConfig, SSDConfig,
                     TPFTLConfig)
from .errors import CacheError, ConfigError, WorkloadError
from .ftl import FTL_NAMES, make_ftl
from .metrics import format_table
from .ssd import DeviceModel
from .workloads import (PRESET_NAMES, load_msr_trace, load_spc_trace,
                        make_preset)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tpftl-sim",
        description="Simulate an FTL over a workload and report the "
                    "paper's metrics")
    parser.add_argument("--ftl", choices=FTL_NAMES, default="tpftl")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", choices=PRESET_NAMES,
                        default="financial1",
                        help="synthetic Table 4 preset (default)")
    source.add_argument("--trace", metavar="FILE",
                        help="replay a trace file instead")
    parser.add_argument("--format", choices=("spc", "msr"),
                        default="spc", help="trace file format")
    parser.add_argument("--requests", type=int, default=20_000,
                        help="synthetic trace length")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup requests (default: requests/4)")
    parser.add_argument("--pages", type=int, default=None,
                        help="device size in 4KB pages (default: sized "
                             "to the workload)")
    parser.add_argument("--cache-fraction", type=float, default=None,
                        help="mapping cache as a fraction of the full "
                             "table (default: the paper's 1/128 rule)")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="mapping cache budget in bytes")
    parser.add_argument("--tpftl-config", default="rsbc",
                        help="TPFTL technique monogram (-, b, c, bc, "
                             "r, s, rs, rsbc)")
    parser.add_argument("--channels", type=int, default=1,
                        help="flash channels (1 = the paper's model)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the summary as JSON ('-' = stdout)")
    return parser


def _load_trace(args: argparse.Namespace):
    if args.trace:
        loader = (load_spc_trace if args.format == "spc"
                  else load_msr_trace)
        return loader(args.trace, wrap_pages=args.pages)
    kwargs = {"num_requests": args.requests, "seed": args.seed}
    if args.pages:
        kwargs["logical_pages"] = args.pages
    return make_preset(args.workload, **kwargs)


def _build_config(args: argparse.Namespace, logical_pages: int
                  ) -> SimulationConfig:
    ssd = SSDConfig(logical_pages=logical_pages)
    cache: Optional[CacheConfig] = None
    if args.cache_bytes is not None:
        cache = CacheConfig(budget_bytes=args.cache_bytes)
    elif args.cache_fraction is not None:
        cache = CacheConfig(
            budget_bytes=ssd.cache_bytes_for_fraction(
                args.cache_fraction))
    return SimulationConfig(
        ssd=ssd, cache=cache,
        tpftl=TPFTLConfig.from_monogram(args.tpftl_config),
        channels=args.channels)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        trace = _load_trace(args)
        if not len(trace):
            raise WorkloadError(
                "the trace has no requests, so nothing would be measured")
        warmup = (args.warmup if args.warmup is not None
                  else len(trace) // 4)
        config = _build_config(args, args.pages or trace.logical_pages)
        ftl = make_ftl(args.ftl, config)
    except (ConfigError, CacheError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    device = DeviceModel(ftl, channels=config.channels)
    try:
        # refuses a warmup outside [0, len(trace)) before serving anything
        run = device.run(trace, warmup_requests=warmup)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run.summary()
    summary["cache_bytes"] = config.resolved_cache().budget_bytes
    if args.json is not None:
        payload = json.dumps(summary, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
    else:
        rows = [[key, value] for key, value in summary.items()]
        print(format_table(["Metric", "Value"], rows,
                           title=f"{args.ftl} on {trace.name} "
                                 f"({run.requests} measured requests)"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
