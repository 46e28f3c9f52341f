"""``tpftl-sim``: run any FTL against any workload from the shell.

A general-purpose front door to the simulator, complementing the
figure-oriented ``tpftl-experiments`` CLI::

    tpftl-sim --ftl tpftl --workload financial1 --requests 20000
    tpftl-sim --ftl dftl --trace Financial1.spc --format spc
    tpftl-sim --ftl tpftl --workload msr-ts --cache-fraction 0.03125
    tpftl-sim --ftl sftl --workload msr-src --channels 4 --json -
    tpftl-sim --workload financial1 --tenants 4 --qos fair \\
        --arrival bursty --mean-interarrival-us 2000

``--tenants N`` composes N open-loop tenant streams of the chosen
preset (disjoint namespaces, per-tenant arrival processes) instead of
replaying the preset's closed-loop clock; the summary then carries
per-tenant response statistics, and ``--qos fair`` dispatches through
weighted fair-share lanes instead of the paper's FIFO queue.

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
from .ssd import QOS_POLICIES, DeviceModel
from .workloads import (ARRIVAL_KINDS, PRESET_NAMES, ArrivalModel,
                        compose, load_msr_trace, load_spc_trace,
                        make_preset, uniform_mix)


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
    parser.add_argument("--tenants", type=int, default=None, metavar="N",
                        help="compose N open-loop tenant streams of the "
                             "preset (disjoint namespaces) instead of "
                             "its closed-loop clock")
    parser.add_argument("--arrival", choices=ARRIVAL_KINDS,
                        default="poisson",
                        help="tenant arrival process (with --tenants)")
    parser.add_argument("--mean-interarrival-us", type=float,
                        default=1_000.0, metavar="US",
                        help="per-tenant mean inter-arrival time "
                             "(with --tenants)")
    parser.add_argument("--qos", choices=QOS_POLICIES, default="fifo",
                        help="dispatch policy (fifo = the paper's "
                             "single queue; fair = weighted per-tenant "
                             "lanes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the summary as JSON ('-' = stdout)")
    return parser


def _load_trace(args: argparse.Namespace):
    if args.trace:
        if args.tenants is not None:
            raise SystemExit(
                "--tenants composes synthetic preset streams; it "
                "cannot be combined with --trace")
        loader = (load_spc_trace if args.format == "spc"
                  else load_msr_trace)
        return loader(args.trace, wrap_pages=args.pages)
    if args.tenants is not None:
        from .workloads.presets import FINANCIAL_PAGES, MSR_PAGES
        if args.tenants < 1:
            raise WorkloadError("tenants must be >= 1")
        total_pages = args.pages or (
            MSR_PAGES if args.workload.startswith("msr")
            else FINANCIAL_PAGES)
        spec = uniform_mix(
            name=f"{args.workload}x{args.tenants}",
            workload=args.workload, tenants=args.tenants,
            requests_per_tenant=max(1, args.requests // args.tenants),
            pages_per_tenant=max(1, total_pages // args.tenants),
            arrival=ArrivalModel(
                kind=args.arrival,
                mean_interarrival_us=args.mean_interarrival_us),
            seed=args.seed)
        return compose(spec)
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
        config = _build_config(args, args.pages or trace.logical_pages)
        ftl = make_ftl(args.ftl, config)
    except (ConfigError, CacheError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warmup = (args.warmup if args.warmup is not None
              else len(trace) // 4)
    device = DeviceModel(ftl, channels=config.channels, qos=args.qos)
    run = device.run(trace, warmup_requests=warmup)
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
