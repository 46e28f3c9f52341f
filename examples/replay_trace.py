#!/usr/bin/env python3
"""Replay a real block trace (SPC or MSR Cambridge format) through an FTL.

If you have the paper's original traces (UMass Financial1/2 in SPC
format, MSR-ts/MSR-src in MSR CSV format), point this script at them to
run the evaluation on the real inputs.  Without a file, it writes a
small demonstration SPC trace to a temporary directory and replays
that, so the example always runs and leaves nothing behind.

Run:  python examples/replay_trace.py [TRACE] [--format spc|msr]
      python examples/replay_trace.py Financial1.spc --ftl tpftl
"""

import argparse
import random
import tempfile
from pathlib import Path

from repro import SimulationConfig, SSDConfig, make_ftl, simulate
from repro.workloads import (characterize, load_msr_trace,
                             load_spc_trace)


def write_demo_trace(path: Path, requests: int = 5_000,
                     seed: int = 7) -> None:
    """An OLTP-ish SPC-format trace: hot random writes + a few runs."""
    rng = random.Random(seed)
    clock = 0.0
    lines = []
    for _ in range(requests):
        clock += rng.expovariate(1 / 0.002)  # ~2ms inter-arrival
        if rng.random() < 0.1:  # a sequential run fragment
            lba = rng.randrange(0, 60_000, 64)
            size = 4096 * rng.randint(2, 8)
        else:
            lba = rng.randrange(64_000)
            size = 4096
        opcode = "w" if rng.random() < 0.75 else "r"
        lines.append(f"0,{lba},{size},{opcode},{clock:.6f}")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", default=None,
                        help="path to an SPC or MSR trace file")
    parser.add_argument("--format", choices=("spc", "msr"),
                        default="spc")
    parser.add_argument("--ftl", default="tpftl")
    parser.add_argument("--device-pages", type=int, default=None,
                        help="wrap LPNs into a device of this many "
                             "pages (default: size to the trace)")
    args = parser.parse_args()

    if args.trace is None:
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "demo_trace.spc"
            print("no trace given; replaying a demo SPC trace")
            write_demo_trace(path)
            trace = load_spc_trace(path, wrap_pages=args.device_pages)
    else:
        path = Path(args.trace)
        loader = load_spc_trace if args.format == "spc" else load_msr_trace
        trace = loader(path, wrap_pages=args.device_pages)
    stats = characterize(trace)
    print("Loaded:", stats.as_table4_row())

    logical_pages = args.device_pages or trace.logical_pages
    config = SimulationConfig(ssd=SSDConfig(logical_pages=logical_pages))
    ftl = make_ftl(args.ftl, config)
    run = simulate(ftl, trace)
    print(f"\n--- {args.ftl} on {path.name} ---")
    for key, value in run.summary().items():
        print(f"{key:28s} {value}")


if __name__ == "__main__":
    main()
