#!/usr/bin/env python3
"""Compare every FTL on the paper's four workload types.

A miniature of the paper's Fig 6: DFTL, TPFTL, S-FTL and the optimal
FTL on Financial- and MSR-like traces, reporting hit ratio, Prd,
translation traffic, write amplification and response time.

Run:  python examples/compare_ftls.py [--requests N]
"""

import argparse

from repro import SimulationConfig, SSDConfig, make_ftl, simulate
from repro.metrics import format_table
from repro.workloads import make_preset

WORKLOADS = ("financial1", "financial2", "msr-ts", "msr-src")
FTLS = ("dftl", "tpftl", "sftl", "optimal")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=25_000)
    parser.add_argument("--warmup", type=int, default=6_000)
    args = parser.parse_args()

    for workload in WORKLOADS:
        pages = 65_536 if workload.startswith("msr") else 16_384
        trace = make_preset(workload, logical_pages=pages,
                            num_requests=args.requests)
        config = SimulationConfig(ssd=SSDConfig(logical_pages=pages))
        rows = []
        for name in FTLS:
            run = simulate(make_ftl(name, config), trace,
                           warmup_requests=args.warmup)
            m = run.metrics
            rows.append([
                name, m.hit_ratio, m.p_replace_dirty,
                m.translation_page_reads, m.translation_page_writes,
                m.write_amplification, run.response.mean,
                m.total_erases,
            ])
        print(format_table(
            ["FTL", "Hr", "Prd", "T-reads", "T-writes", "WA",
             "Resp(us)", "Erases"],
            rows, precision=3,
            title=f"\n=== {workload} ({args.requests} requests) ==="))


if __name__ == "__main__":
    main()
