"""Reliability torture (beyond the paper's figures).

Two sweeps over every registered FTL:

* **media faults** — replay a synthetic hot/cold workload with injected
  transient read errors, program failures and erase failures, and report
  how the device degraded: ECC retries, grown bad pages, retired blocks
  and remaining spare capacity.
* **power loss** — a cut-point sweep with the torture harness: power
  dies after the N-th flash operation, the mapping state is rebuilt by
  scanning flash, and the invalidate-before-publish and read-your-writes
  invariants are asserted at every cut.

Both sweeps are deterministic (seeded) and run on a deliberately tiny
geometry so that the sweep covers many device lifetimes of wear in
seconds; the scale knob only widens the power-loss sweep.
"""

from __future__ import annotations

from typing import List

from ..config import CacheConfig, SimulationConfig, SSDConfig
from ..errors import DeviceWornOutError
from ..faults import powerloss
from ..ftl import FTL_NAMES, make_ftl
from ..workloads import make_preset
from .common import ExperimentResult, ExperimentScale

#: tiny geometry: a handful of device overwrites completes in seconds
FAULT_PAGES = 2_048
FAULT_PAGE_SIZE = 512
FAULT_PAGES_PER_BLOCK = 16

#: injected fault rates for the media sweep (high by design: the point
#: is to exercise degradation, not to model a healthy device)
READ_ERROR_RATE = 0.01
PROGRAM_FAIL_RATE = 0.002
ERASE_FAIL_RATE = 0.01


def _config_for(ftl_name: str) -> SimulationConfig:
    ssd = SSDConfig(
        logical_pages=FAULT_PAGES,
        page_size=FAULT_PAGE_SIZE,
        pages_per_block=FAULT_PAGES_PER_BLOCK,
        read_error_rate=READ_ERROR_RATE,
        program_fail_rate=PROGRAM_FAIL_RATE,
        erase_fail_rate=ERASE_FAIL_RATE,
        fault_seed=17,
    )
    cache = None
    if ftl_name == "sftl":
        cache = CacheConfig(budget_bytes=4_096)
    return SimulationConfig(ssd=ssd, cache=cache)


def _media_row(ftl_name: str, scale: ExperimentScale) -> List[object]:
    config = _config_for(ftl_name)
    ftl = make_ftl(ftl_name, config)
    trace = make_preset("financial1", logical_pages=FAULT_PAGES,
                        num_requests=max(2_000,
                                         scale.num_requests // 10))
    served = 0
    worn_out = False
    try:
        for request in trace:
            ftl.serve_request(request)
            served += 1
    except DeviceWornOutError:
        worn_out = True
    stats = ftl.flash.stats
    return [
        ftl_name,
        "on",
        served,
        stats.ecc_recovered_reads,
        stats.uncorrectable_reads,
        ftl.flash.bad_page_count,
        ftl.flash.retired_block_count,
        max(0, ftl.flash.spare_blocks_remaining),
        "worn out" if worn_out else "healthy",
    ]


def _powerloss_row(ftl_name: str, scale: ExperimentScale) -> List[object]:
    ssd = SSDConfig(logical_pages=FAULT_PAGES,
                    page_size=FAULT_PAGE_SIZE,
                    pages_per_block=FAULT_PAGES_PER_BLOCK)
    cache = None
    if ftl_name == "sftl":
        cache = CacheConfig(budget_bytes=4_096)
    config = SimulationConfig(ssd=ssd, cache=cache)
    cuts = 120 if scale.name == "full" else 50
    ops = powerloss.default_ops(600, FAULT_PAGES, seed=23, trim_ratio=0.05)
    report = powerloss.torture_sweep(
        ftl_name, config, ops=ops,
        cut_points=powerloss.default_cut_points(cuts, start=1, stride=11))
    return [ftl_name, cuts, report.cuts_fired, "verified"]


def run(scale: ExperimentScale) -> ExperimentResult:
    """Run the media-fault and power-loss sweeps over every FTL.

    Both sweeps fan out per-FTL across the default runner's supervised
    workers (they are deterministic and independent per FTL); with
    ``jobs=1`` they run serially.  A per-FTL row whose worker dies is
    retried; a row that keeps failing is quarantined as a structured
    failure after the other rows complete
    (:class:`~repro.errors.MatrixFailureError`).
    """
    from .runner import get_runner
    runner = get_runner()
    media_rows = runner.map(_media_row,
                            [(name, scale) for name in FTL_NAMES])
    power_rows = runner.map(_powerloss_row,
                            [(name, scale) for name in FTL_NAMES])
    return ExperimentResult(
        experiment_id="faults",
        title="Fault injection & power-loss torture [extension]",
        headers=["FTL", "Pfaults", "Served", "ECC rec", "Uncorr",
                 "Bad pages", "Retired", "Spares left", "State"],
        rows=media_rows,
        notes=("power-loss sweep: " + ", ".join(
            f"{r[0]} {r[2]}/{r[1]} cuts verified" for r in power_rows)
            + "; every cut recovered by flash scan with "
              "invalidate-before-publish and read-your-writes intact"),
        data={
            "media": {row[0]: row[1:] for row in media_rows},
            "powerloss": {row[0]: {"cut_points": row[1],
                                   "cuts_fired": row[2]}
                          for row in power_rows},
        },
    )
