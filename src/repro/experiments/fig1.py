"""Figure 1 — distribution of entries in DFTL's mapping cache.

(a) the average number of cached entries per cached translation page,
sampled over time; (b) the CDF of dirty entries per cached translation
page on the write-dominant workloads.  The paper observes fewer than 150
entries per page (under 15% of a page) and that 53%-71% of cached pages
hold more than one dirty entry, with per-page dirty means above 15 —
the two facts motivating TP-node clustering and batch updates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics import CacheSampler, labelled_sparkline
from ..errors import SimInvariantError
from .common import ExperimentResult, ExperimentScale, WORKLOADS
from .runner import RunSpec, get_runner

#: write-dominant workloads used for the Fig 1(b) CDF
WRITE_DOMINANT = ("financial1", "msr-ts", "msr-src")


def _dftl_samplers(workloads: Sequence[str], scale: ExperimentScale
                   ) -> List[CacheSampler]:
    """DFTL's cache sampler on each workload, run as one batch."""
    results = get_runner().run_specs([
        RunSpec(workload=workload, ftl="dftl", scale=scale,
                sample_interval=scale.sample_interval,
                channels=scale.channels)
        for workload in workloads])
    samplers = [result.sampler for result in results]
    if any(sampler is None for sampler in samplers):  # pragma: no cover
        raise SimInvariantError("a sampled cell returned no sampler")
    return samplers


def run_fig1a(scale: ExperimentScale) -> ExperimentResult:
    """Regenerate this figure/table; see the module docstring."""
    rows: List[List[object]] = []
    data: Dict[str, object] = {}
    sparklines: List[str] = []
    for workload, sampler in zip(WORKLOADS,
                                 _dftl_samplers(WORKLOADS, scale)):
        series = sampler.entries_per_page_series()
        means = [value for _, value in series]
        rows.append([
            workload,
            min(means) if means else 0.0,
            (sum(means) / len(means)) if means else 0.0,
            max(means) if means else 0.0,
            len(series),
        ])
        data[workload] = {"series": series}
        sparklines.append(labelled_sparkline(f"{workload:>10s}", means))
    notes = ("paper: <=150 entries on average (<15% of a 1024-entry "
             "page); i.e. caching whole pages is space-inefficient\n"
             + "\n".join(sparklines))
    return ExperimentResult(
        experiment_id="fig1a",
        title=("Average number of entries in each cached translation "
               "page (DFTL)"),
        headers=["Workload", "Min", "Mean", "Max", "Samples"],
        rows=rows,
        notes=notes,
        data=data,
    )


def run_fig1b(scale: ExperimentScale) -> ExperimentResult:
    """Regenerate this figure/table; see the module docstring."""
    rows: List[List[object]] = []
    data: Dict[str, object] = {}
    for workload, sampler in zip(WRITE_DOMINANT,
                                 _dftl_samplers(WRITE_DOMINANT, scale)):
        multi_dirty = sampler.fraction_pages_with_dirty_above(1)
        mean_dirty = sampler.mean_dirty_per_page()
        rows.append([workload, f"{multi_dirty * 100:.1f}%", mean_dirty])
        data[workload] = {
            "cdf": sampler.dirty_cdf(),
            "fraction_pages_multi_dirty": multi_dirty,
            "mean_dirty_per_page": mean_dirty,
        }
    return ExperimentResult(
        experiment_id="fig1b",
        title=("CDF of dirty entries per cached translation page "
               "(DFTL, write-dominant workloads)"),
        headers=["Workload", ">1 dirty entry", "Mean dirty/page"],
        rows=rows,
        notes=("paper: 53%-71% of cached pages hold more than one dirty "
               "entry; average dirty counts above 15"),
        data=data,
    )
