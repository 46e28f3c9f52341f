"""Figure 10 — improvement of cache space utilisation, TPFTL vs DFTL.

TPFTL stores entries compressed (6B offset+PPN vs DFTL's 8B LPN+PPN), at
the cost of an 8B TP-node header per cached translation page; the paper
measures how many more entries TPFTL keeps resident than DFTL in the
same byte budget, across cache sizes.  The bound is 33% (= 8/6 - 1),
approached when request sequentiality clusters many entries per node;
Financial workloads gain less because dispersed entries spread over
many singleton nodes.

Measured as the time-averaged cached-entry count ratio, sampled at the
same cadence the paper uses.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import SimInvariantError
from .common import ExperimentResult, ExperimentScale, WORKLOADS
from .runner import RunSpec, get_runner


def run(scale: ExperimentScale) -> ExperimentResult:
    """Replay a trace and return the measured results."""
    fractions = [f for f in scale.cache_fractions if f <= 0.25]
    keys = [(workload, fraction, ftl_name) for workload in WORKLOADS
            for fraction in fractions for ftl_name in ("dftl", "tpftl")]
    specs = [RunSpec(workload=workload, ftl=ftl_name, scale=scale,
                     cache_fraction=fraction,
                     sample_interval=scale.sample_interval,
                     channels=scale.channels)
             for workload, fraction, ftl_name in keys]
    cells = dict(zip(keys, get_runner().run_specs(specs)))
    rows: List[List[object]] = []
    data: Dict[str, Dict[float, float]] = {}
    for workload in WORKLOADS:
        row: List[object] = [workload]
        data[workload] = {}
        for fraction in fractions:
            counts = {}
            for ftl_name in ("dftl", "tpftl"):
                result = cells[(workload, fraction, ftl_name)]
                if result.sampler is None:  # pragma: no cover - specs sample
                    raise SimInvariantError("cell returned no sampler")
                samples = result.sampler.samples
                mean_entries = (sum(s.cached_entries for s in samples)
                                / len(samples)) if samples else 0.0
                counts[ftl_name] = mean_entries
            if counts["dftl"]:
                improvement = counts["tpftl"] / counts["dftl"] - 1.0
            else:
                improvement = 0.0
            row.append(f"{improvement * 100:.1f}%")
            data[workload][fraction] = improvement
        rows.append(row)
    headers = ["Workload"] + [f"1/{round(1 / f)}" for f in fractions]
    return ExperimentResult(
        experiment_id="fig10",
        title=("Improvement of cache space utilisation "
               "(TPFTL vs DFTL, time-averaged resident entries)"),
        headers=headers,
        rows=rows,
        notes="paper: up to 33% (the 8B/6B bound), larger with larger "
              "caches and on MSR (sequentiality clusters entries in "
              "few TP nodes)",
        data=data,
    )
