"""Selective-prefetch threshold sensitivity (extension).

§4.3 fixes the TP-node counter threshold at 3, found "empirically" to
recognise most sequential runs.  This experiment sweeps the threshold on
the two extremes — the sequential MSR-ts-like workload (where selective
prefetching should fire often) and the random Financial1-like workload
(where false activations would hurt) — reporting hit ratio, prefetch
volume and accuracy per threshold.
"""

from __future__ import annotations

from typing import List

from ..config import TPFTLConfig
from .common import ExperimentResult, ExperimentScale
from .runner import RunSpec, get_runner

THRESHOLDS = (1, 2, 3, 5, 8)
SWEEP_WORKLOADS = ("financial1", "msr-ts")


def run(scale: ExperimentScale) -> ExperimentResult:
    """Replay a trace and return the measured results."""
    rows: List[List[object]] = []
    data = {}
    keys = [(workload, threshold) for workload in SWEEP_WORKLOADS
            for threshold in THRESHOLDS]
    specs = [RunSpec(workload=workload, ftl="tpftl", scale=scale,
                     tpftl=TPFTLConfig(selective_threshold=threshold),
                     channels=scale.channels)
             for workload, threshold in keys]
    cells = dict(zip(keys, get_runner().run_specs(specs)))
    for workload in SWEEP_WORKLOADS:
        for threshold in THRESHOLDS:
            result = cells[(workload, threshold)]
            m = result.metrics
            accuracy = (m.prefetch_hits / m.prefetched_entries
                        if m.prefetched_entries else 0.0)
            rows.append([workload, threshold, m.hit_ratio,
                         m.prefetched_entries, accuracy])
            data[(workload, threshold)] = {
                "hit_ratio": m.hit_ratio,
                "prefetched": m.prefetched_entries,
                "accuracy": accuracy,
            }
    return ExperimentResult(
        experiment_id="threshold-sweep",
        title=("Selective-prefetch threshold sensitivity "
               "[extension to §4.3]"),
        headers=["Workload", "Threshold", "Hit ratio", "Prefetched",
                 "Prefetch accuracy"],
        rows=rows,
        notes="paper: threshold 3 recognises most sequential runs; "
              "lower thresholds fire more (and less accurately) on "
              "random workloads",
        data={"cells": data},
    )
