"""Model validation (beyond the paper's figures).

Feeds each simulated run's measured parameters (Hr, Prd, Rw, Hgcr, Vd,
Vt) into the paper's closed-form models (Eq. 1 and Eq. 13) and compares
against the simulator's own measurements — the consistency check behind
the paper's §3 claim that the two factors Hr and Prd govern both the
performance and lifetime cost of address translation.

The write-amplification model slightly overestimates FTLs that batch
same-translation-page updates during GC (the model charges one write
per missed migration), so ratios near but above 1.0 are expected for
DFTL-family FTLs.
"""

from __future__ import annotations

from typing import List

from ..config import SSDConfig
from ..models import params_from_run, write_amplification
from ..models.performance import avg_translation_time
from .common import ExperimentResult, ExperimentScale, WORKLOADS, run_matrix


def run(scale: ExperimentScale) -> ExperimentResult:
    """Replay a trace and return the measured results."""
    matrix = run_matrix(scale, ftls=("dftl", "tpftl"))
    rows: List[List[object]] = []
    data = {}
    for workload in WORKLOADS:
        ssd = SSDConfig(logical_pages=scale.pages_for(workload))
        for ftl in ("dftl", "tpftl"):
            result = matrix[(workload, ftl)]
            p = params_from_run(result, ssd)
            modeled_wa = write_amplification(p)
            measured_wa = result.metrics.write_amplification
            # measured mean translation cost per page access, from the
            # cause-attributed counters (load + writeback traffic only)
            m = result.metrics
            accesses = max(1, m.user_page_accesses)
            measured_tat = (
                (m.trans_reads_load + m.trans_reads_writeback)
                * ssd.read_us
                + m.trans_writes_writeback * ssd.write_us) / accesses
            modeled_tat = avg_translation_time(p)
            rows.append([
                workload, ftl, modeled_wa, measured_wa,
                modeled_wa / measured_wa if measured_wa else 0.0,
                modeled_tat, measured_tat,
            ])
            data[(workload, ftl)] = {
                "modeled_wa": modeled_wa, "measured_wa": measured_wa,
                "modeled_tat": modeled_tat,
                "measured_tat": measured_tat,
            }
    return ExperimentResult(
        experiment_id="modelcheck",
        title=("Analytical models (Eq. 1/13) vs simulation "
               "[extension]"),
        headers=["Workload", "FTL", "WA model", "WA sim", "WA ratio",
                 "Tat model (us)", "Tat sim (us)"],
        rows=rows,
        notes=("WA ratio slightly above 1 is expected: the model "
               "ignores GC-time batching of same-page updates"),
        data={"cells": data},
    )
