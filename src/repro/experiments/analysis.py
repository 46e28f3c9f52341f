"""FTLSan sweep: every FTL under the sanitizer at full sampling rate.

An extension beyond the paper's figures: replays a deterministic mixed
read/write/trim workload on every registered FTL with
:class:`~repro.analysis.sanitizer.FTLSan` attached at sampling interval
1 (every host page operation is followed by the full incremental checker
set, with the O(device) sweeps throttled), then forces one final full
validation.  A clean run demonstrates that the §4.2/§4.4/§4.5 invariant
checkers, the shadow page map and the flash state-machine rules hold
across the whole matrix — the runtime half of ``repro.analysis``.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..config import (CacheConfig, SanitizerConfig, SimulationConfig,
                      SSDConfig)
from ..ftl import FTL_NAMES, make_ftl
from ..types import Op, Request
from .common import ExperimentResult, ExperimentScale

#: tiny geometry: full-rate sampling is O(cache) per op, so keep the
#: device small and the op count high instead
SAN_PAGES = 512
SAN_PAGE_SIZE = 256
SAN_PAGES_PER_BLOCK = 8
#: cache budget roomy enough for the page-granular FTLs on this geometry
SAN_CACHE_BYTES = 2_048


def _build_ops(num_ops: int, trims: bool,
               seed: int) -> Iterator[Request]:
    """Deterministic mixed single/multi-page read/write/trim stream."""
    rng = random.Random(seed)
    for index in range(num_ops):
        draw = rng.random()
        npages = rng.choice((1, 1, 1, 2, 4))
        if draw < 0.45:
            op = Op.READ
        elif draw < 0.90 or not trims:
            op = Op.WRITE
        else:
            op, npages = Op.TRIM, 1
        lpn = rng.randrange(SAN_PAGES - npages + 1)
        yield Request(arrival=float(index) * 100.0, op=op, lpn=lpn,
                      npages=npages)


def _sweep_row(ftl_name: str, num_ops: int) -> List[object]:
    config = SimulationConfig(
        ssd=SSDConfig(logical_pages=SAN_PAGES,
                      page_size=SAN_PAGE_SIZE,
                      pages_per_block=SAN_PAGES_PER_BLOCK),
        cache=CacheConfig(budget_bytes=SAN_CACHE_BYTES),
        sanitizer=SanitizerConfig(enabled=True, interval=1,
                                  full_every=64),
    )
    ftl = make_ftl(ftl_name, config)
    for request in _build_ops(num_ops, trims=True, seed=1215):
        ftl.serve_request(request)
    sanitizer = ftl.sanitizer
    if sanitizer is None:  # pragma: no cover - config enables it
        raise RuntimeError("sanitizer was not attached")
    sanitizer.final_check()
    stats = sanitizer.stats()
    return [ftl_name, stats["ops"], stats["samples"],
            stats["full_scans"], "clean"]


def run(scale: ExperimentScale) -> ExperimentResult:
    """Run the FTLSan-at-full-rate sweep over every registered FTL.

    The per-FTL sweeps are independent and deterministic, so they fan
    out across the default runner's supervised workers when
    ``jobs > 1`` — with watchdog/retry/quarantine semantics identical
    to the simulation cells (see ``repro.experiments.supervisor``).
    """
    from .runner import get_runner
    num_ops = 2_500 if scale.name == "full" else 800
    rows = get_runner().map(_sweep_row,
                            [(name, num_ops) for name in FTL_NAMES])
    return ExperimentResult(
        experiment_id="analysis",
        title="FTLSan full-rate invariant sweep [extension]",
        headers=["FTL", "Page ops", "Samples", "Full scans", "Verdict"],
        rows=rows,
        notes=("sampling interval 1 (every host page op), full sweeps "
               "(shadow-map injectivity + flash state machine) every "
               "64th sample plus one forced final full validation; "
               "rules SAN001-SAN009, see docs/architecture.md"),
        data={row[0]: {"ops": row[1], "samples": row[2],
                       "full_scans": row[3]} for row in rows},
    )
