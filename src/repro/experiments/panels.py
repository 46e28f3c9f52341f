"""Figures 6-9 — fifteen panels over three sets of runs.

Every panel of the paper's Fig 6-9 is one metric read off one of three
run grids, optionally normalised:

* ``matrix`` — the 4 workloads x 4 FTLs headline matrix (Fig 6a-f, 7a),
  normalised to DFTL on the same workload;
* ``ablation`` — TPFTL's technique combinations on Financial1 (Fig
  7b-c, 8a-b), one column, normalised to DFTL;
* ``sweep`` — TPFTL per workload as the cache grows from the smallest
  fraction of the mapping table to the whole table (Fig 8c, 9a-c),
  normalised to the largest cache.

Ablation monograms: ``r`` request-level prefetching, ``s`` selective
prefetching, ``b`` batch-update replacement, ``c`` clean-first
replacement; ``-`` is the bare two-level-LRU variant, ``rsbc`` the
complete TPFTL.

:data:`PANELS` holds the panels in paper order and :func:`run_panel`
builds any of them.  A panel's ``data`` holds the raw metric unless
``data_shown`` is set, in which case it holds the values the table
shows (normalised); :mod:`~repro.experiments.claims` reads it that way.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Sequence,
                    Tuple)

from ..ssd import RunResult
from .common import (ABLATION_CONFIGS, ExperimentResult, ExperimentScale,
                     HEADLINE_FTLS, WORKLOADS, run_matrix)
from .runner import RunSpec, get_runner


class Panel(NamedTuple):
    """One Fig 6-9 panel: a metric over one run grid."""

    #: ``"matrix"``, ``"ablation"`` or ``"sweep"``
    grid: str
    title: str
    metric: Callable[[RunResult], float]
    #: what the paper reports, printed under the table
    note: str
    #: divide each value by its row's DFTL / largest-cache value
    normalised: bool = False
    #: store the shown (normalised) values in ``data``, not the raw ones
    data_shown: bool = False
    #: an ablation panel's value-column header
    column: str = ""


class Grid(NamedTuple):
    """The runs of one grid, keyed by (row, column)."""

    corner: str
    rows: Sequence[str]
    columns: Sequence[Any]
    headers: List[str]
    runs: Mapping[Tuple[str, Any], Any]
    #: the cell a row's values are normalised to
    base: Callable[[str], Tuple[str, Any]]


def _grid(panel: Panel, scale: ExperimentScale) -> Grid:
    """Run (or serve from the run cache) the cells of a panel's grid."""
    if panel.grid == "matrix":
        return Grid("Workload", WORKLOADS, HEADLINE_FTLS,
                    [ftl.upper() for ftl in HEADLINE_FTLS],
                    run_matrix(scale), lambda workload: (workload, "dftl"))
    if panel.grid == "sweep":
        fractions = scale.cache_fractions
        keys = [(workload, fraction) for workload in WORKLOADS
                for fraction in fractions]
        results = get_runner().run_specs([
            RunSpec(workload=workload, ftl="tpftl", scale=scale,
                    cache_fraction=fraction)
            for workload, fraction in keys])
        return Grid("Workload", WORKLOADS, fractions,
                    [f"1/{round(1 / f)}" if f < 1 else "1"
                     for f in fractions],
                    dict(zip(keys, results)),
                    lambda workload: (workload, fractions[-1]))
    results = get_runner().run_specs([
        RunSpec.for_ablation(monogram, scale)
        for monogram in ABLATION_CONFIGS])
    return Grid("Config", ABLATION_CONFIGS, [panel.column], [panel.column],
                dict(zip([(monogram, panel.column)
                          for monogram in ABLATION_CONFIGS], results)),
                lambda monogram: ("dftl", panel.column))


def run_panel(panel: Panel, experiment_id: str,
              scale: ExperimentScale) -> ExperimentResult:
    """Build one panel: a row per grid row, a value per grid column."""
    grid = _grid(panel, scale)
    metric = panel.metric
    rows: List[Sequence[object]] = []
    data: Dict[str, object] = {}
    for key in grid.rows:
        raw = [metric(grid.runs[(key, column)]) for column in grid.columns]
        shown = raw
        if panel.normalised:
            base = metric(grid.runs[grid.base(key)])
            shown = [value / base if base else 0.0 for value in raw]
        rows.append([key, *shown])
        stored = shown if panel.data_shown else raw
        data[key] = (stored[0] if panel.grid == "ablation"
                     else dict(zip(grid.columns, stored)))
    return ExperimentResult(
        experiment_id=experiment_id, title=panel.title,
        headers=[grid.corner, *grid.headers], rows=rows, notes=panel.note,
        data=data)


#: the fifteen panels of Fig 6-9, in paper order
PANELS: Dict[str, Panel] = {
    "fig6a": Panel(
        "matrix", "Probability of replacing a dirty entry",
        lambda r: r.metrics.p_replace_dirty,
        "paper: TPFTL below 4% in all workloads, closest to optimal"),
    "fig6b": Panel(
        "matrix", "Cache hit ratio", lambda r: r.metrics.hit_ratio,
        "paper: TPFTL beats DFTL by ~15% (Financial) / ~16% (MSR); "
        "S-FTL matches DFTL on Financial, matches TPFTL (>95%) on MSR"),
    "fig6c": Panel(
        "matrix", "Translation page reads (normalised to DFTL)",
        lambda r: float(r.metrics.translation_page_reads),
        "paper: TPFTL -44.2%/-87.7% vs DFTL on Financial/MSR",
        normalised=True),
    "fig6d": Panel(
        "matrix", "Translation page writes (normalised to DFTL)",
        lambda r: float(r.metrics.translation_page_writes),
        "paper: TPFTL -50.5%/-98.8% vs DFTL on Financial/MSR",
        normalised=True),
    "fig6e": Panel(
        "matrix", "Mean system response time (normalised to DFTL)",
        lambda r: r.response.mean,
        "paper: TPFTL -23.5% (Fin1), -20.9% (Fin2), -57.6% (MSR avg) "
        "vs DFTL", normalised=True),
    "fig6f": Panel(
        "matrix", "Write amplification",
        lambda r: r.metrics.write_amplification,
        "paper: Financial WAs 2.4-5.1, MSR WAs near 1; TPFTL lowest "
        "among demand-based FTLs"),
    "fig7a": Panel(
        "matrix", "Block erase count (normalised to DFTL)",
        lambda r: r.metrics.total_erases,
        "paper: TPFTL erases -34.5% vs DFTL, -11.8% vs S-FTL on "
        "average (up to -55.6%/-17.1%)", normalised=True, data_shown=True),
    "fig7b": Panel(
        "ablation", "Probability of replacing a dirty entry per TPFTL "
        "configuration (Financial1)", lambda r: r.metrics.p_replace_dirty,
        "paper: 'b' drops Prd sharply; 'c' alone helps little but 'bc' "
        "halves 'b' again; prefetching ('rsbc') raises Prd slightly over "
        "'bc'", column="P(replace dirty)"),
    "fig7c": Panel(
        "ablation", "Cache hit ratio per TPFTL configuration (Financial1)",
        lambda r: r.metrics.hit_ratio,
        "paper: 'r' +4.7%, 's' +5.6%, 'rs' +11% over '-'; '-' itself "
        "edges out DFTL; replacement techniques barely move the hit "
        "ratio", column="Hit ratio"),
    "fig8a": Panel(
        "ablation", "Mean system response time per TPFTL configuration "
        "(Financial1, normalised to DFTL)", lambda r: r.response.mean,
        "paper: replacement techniques ('bc') -24.9% and prefetching "
        "('rs') -10.4% vs '-'; 'bc' even beats 'rsbc' on Financial1 (Prd "
        "matters more than hit ratio under random writes)",
        normalised=True, column="Response time / DFTL"),
    "fig8b": Panel(
        "ablation", "Write amplification per TPFTL configuration "
        "(Financial1)", lambda r: r.metrics.write_amplification,
        "paper: 'bc' -21.1% and 'rs' -9.1% vs '-'",
        column="Write amplification"),
    "fig8c": Panel(
        "sweep", "TPFTL probability of replacing a dirty entry vs cache "
        "size (fraction of full mapping table)",
        lambda r: r.metrics.p_replace_dirty,
        "paper: decreases with cache size, 0% when the table is fully "
        "cached"),
    "fig9a": Panel(
        "sweep", "TPFTL cache hit ratio vs cache size",
        lambda r: r.metrics.hit_ratio,
        "paper: rises with cache size, 100% when fully cached; "
        "Financial stays lower (large working sets)"),
    "fig9b": Panel(
        "sweep", "TPFTL response time vs cache size (normalised to full "
        "table)", lambda r: r.response.mean,
        "paper: decreases with cache size; a larger cache helps little "
        "on MSR (already near-optimal) but keeps paying off on Financial",
        normalised=True, data_shown=True),
    "fig9c": Panel(
        "sweep", "TPFTL write amplification vs cache size",
        lambda r: r.metrics.write_amplification,
        "paper: decreases with cache size; MSR WAs stay near 1"),
}
