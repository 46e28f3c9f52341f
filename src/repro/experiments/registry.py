"""Experiment registry: id -> runner, plus the one-call entry point."""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import ExperimentError
from . import (analysis, channels, claims, faults, fig1, fig2, fig6, fig7,
               fig8, fig9, fig10, model_check, table2, threshold_sweep)
from .common import ExperimentResult, ExperimentScale

#: every table/figure of the paper's evaluation, in paper order
EXPERIMENTS: Dict[str, Callable[[ExperimentScale], ExperimentResult]] = {
    "table2": table2.run,
    "fig1a": fig1.run_fig1a,
    "fig1b": fig1.run_fig1b,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    "fig6a": fig6.run_fig6a,
    "fig6b": fig6.run_fig6b,
    "fig6c": fig6.run_fig6c,
    "fig6d": fig6.run_fig6d,
    "fig6e": fig6.run_fig6e,
    "fig6f": fig6.run_fig6f,
    "fig7a": fig7.run_fig7a,
    "fig7b": fig7.run_fig7b,
    "fig7c": fig7.run_fig7c,
    "fig8a": fig8.run_fig8a,
    "fig8b": fig8.run_fig8b,
    "fig8c": fig8.run_fig8c,
    "fig9a": fig9.run_fig9a,
    "fig9b": fig9.run_fig9b,
    "fig9c": fig9.run_fig9c,
    "fig10": fig10.run,
    # extensions beyond the paper's artifacts
    "modelcheck": model_check.run,
    "threshold-sweep": threshold_sweep.run,
    "faults": faults.run,
    "analysis": analysis.run,
    "channels": channels.run,
}


def run_experiment(experiment_id: str,
                   scale: ExperimentScale = None) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig6a"``) and judge the
    paper's claims about it (:mod:`~repro.experiments.claims`)."""
    if scale is None:
        scale = ExperimentScale.small()
    try:
        runner = EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{', '.join(EXPERIMENTS)}") from None
    result = runner(scale)
    result.verdicts = claims.evaluate(result, scale)
    return result
