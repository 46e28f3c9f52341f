"""Experiment registry: id -> runner, plus the one-call entry point."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from ..errors import ExperimentError
from . import (analysis, channels, claims, faults, fig1, fig2, fig10,
               model_check, table2, threshold_sweep)
from .common import ExperimentResult, ExperimentScale
from .panels import PANELS, run_panel

#: every table/figure of the paper's evaluation, in paper order
EXPERIMENTS: Dict[str, Callable[[ExperimentScale], ExperimentResult]] = {
    "table2": table2.run,
    "fig1a": fig1.run_fig1a,
    "fig1b": fig1.run_fig1b,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    **{experiment_id: partial(run_panel, panel, experiment_id)
       for experiment_id, panel in PANELS.items()},
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
