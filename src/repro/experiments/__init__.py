"""Experiment runners: one per table/figure of the paper's evaluation.

Each runner regenerates the rows/series of its table or figure and
returns an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` prints a paper-comparable text table.  The registry maps
experiment ids (``table2``, ``fig6a`` ... ``fig10``) to runners; the CLI
(``python -m repro.experiments``) runs them from the command line.
"""

from .common import ExperimentResult, ExperimentScale, run_matrix
from .registry import EXPERIMENTS, run_experiment
from .runner import (ParallelRunner, RunCache, RunSpec, configure_runner,
                     get_runner)
from .supervisor import SupervisionReport, Supervisor, Task

__all__ = ["ExperimentResult", "ExperimentScale", "run_matrix",
           "EXPERIMENTS", "run_experiment",
           "ParallelRunner", "RunCache", "RunSpec", "configure_runner",
           "get_runner", "SupervisionReport", "Supervisor", "Task"]
