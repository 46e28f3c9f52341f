"""Whole-program static analysis behind ``python -m repro.analysis lint``.

:mod:`~repro.analysis.flow.callgraph` parses every module once into a
:class:`Project` — the one parse every pass shares — and builds a
name-resolved call graph plus a per-class mutable-state inventory
(:mod:`~repro.analysis.flow.state`);
:mod:`~repro.analysis.flow.engine` runs fixed-point closures over the
graph; :mod:`~repro.analysis.flow.rules` implements the ``TP1xx``
rules on top (state-reset, flash bypass, frozen-config aliasing,
nondeterministic iteration) and holds :func:`analyze`, the one driver
that runs them together with the lexical ``TP0xx`` pass of
:mod:`repro.analysis.lint`, the ``TP2xx`` domain pass of
:mod:`~repro.analysis.flow.domains` and the ``TP3xx`` typestate pass
of :mod:`~repro.analysis.flow.typestate` (over the per-function
exception-edge CFGs of :mod:`~repro.analysis.flow.cfg`); and
:mod:`~repro.analysis.flow.sarif` serializes the findings as SARIF
2.1.0 for GitHub code scanning.

Run it through the CLI::

    python -m repro.analysis lint src --format sarif

or from Python: ``analyze(Project.from_paths(["src"]))``.
"""

from __future__ import annotations

from .callgraph import Project, read_sources
from .cfg import CFG, build_cfg
from .engine import FlowEngine, fixed_point
from .rules import analyze
from .sarif import to_sarif
from .typestate import (ORDER_SPECS, PROTOCOL_SPECS, OrderSpec,
                        ProtocolSpec)

__all__ = [
    "CFG",
    "FlowEngine",
    "ORDER_SPECS",
    "OrderSpec",
    "PROTOCOL_SPECS",
    "Project",
    "ProtocolSpec",
    "analyze",
    "build_cfg",
    "fixed_point",
    "read_sources",
    "to_sarif",
]
