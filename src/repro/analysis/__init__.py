"""Correctness tooling for the reproduction: static analysis + FTLSan.

Two pillars, both specific to this codebase:

* the **static analysis** — one pipeline: :class:`Project` parses the
  tree once and :func:`analyze` runs every pass over it.  The lexical
  ``TP0xx`` rules (:mod:`repro.analysis.lint`) enforce determinism (no
  unseeded randomness, no wall clock), typed errors instead of bare
  ``assert`` and frozen configs; the interprocedural passes in
  :mod:`repro.analysis.flow` add ``TP1xx`` (run-path state missing
  from the reset path, flash page operations bypassing
  :class:`~repro.flash.FlashMemory` directly or through helpers,
  nondeterministic set iteration) and ``TP2xx``
  (address-domain and unit confusion).  Every rule is listed
  in the one table :data:`RULES`; ``# tp: allow=CODE`` is the one
  suppression.  Run it as ``python -m repro.analysis lint src``
  (``--format sarif`` emits SARIF 2.1.0 for GitHub code scanning).
* :mod:`repro.analysis.sanitizer` — FTLSan, a config-gated runtime
  checker (rules ``SAN001``–``SAN009``) validating the paper's §4.2 /
  §4.4 / §4.5 invariants and a shadow page map against live simulator
  state, at a configurable sampling interval.

See ``docs/architecture.md`` ("Static analysis & sanitizers") for the
full rule tables.
"""

from __future__ import annotations

from .checkers import SAN_RULES
from .flow import Project, analyze
from .lint import Finding, RULES
from .sanitizer import FTLSan, attach

__all__ = [
    "FTLSan",
    "Finding",
    "Project",
    "RULES",
    "SAN_RULES",
    "analyze",
    "attach",
]
