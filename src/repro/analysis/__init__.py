"""Correctness tooling for the reproduction: lint pass + FTLSan.

Two pillars, both specific to this codebase:

* :mod:`repro.analysis.lint` — an AST-based lint pass (rules ``TP001``
  – ``TP006``) enforcing the project's structural rules over ``src/``:
  determinism (no unseeded randomness, no wall clock), typed errors
  instead of bare ``assert``, frozen configs stay frozen, and all
  flash page traffic routed through :class:`~repro.flash.FlashMemory`.
  Run it as ``python -m repro.analysis lint src``.
* :mod:`repro.analysis.flow` — the interprocedural layer (rules
  ``TP101``–``TP104``): a project-wide call graph plus per-class
  mutable-state inventory feeding a fixed-point engine, catching the
  bug shapes single-node visitors cannot (run-path state missing from
  the reset path, flash mutation hidden behind helpers, frozen-config
  aliasing, nondeterministic set iteration).  The same ``lint``
  subcommand runs both passes and can emit SARIF 2.1.0
  (``--format sarif``) for GitHub code scanning.
* :mod:`repro.analysis.sanitizer` — FTLSan, a config-gated runtime
  checker (rules ``SAN001``–``SAN009``) validating the paper's §4.2 /
  §4.4 / §4.5 invariants and a shadow page map against live simulator
  state, at a configurable sampling interval.

See ``docs/architecture.md`` ("Static analysis & sanitizers") for the
full rule tables.
"""

from __future__ import annotations

from .checkers import SAN_RULES
from .flow import FLOW_RULES, analyze_paths, analyze_source
from .lint import Finding, RULES, lint_paths, lint_source
from .sanitizer import FTLSan, attach

__all__ = [
    "FLOW_RULES",
    "FTLSan",
    "Finding",
    "RULES",
    "SAN_RULES",
    "analyze_paths",
    "analyze_source",
    "attach",
    "lint_paths",
    "lint_source",
]
