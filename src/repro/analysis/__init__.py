"""Correctness tooling for the reproduction: a lexical lint + FTLSan.

Two pillars, both specific to this codebase:

* :mod:`repro.analysis.lint` — the **static analysis**: one parse per
  module and one pass of lexical ``TP0xx`` rules enforcing determinism
  (no unseeded randomness, no wall clock), typed errors instead of bare
  ``assert``, frozen configs and ``with``-managed file handles.
  :func:`read_sources` reads a tree, :func:`analyze` returns its
  findings, every rule is listed in the one table :data:`RULES`, and
  ``# tp: allow=CODE`` is the one suppression.  Run it as ``python -m
  repro.analysis lint src``.
* :mod:`repro.analysis.sanitizer` — FTLSan, a config-gated runtime
  checker (rules ``SAN001``–``SAN009``) validating the paper's §4.2 /
  §4.4 / §4.5 invariants and a shadow page map against live simulator
  state, at a configurable sampling interval.

:mod:`repro.analysis.mutants` checks the checks: each seeded bug must
fail the tier-1 test it names.  See ``docs/architecture.md`` ("Static
analysis & sanitizers") for the full rule tables.
"""

from __future__ import annotations

from .checkers import SAN_RULES
from .lint import Finding, RULES, analyze, read_sources
from .sanitizer import FTLSan, attach

__all__ = [
    "FTLSan",
    "Finding",
    "RULES",
    "SAN_RULES",
    "analyze",
    "attach",
    "read_sources",
]
