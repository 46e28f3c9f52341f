"""SARIF 2.1.0 serialization of the static analysis findings.

One ``run`` with one ``tool.driver`` describing every static rule (the
one table, :data:`repro.analysis.lint.RULES`), one ``result`` per
finding.  Pragma-suppressed findings never reach this layer — the
passes drop them at flag time, exactly as the text format does.

``partialFingerprints`` carries a hash of :attr:`Finding.key`
``(rule, path, snippet)``, so GitHub code scanning tracks a finding
across unrelated line moves.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

from ..lint import RULES, Finding

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "rule_severity", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: rules whose findings are advisory rather than correctness-breaking
_WARNING_RULES = frozenset({"TP104"})


def rule_severity(code: str) -> str:
    """SARIF level for a rule code (``error`` unless advisory)."""
    return "warning" if code in _WARNING_RULES else "error"


def _fingerprint(finding: Finding) -> str:
    text = "|".join(finding.key)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _rule_descriptor(code: str, description: str) -> Dict[str, object]:
    return {
        "id": code,
        "name": code,
        "shortDescription": {"text": description.split(" (")[0]},
        "fullDescription": {"text": description},
        "defaultConfiguration": {"level": rule_severity(code)},
        "helpUri": ("https://github.com/tpftl/repro/blob/main/docs/"
                    "architecture.md#static-analysis--sanitizers"),
    }


def _result(finding: Finding,
            rule_index: Dict[str, int]) -> Dict[str, object]:
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index.get(finding.rule, -1),
        "level": rule_severity(finding.rule),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": finding.col + 1,
                    "snippet": {"text": finding.snippet},
                },
            },
        }],
        "partialFingerprints": {
            "tpFindingKey/v1": _fingerprint(finding),
        },
    }


def to_sarif(findings: Sequence[Finding],
             tool_version: str = "1.0.0") -> Dict[str, object]:
    """Build the complete SARIF 2.1.0 log document.

    The driver lists every rule of the one table; codes are emitted
    sorted so ``ruleIndex`` values are stable across runs.
    """
    codes = sorted(RULES)
    rule_index = {code: i for i, code in enumerate(codes)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "informationUri": ("https://github.com/tpftl/repro"),
                    "version": tool_version,
                    "rules": [_rule_descriptor(code, RULES[code])
                              for code in codes],
                },
            },
            "results": [_result(f, rule_index) for f in findings],
            "columnKind": "utf16CodeUnits",
        }],
    }
