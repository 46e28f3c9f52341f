"""Fold pass reports into named metrics, print them, compare two sets.

``BENCHMARK.json`` at the repository root is the one declaration of
metric names, units, directions and bounds; this module reads it rather
than repeating it.  Two end-to-end metrics exist only in the ledger's
own report because they are legitimately zero and the benchmark
contract forbids declaring such metrics: ``sim_trans_page_ops`` (0 on
``oltp-optimal``) and ``failed_passes`` (0 on every healthy run; the
driver sees it as ``failed``).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: end-to-end metrics (name -> unit) the ledger reports but does not
#: declare to the driver
LEDGER_ONLY = {"sim_trans_page_ops": "count", "failed_passes": "count"}
#: host-time metrics: sampled once per pass, compared within a bound;
#: everything else repeats bit-for-bit and is compared exactly
HOST_METRICS = ("wall_s", "setup_s", "replay_kreq_per_s", "peak_rss_mb")


def load_benchmark() -> Dict[str, Any]:
    """The benchmark declaration, with metrics keyed by name."""
    declared = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    for group in ("end_to_end", "per_layer"):
        declared[group] = {entry["name"]: entry
                           for entry in declared[group]}
    declared["workloads"] = {entry["name"]: entry["why"]
                             for entry in declared["workloads"]}
    return declared


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def summarize(passes: List[Dict[str, Any]], expected_digest: str
              ) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one workload from its untraced passes.

    A pass fails when it raised or its digest is not the expected one;
    timings are medians over the passes that did not fail.
    """
    good = [report for report in passes
            if report.get("digest") == expected_digest]
    summary: Dict[str, Dict[str, Any]] = {
        "failed_passes": {"value": len(passes) - len(good)}}
    if not good:
        return summary
    host = {
        "wall_s": [report["wall_s"] for report in good],
        "setup_s": [report["setup_s"] for report in good],
        "replay_kreq_per_s": [report["requests"] / 1e3 / report["replay_s"]
                              for report in good],
        "peak_rss_mb": [report["peak_rss_mb"] for report in good],
    }
    for name, samples in host.items():
        q1, median, q3 = quartiles(samples)
        summary[name] = {"value": median, "q1": q1, "q3": q3,
                         "samples": samples}
    for name, value in good[0]["sim"].items():
        summary[name] = {"value": value}
    return summary


def render(name: str, value: Any, declared: Dict[str, Any]) -> str:
    """``value unit`` of one metric, as the ledger prints it."""
    if name == "ssd.core":  # 0 / 1 for the driver, words for people
        return f"{'reference' if value else 'fast':>12}"
    for group in ("end_to_end", "per_layer"):
        if name in declared[group]:
            unit = declared[group][name]["unit"]
            break
    else:
        unit = LEDGER_ONLY[name]
    text = str(value) if isinstance(value, int) else f"{value:.6g}"
    return f"{text:>12} {unit}"


def print_workload(name: str, record: Dict[str, Any],
                   declared: Dict[str, Any]) -> None:
    """One workload's block: every metric by name, with unit and n."""
    failed = record["end_to_end"]["failed_passes"]["value"]
    print(f"{name}  n={record['n']}  digest {record['digest'][:12]} "
          f"{'ok' if not failed else 'MISMATCH'}")
    for metric, entry in record["end_to_end"].items():
        line = f"  {metric:<28} {render(metric, entry['value'], declared)}"
        if "q1" in entry:
            line += f"   (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
        print(line)
    for metric, value in record["per_layer"].items():
        print(f"  {metric:<36} {render(metric, value, declared)}")


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    delta = (new - base) / base
    return delta if better == "lower" else -delta


def check(base: Dict[str, Any], new: Dict[str, Any],
          declared: Dict[str, Any]) -> Tuple[List[str], int]:
    """Compare two ledger result files; ``(rows, regressions)``.

    Simulated statistics, digests and ``failed_passes`` must be equal.
    A host metric regresses when ``new`` is worse than ``base`` by more
    than its declared bound; it is *unresolved* instead when either
    file's own quartile spread exceeds that bound — unless every sample
    of ``new`` reads better than every sample of ``base``.
    """
    rows: List[str] = []
    regressions = 0
    for name, old in base["workloads"].items():
        candidate = new["workloads"].get(name)
        if candidate is None:
            rows.append(f"{name}: REGRESSION missing from the second file")
            regressions += 1
            continue
        cells = []
        if old["digest"] != candidate["digest"]:
            cells.append("digest REGRESSION")
            regressions += 1
        for metric, entry in old["end_to_end"].items():
            other = candidate["end_to_end"].get(metric)
            if other is None:
                cells.append(f"{metric} REGRESSION missing")
                regressions += 1
            elif metric not in HOST_METRICS:
                if entry["value"] != other["value"]:
                    cells.append(f"{metric} REGRESSION {entry['value']!r}"
                                 f" != {other['value']!r}")
                    regressions += 1
                else:
                    cells.append(f"{metric} equal")
            else:
                verdict, failed = _check_host(
                    entry, other, declared["end_to_end"][metric])
                cells.append(f"{metric} {verdict}")
                regressions += failed
        rows.append(f"{name}: " + "; ".join(cells))
    return rows, regressions


def _check_host(old: Dict[str, Any], new: Dict[str, Any],
                declared: Dict[str, Any]) -> Tuple[str, int]:
    bound = declared["bound"]
    better = declared["better"]
    worse = _worse_by(old["value"], new["value"], better)
    spread = max((entry["q3"] - entry["q1"]) / entry["value"]
                 for entry in (old, new))
    note = (f"worse by {worse:+.1%} (spread {spread:.1%}, "
            f"bound {bound:.0%})")
    if spread > bound:
        if better == "lower":
            clear_win = max(new["samples"]) < min(old["samples"])
        else:
            clear_win = min(new["samples"]) > max(old["samples"])
        return ("better " if clear_win else "unresolved ") + note, 0
    if worse > bound:
        return "REGRESSION " + note, 1
    return "ok " + note, 0
