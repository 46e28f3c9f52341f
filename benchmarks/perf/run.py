"""The perf ledger: time a TPFTL cell end to end and layer by layer.

Four ways to run it (``PYTHONPATH`` is not needed: the script puts the
checkout's own ``src/`` first on ``sys.path``):

``run.py``
    The ledger.  ``--rounds`` interleaved rounds of every workload
    (round r runs each workload once, so a noisy stretch of the machine
    lands on all of them alike), every pass checked against
    ``golden.json``, then one traced and one profiled pass per workload
    for the per-layer numbers.  Prints every metric by name and writes
    ``out/results.json`` and ``out/trace-<workload>.json``.
``run.py --workload W --seed N --seconds S --trace 0|1``
    The driver contract of ``BENCHMARK.json``: one workload, passes
    until S seconds have been measured, one JSON object on the last
    line of stdout.
``run.py --write-golden``
    Run every workload at seed 0 through the reference core and the
    default core; refuse to write ``golden.json`` unless they agree.
``run.py --check A.json B.json``
    Compare two ledger result files against the declared bounds.

See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
if not (SOURCE / "repro").is_dir():
    raise SystemExit(f"run.py: no simulator source at {SOURCE}")
sys.path.insert(0, str(SOURCE))
sys.path.insert(0, str(HERE))

from perf_cells import CELLS  # noqa: E402
from perf_passes import in_child, profile_pass, run_pass  # noqa: E402
from perf_report import (check, load_benchmark, print_workload,  # noqa: E402
                         summarize)
from repro.experiments.common import ExperimentScale  # noqa: E402

GOLDEN_FILE = HERE / "golden.json"
DEFAULT_OUT = HERE / "out"
DEFAULT_ROUNDS = 9


def scale_key(scale: ExperimentScale) -> Dict[str, int]:
    return {"num_requests": scale.num_requests,
            "warmup_requests": scale.warmup_requests}


def timed_pass(name: str, scale: ExperimentScale, seed: int,
               **kwargs: Any) -> Dict[str, Any]:
    """One pass in a forked child, with the child's peak RSS."""
    report, peak_rss_mb = in_child(
        lambda: run_pass(name, scale, seed, **kwargs))
    report["peak_rss_mb"] = peak_rss_mb
    return report


def expected_digests(names: List[str], scale: ExperimentScale, seed: int,
                     golden_file: Optional[Path]) -> Dict[str, str]:
    """The digest every pass must reproduce, per workload.

    The committed golden covers seed 0 at the scale it was written
    for; any other seed or scale is checked against one untimed
    reference-core pass of the same cell.
    """
    if golden_file is not None and seed == 0:
        golden = json.loads(golden_file.read_text(encoding="utf-8"))
        if golden["scale"] == scale_key(scale):
            return {name: golden["digests"][name] for name in names}
    digests = {}
    for name in names:
        report = timed_pass(name, scale, seed, reference=True)
        if "error" in report:
            raise SystemExit(f"reference pass of {name} failed:\n"
                             f"{report['error']}")
        digests[name] = report["digest"]
    return digests


def traced_run(name: str, scale: ExperimentScale, seed: int, out: Path,
               expected: str) -> Dict[str, Any]:
    """The traced pass and the profiled pass of one workload.

    Returns ``{"layers": {...}, "failed": n, "wall_s": traced wall}``;
    a traced or profiled pass whose digest is not the expected one
    counts as failed and contributes no numbers.
    """
    out.mkdir(parents=True, exist_ok=True)
    traced = timed_pass(name, scale, seed,
                        trace_file=out / f"trace-{name}.json")
    profiled, _ = in_child(lambda: profile_pass(name, scale, seed))
    layers: Dict[str, Any] = {}
    failed = 0
    for report in (traced, profiled):
        if report.get("digest") != expected:
            print(report.get("error", f"{name}: traced digest mismatch"),
                  file=sys.stderr)
            failed += 1
        else:
            layers.update(report["layers"])
    return {"layers": layers, "failed": failed,
            "wall_s": traced.get("wall_s")}


def add_overhead(traced: Dict[str, Any],
                 summary: Dict[str, Dict[str, Any]]) -> None:
    """``trace.overhead_ratio``: traced wall over untraced median wall."""
    if traced["wall_s"] is not None and "wall_s" in summary:
        traced["layers"]["trace.overhead_ratio"] = (
            traced["wall_s"] / summary["wall_s"]["value"])


# ----------------------------------------------------------------------
# The ledger: every workload, interleaved rounds, then the traced run
# ----------------------------------------------------------------------
def ledger(args: argparse.Namespace, scale: ExperimentScale) -> int:
    declared = load_benchmark()
    names = [args.workload] if args.workload else list(CELLS)
    expected = expected_digests(names, scale, args.seed, args.golden)
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_index in range(args.rounds):
        for name in names:
            report = timed_pass(name, scale, args.seed)
            if "error" in report:
                print(report["error"], file=sys.stderr)
            passes[name].append(report)
        print(f"round {round_index + 1}/{args.rounds} done",
              file=sys.stderr)
    results: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "rounds": args.rounds,
        "scale": scale_key(scale), "workloads": {}}
    failed_total = 0
    for name in names:
        end_to_end = summarize(passes[name], expected[name])
        traced = traced_run(name, scale, args.seed, args.out,
                            expected[name])
        add_overhead(traced, end_to_end)
        failed_total += (end_to_end["failed_passes"]["value"]
                         + traced["failed"])
        record = {"n": args.rounds, "digest": expected[name],
                  "end_to_end": end_to_end,
                  "per_layer": traced["layers"]}
        results["workloads"][name] = record
        print_workload(name, record, declared)
    result_file = args.out / "results.json"
    result_file.write_text(json.dumps(results, indent=1) + "\n",
                           encoding="utf-8")
    print(f"results -> {result_file}; span logs -> "
          f"{args.out}/trace-<workload>.json; failed passes (traced "
          f"ones included): {failed_total}")
    return 1 if failed_total else 0


# ----------------------------------------------------------------------
# The driver contract: one workload, --seconds of passes, one JSON line
# ----------------------------------------------------------------------
def driver(args: argparse.Namespace, scale: ExperimentScale) -> int:
    declared = load_benchmark()
    name = args.workload
    expected = expected_digests([name], scale, args.seed,
                                args.golden)[name]
    started = time.perf_counter()  # tp: allow=TP002 - harness timing
    traced = None
    if args.trace:
        traced = traced_run(name, scale, args.seed, args.out, expected)
    passes = []
    while True:
        report = timed_pass(name, scale, args.seed)
        if "error" in report:
            print(report["error"], file=sys.stderr)
        passes.append(report)
        elapsed = time.perf_counter() - started  # tp: allow=TP002 - harness timing
        if elapsed >= args.seconds:
            break
    summary = summarize(passes, expected)
    failed = summary.pop("failed_passes")["value"]
    attempted = len(passes)
    if traced is not None:
        attempted += 2
        failed += traced["failed"]
        add_overhead(traced, summary)
        group, values = "per_layer", traced["layers"]
    else:
        group = "end_to_end"
        values = {metric: entry["value"]
                  for metric, entry in summary.items()}
    metrics = {metric: {"value": values[metric], "unit": entry["unit"]}
               for metric, entry in declared[group].items()
               if metric in values}
    if len(metrics) != len(declared[group]):
        print(f"{name}: no pass produced the declared {group} metrics",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_golden(args: argparse.Namespace, scale: ExperimentScale) -> int:
    digests = {}
    for name in CELLS:
        reference = timed_pass(name, scale, 0, reference=True)
        default = timed_pass(name, scale, 0)
        for report in (reference, default):
            if "error" in report:
                raise SystemExit(f"{name} failed:\n{report['error']}")
        if reference["digest"] != default["digest"]:
            raise SystemExit(
                f"{name}: default core {default['digest'][:12]} != "
                f"reference core {reference['digest'][:12]}; golden "
                f"not written")
        digests[name] = default["digest"]
        print(f"{name}: {default['digest']}")
    args.golden.write_text(json.dumps(
        {"schema": 1, "seed": 0, "scale": scale_key(scale),
         "digests": digests}, indent=1) + "\n", encoding="utf-8")
    print(f"golden -> {args.golden}")
    return 0


def run_check(files: List[str]) -> int:
    base, new = (json.loads(Path(name).read_text(encoding="utf-8"))
                 for name in files)
    rows, regressions = check(base, new, load_benchmark())
    for row in rows:
        print(row)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(CELLS), default=None,
                        help="one workload (the ledger runs all of them "
                             "by default; required with --seconds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the preset, tenant and fault "
                             "seeds (0 = the presets' own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure passes of --workload "
                             "for this long and print one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 reports the per-layer "
                             "metrics of a traced run instead")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="ledger: interleaved rounds (default 9)")
    parser.add_argument("--requests", type=int, default=None,
                        help="trace requests per cell (default: small "
                             "scale, 60000)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup requests per cell (default 15000)")
    parser.add_argument("--golden", type=Path, default=GOLDEN_FILE,
                        help="golden digest file")
    parser.add_argument("--no-golden", action="store_true",
                        help="check against a reference-core pass "
                             "instead of the golden file")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where results.json and span logs go")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.check:
        return run_check(args.check)
    overrides = {key: value for key, value
                 in (("num_requests", args.requests),
                     ("warmup_requests", args.warmup))
                 if value is not None}
    scale = dataclasses.replace(ExperimentScale.small(), **overrides)
    if args.write_golden:
        return write_golden(args, scale)
    if args.no_golden:
        args.golden = None
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return driver(args, scale)
    return ledger(args, scale)


if __name__ == "__main__":
    raise SystemExit(main())
