"""Command-line entry point: ``python -m repro.analysis``.

Subcommands:

* ``lint [paths...]`` — parse the Python sources under ``paths``
  (default: ``src``) exactly once into a project and run every static
  pass over it (the lexical TP0xx rules, the interprocedural TP1xx
  flow rules, the TP2xx domain/unit pass and the TP3xx
  typestate/protocol pass).  Exits 1 when there are findings, 2 when
  the input cannot be analyzed (a path that does not exist, no Python
  files, a syntax error).  ``--format text|json|sarif`` picks the
  report format (SARIF 2.1.0 feeds GitHub code scanning) and
  ``--output`` sends the json/sarif document to a file;
  ``--disable``/``--exclude`` select rules and prune subtrees per
  invocation (tests legitimately use ``assert``, so CI lints them with
  ``--disable TP003``); ``--stats`` prints the per-pass wall-clock
  split.
* ``mutants`` — self-validate the TP1xx flow, TP2xx domain and TP3xx
  protocol passes: apply the seeded mutants from
  :mod:`repro.analysis.mutants` to the in-memory sources of ``src``
  and fail unless every mutant is flagged while the pristine tree
  stays clean.
* ``rules`` — print every rule family (TP0xx lint, TP1xx flow, TP2xx
  domain, TP3xx typestate, SAN sanitizer), grouped and sorted, with
  one-line descriptions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Set

from .checkers import SAN_RULES
from .flow import Project, analyze, to_sarif
from .lint import Finding, RULES
from .mutants import MUTANTS, MutantApplyError, run_mutants

#: the report formats the lint subcommand can emit
FORMATS = ("text", "json", "sarif")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis (TP0xx-TP3xx "
                    "rules over one shared parse) and rule listing for "
                    "the FTLSan runtime sanitizer.")
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser(
        "lint", help="run every analysis pass over Python sources "
                     "(one shared parse)")
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    lint.add_argument(
        "--format", choices=FORMATS, default="text", dest="format_",
        metavar="FORMAT",
        help="report format: text (default), json, or sarif "
             "(SARIF 2.1.0 for GitHub code scanning)")
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the json/sarif document to FILE instead of stdout")
    lint.add_argument(
        "--disable", action="append", default=[], metavar="CODES",
        help="rule codes to skip (comma-separated, repeatable); e.g. "
             "--disable TP003 when linting test trees")
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="path prefixes to prune from the linted trees "
             "(repeatable); e.g. --exclude tests/fixtures")
    lint.add_argument(
        "--stats", action="store_true",
        help="print the per-pass wall-clock split (parse once, then "
             "lint/flow/domains/protocols over the shared project)")
    mutants = sub.add_parser(
        "mutants", help="self-validate the TP1xx flow, TP2xx domain "
                        "and TP3xx protocol passes against the seeded "
                        "mutant corpus")
    mutants.add_argument(
        "--src", default="src", metavar="DIR",
        help="source tree to read and mutate in memory (default: src)")
    mutants.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="format_", metavar="FORMAT",
        help="report format: text (default) or json")
    mutants.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the json document to FILE instead of stdout")
    mutants.add_argument(
        "--list", action="store_true", dest="list_",
        help="print the mutant corpus without running the analysis")
    sub.add_parser(
        "rules", help="list every rule family (TP0xx lint, TP1xx "
                      "flow, TP2xx domain, TP3xx typestate, SAN "
                      "sanitizer)")
    return parser


def _disabled_codes(parser: argparse.ArgumentParser,
                    raw: Sequence[str]) -> Set[str]:
    """The rule codes named by ``--disable``; an unknown code exits 2
    through ``parser.error``, naming the valid ones."""
    codes: Set[str] = set()
    for chunk in raw:
        codes.update(c.strip() for c in chunk.split(",") if c.strip())
    unknown = sorted(codes - set(RULES))
    if unknown:
        parser.error(f"--disable: unknown rule code(s) "
                     f"{', '.join(unknown)}; valid codes are "
                     f"{', '.join(sorted(RULES))}")
    return codes


def _emit_document(document: Dict[str, object],
                   output: Optional[str]) -> None:
    text = json.dumps(document, indent=2) + "\n"
    if output:
        pathlib.Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_document(findings: Sequence[Finding]) -> Dict[str, object]:
    return {
        "version": 2,
        "tool": "repro.analysis",
        "findings": [{
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "snippet": finding.snippet,
        } for finding in findings],
    }


def _format_stats(timings: Dict[str, float]) -> str:
    parts = [f"{label} {seconds*1000.0:.0f}ms"
             for label, seconds in timings.items()]
    total = sum(timings.values())
    return (f"stats: {' | '.join(parts)} "
            f"(total {total*1000.0:.0f}ms, one shared parse)")


def _run_lint(args: argparse.Namespace, disabled: Set[str]) -> int:
    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    timings: Dict[str, float] = {}
    started = time.perf_counter()  # tp: allow=TP002 - host-side stats
    project = Project.from_paths(args.paths, exclude=args.exclude)
    timings["parse"] = time.perf_counter() - started  # tp: allow=TP002 - host-side stats
    if not project.modules:
        print(f"error: no Python files under: {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    findings = [f for f in analyze(project, timings=timings)
                if f.rule not in disabled]
    if args.stats:
        print(_format_stats(timings), file=sys.stderr)
    if args.format_ == "json":
        _emit_document(_json_document(findings), args.output)
    elif args.format_ == "sarif":
        _emit_document(to_sarif(findings), args.output)
    else:
        for finding in findings:
            print(finding.render())
    status = sys.stdout if args.format_ == "text" else sys.stderr
    if findings:
        print(f"{len(findings)} finding(s)", file=status)
        return 1
    print("lint clean", file=status)
    return 0


def _run_mutants(args: argparse.Namespace) -> int:
    if args.list_:
        for mutant in MUTANTS:
            print(f"{mutant.mid}  {mutant.rule}  {mutant.path}: "
                  f"{mutant.description}")
        return 0
    report = run_mutants(src_root=args.src)
    if args.format_ == "json":
        _emit_document(report.to_json(), args.output)
    else:
        for finding in report.pristine:
            print(f"pristine: {finding.render()}")
        for result in report.results:
            verdict = "killed" if result.killed else "SURVIVED"
            rules = ",".join(sorted({f.rule for f in result.delta}))
            print(f"{result.mutant.mid}  {verdict:8s} "
                  f"{result.mutant.rule}  {result.mutant.path}: "
                  f"{result.mutant.description}"
                  + (f"  [{rules}]" if rules else ""))
    status = sys.stdout if args.format_ == "text" else sys.stderr
    if report.pristine:
        print(f"{len(report.pristine)} finding(s) on the pristine "
              "tree", file=status)
    if report.survivors:
        print(f"{len(report.survivors)} mutant(s) survived",
              file=status)
    if report.ok:
        print(f"all {len(report.results)} mutant(s) killed; pristine "
              "tree clean", file=status)
    return 0 if report.ok else 1


#: the families of the one static rule table, by code prefix, as the
#: ``rules`` subcommand titles them (the SAN table follows)
_RULE_FAMILIES = (
    ("TP0", "TP0xx AST lint rules (python -m repro.analysis lint):"),
    ("TP1", "TP1xx interprocedural flow rules (same lint subcommand; "
            "self-validated by the mutants subcommand):"),
    ("TP2", "TP2xx domain/unit rules (same lint subcommand; "
            "self-validated by the mutants subcommand):"),
    ("TP3", "TP3xx typestate/protocol rules (same lint subcommand; "
            "CFGs with exception edges, self-validated by the mutants "
            "subcommand):"),
)


def _run_rules() -> int:
    for prefix, title in _RULE_FAMILIES:
        print(title)
        for code in sorted(RULES):
            if code.startswith(prefix):
                print(f"  {code}  {RULES[code]}")
        print()
    print("SANxxx sanitizer rules (config.sanitizer / FTLSan):")
    for code in sorted(SAN_RULES):
        print(f"  {code}  {SAN_RULES[code]}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "output", None) and args.format_ == "text":
        parser.error("--output needs a document format (--format json"
                     + ("|sarif" if args.command == "lint" else "")
                     + "); the text report always goes to stdout")
    try:
        if args.command == "lint":
            return _run_lint(args, _disabled_codes(parser, args.disable))
        if args.command == "mutants":
            return _run_mutants(args)
    except SyntaxError as exc:
        print(f"error: {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except MutantApplyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_rules()


if __name__ == "__main__":
    sys.exit(main())
