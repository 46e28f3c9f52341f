"""Command-line entry point: ``python -m repro.analysis``.

Subcommands:

* ``lint [paths...]`` — parse the Python sources under ``paths``
  (default: ``src``) once each and run the lexical TP0xx rules over
  them.  Exits 1 when there are findings, 2 when the input cannot be
  analyzed (a path that does not exist, no Python files, a syntax
  error).  ``--format text|json`` picks the report format and
  ``--output`` sends the json document to a file;
  ``--disable``/``--exclude`` select rules and prune subtrees per
  invocation (tests legitimately use ``assert``, so CI lints them with
  ``--disable TP003``).
* ``mutants`` — check that tier-1 catches the seeded bugs of
  :mod:`repro.analysis.mutants`: every mutant's twin test must pass on
  a pristine copy of the tree and fail on a mutated one.  Exits 1 when
  one survives, 2 when a mutant no longer applies or a twin is not a
  test pytest can run.
* ``rules`` — print the TP lint rules and the SAN sanitizer rules,
  each sorted, with one-line descriptions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Set

from .checkers import SAN_RULES
from .lint import Finding, RULES, analyze, read_sources
from .mutants import MUTANTS, MutantApplyError, run_mutants

#: the report formats the lint subcommand can emit
FORMATS = ("text", "json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="The simulator's own lint (TP0xx rules), the "
                    "seeded-mutant check of the tier-1 tests, and rule "
                    "listing for the FTLSan runtime sanitizer.")
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser(
        "lint", help="run the TP0xx lint rules over Python sources")
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    lint.add_argument(
        "--format", choices=FORMATS, default="text", dest="format_",
        metavar="FORMAT", help="report format: text (default) or json")
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the json document to FILE instead of stdout")
    lint.add_argument(
        "--disable", action="append", default=[], metavar="CODES",
        help="rule codes to skip (comma-separated, repeatable); e.g. "
             "--disable TP003 when linting test trees")
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="path prefixes to prune from the linted trees "
             "(repeatable); e.g. --exclude tests/fixtures")
    mutants = sub.add_parser(
        "mutants", help="check that each seeded mutant fails its named "
                        "tier-1 twin test")
    mutants.add_argument(
        "--src", default="src", metavar="DIR",
        help="source tree to mutate; its tests/ and pyproject.toml "
             "are taken from beside it (default: src)")
    mutants.add_argument(
        "--list", action="store_true", dest="list_",
        help="print the mutant corpus without running anything")
    sub.add_parser(
        "rules", help="list the TP lint rules and the SAN sanitizer "
                      "rules")
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


def _run_lint(args: argparse.Namespace, disabled: Set[str]) -> int:
    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sources = read_sources(args.paths, exclude=args.exclude)
    if not sources:
        print(f"error: no Python files under: {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    findings = [f for f in analyze(sources) if f.rule not in disabled]
    if args.format_ == "json":
        text = json.dumps(_json_document(findings), indent=2) + "\n"
        if args.output:
            pathlib.Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
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
            print(f"{mutant.mid}  {mutant.path}: {mutant.description}"
                  f"  [{mutant.twin}]")
        return 0
    report = run_mutants(src_root=args.src, mutants=MUTANTS)
    if report.pristine_failure:
        print("a twin fails on the pristine tree:")
        print(report.pristine_failure)
        return 1
    print(f"pristine: {len({m.twin for m in MUTANTS})} twin(s) pass")
    for result in report.results:
        verdict = "killed" if result.killed else "SURVIVED"
        print(f"{result.mutant.mid}  {verdict:8s} {result.mutant.path}: "
              f"{result.mutant.description}  [{result.mutant.twin}]")
    for result in report.survivors:
        print(f"{result.mutant.mid}: pytest exited {result.exit_code}:")
        print(result.output)
    if report.survivors:
        print(f"{len(report.survivors)} mutant(s) survived")
        return 1
    print(f"all {len(report.results)} mutant(s) killed by their twins")
    return 0


def _run_rules() -> int:
    print("TPxxx lint rules (python -m repro.analysis lint):")
    for code in sorted(RULES):
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
        parser.error("--output needs a document format (--format json); "
                     "the text report always goes to stdout")
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
