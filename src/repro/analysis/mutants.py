"""The seeded-bug corpus and the harness that checks tier-1 catches it.

A test suite that never fails is indistinguishable from one that
works.  This harness keeps tier-1 honest: it applies a curated list of
**seeded mutants** — each the minimal, realistic version of a bug
class — and asserts that the one tier-1 test each mutant names, its
**twin**, fails under it.  The ids keep their families:

* ``M01``–``M09`` and ``M11``–``M15``, value bugs: swapped
  ``lpn``/``ppn`` arguments, an LPN-indexed table indexed by VTPN, VTPNs
  handed to the flash array where it takes PTPNs, milliseconds where
  microseconds are expected, a byte budget stored as an entry count, an
  LPN summed for access sequence numbers, an MRU-end CMT eviction, an
  S-FTL hit sent to the LRU end of the page cache, a result decoder
  reading one field into its neighbour.
  Most change a golden digest in ``tests/test_fastpath.py``.
* ``M16``, a policy bug: a prefetch re-reads the page list's cold end
  per eviction, leaving the one node §4.5 confines it to (SAN006).
* ``P06``, ``P10``, ``P11``, file handles: ``repro.tools``' summary
  writer rewritten around a bare ``open()`` — closed by hand, after an
  early return, or twice.  TP007 flags each, so their twin is
  ``test_src_tree_is_lint_clean``.  (``P05`` and ``P08`` are not
  reused; ``docs/architecture.md`` names the tests that catch them.)
* ``F01``–``F05``, bookkeeping bugs: the channel cursor missing from
  the per-run reset, a superseded page invalidated without its
  victim-index move (FTLSan's victim-index check fails), GC rewriting
  its translation pages out of VTPN order, a bulk-lifted victim left
  in its old victim-index bucket, TPFTL's dirty walk leaving a taken
  entry flagged dirty.
* ``W01``, a workload bug: the synthetic generator drawing a request's
  arrival gap ahead of its placement, which shifts every draw after it
  (the ``traces/msr-ts`` digest fails).

:func:`run_mutants` works in four steps:

1. apply every mutant to the in-memory sources, so a before-text that
   no longer matches its file exactly once fails loudly
   (:class:`MutantApplyError`) before anything runs;
2. run the distinct twins once on a pristine copy: they must pass,
   or no mutant runs;
3. per mutant, copy ``src/``, ``tests/`` and ``pyproject.toml`` into a
   temporary directory, write the mutated file there and run ``pytest
   -x`` on the twin.  Only pytest's exit code 1 (tests failed) is a
   kill; 4 or 5 (no such test, nothing collected) is an error, never a
   kill;
4. the mutants run on a thread pool, one worker per CPU.

``tests/`` is copied with ``src/`` because the twins find the source
tree from their own path (``test_src_tree_is_lint_clean`` lints
``<tests>/../src``).  Run it as ``python -m repro.analysis mutants``
or through ``tests/test_analysis_mutants.py``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .lint import normalize_path, read_sources

__all__ = [
    "MUTANTS",
    "Mutant",
    "MutantApplyError",
    "MutantResult",
    "MutationReport",
    "run_mutants",
]

#: pytest's exit codes: tests failed, usage error (an unknown node id),
#: no tests collected
_FAILED, _USAGE, _NO_TESTS = 1, 4, 5


class MutantApplyError(RuntimeError):
    """A mutant's before-text no longer matches its file exactly once,
    or a twin is not a test pytest can run."""


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: an exact-text substitution and its twin test."""

    mid: str
    #: file to mutate, relative to the ``src`` root
    path: str
    #: tier-1 node id, relative to the repository root, that must fail
    twin: str
    description: str
    before: str
    after: str


_GOLDEN = ("tests/test_fastpath.py::TestGoldenTable::"
           "test_cell_matches_reference")
_BENCH_DFTL = _GOLDEN + "[bench/financial1:dftl]"
_BENCH_OPTIMAL = _GOLDEN + "[bench/financial1:optimal]"
_LINT_CLEAN = "tests/test_analysis_lint.py::test_src_tree_is_lint_clean"


#: W01's two blocks of ``generate``'s request loop: the placement (the
#: sequential? draw and the branch it picks) and the arrival draw after it
_W01_PLACEMENT = (
    "        seq_fraction = seq_fractions[is_write]\n"
    "        if seq_fraction and rand() < seq_fraction:\n"
    "            pool = streams[is_write]\n"
    "            stream = pool[current[is_write]]\n"
    "            if stream.remaining < npages:\n"
    "                # Rotate to another stream, preferring one whose live\n"
    "                # run can absorb this request; a stream is only\n"
    "                # restarted (position/remaining reset) when it "
    "cannot —\n"
    "                # an unconditional reset here would clobber the other\n"
    "                # streams' in-progress runs and collapse the documented\n"
    "                # concurrent sticky streams into one effective stream.\n"
    "                eligible = [i for i, s in enumerate(pool)\n"
    "                            if s.remaining >= npages]\n"
    "                if eligible:\n"
    "                    chosen = eligible[randrange(len(eligible))]\n"
    "                else:\n"
    "                    chosen = randrange(len(pool))\n"
    "                current[is_write] = chosen\n"
    "                stream = pool[chosen]\n"
    "                if stream.remaining < npages:\n"
    "                    rank = int(slots * (rand() ** start_alpha))\n"
    "                    if rank > last_slot:\n"
    "                        rank = last_slot\n"
    "                    stream.position = ((rank * slot_stride + slot_base)\n"
    "                                       % slots * align)\n"
    "                    run = int(rng.expovariate(run_rate)) + 1\n"
    "                    stream.remaining = run if run > npages else npages\n"
    "            lpn = stream.position\n"
    "            if lpn + npages > pages:\n"
    "                lpn = 0\n"
    "            stream.position = lpn + npages\n"
    "            stream.remaining -= npages\n"
    "        else:\n"
    "            rank = int(pages * (rand() ** zipf_alpha))\n"
    "            if rank >= pages:\n"
    "                rank = pages - 1\n"
    "            lpn = (rank * stride + base) % pages\n"
    "            if lpn + npages > pages:\n"
    "                lpn = pages - npages\n")
_W01_ARRIVAL = (
    "        if arrival_rate:\n"
    "            # random.expovariate's own expression\n"
    "            clock += -log(1.0 - rand()) / arrival_rate\n")


#: the seeded bugs, each with the tier-1 test that must fail under it
MUTANTS: Tuple[Mutant, ...] = (
    # value bugs: an address or a unit of the wrong domain
    Mutant(
        mid="M01", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="read-modify-write reads the LPN instead of the "
                    "old PPN",
        before="flash.read(ppn_old, DATA_PAGE)",
        after="flash.read(lpn, DATA_PAGE)"),
    Mutant(
        mid="M02", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="swapped lpn/ppn arguments when recording a "
                    "mapping",
        before="record_mapping(lpn, ppn_new, result)",
        after="record_mapping(ppn_new, lpn, result)"),
    Mutant(
        mid="M03", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="flash_table indexed by PPN and fed an LPN on the "
                    "translation-write path",
        before="            flash_table[lpn] = ppn\n",
        after="            flash_table[ppn] = lpn\n"),
    Mutant(
        mid="M04", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="GC's miss grouping derives the VTPN from the new "
                    "PPN instead of the LPN",
        before="map(per_page.__rfloordiv__, missed))",
        after="map(per_page.__rfloordiv__, missed.values()))"),
    Mutant(
        mid="M05", path="repro/ftl/base.py",
        twin=_GOLDEN + "[zoo/financial1:dftl]",
        description="unmapped-check compares a PPN against an LPN",
        before="if ppn_old == UNMAPPED:",
        after="if ppn_old == lpn:"),
    Mutant(
        mid="M06", path="repro/ftl/dftl.py",
        twin=_BENCH_DFTL,
        description="double translation: flash_table indexed by VTPN "
                    "instead of LPN",
        before="ppn = self.flash_table[lpn]",
        after="ppn = self.flash_table[lpn // self.entries_per_page]"),
    Mutant(
        mid="M07", path="repro/ftl/dftl.py",
        twin="tests/test_edge_cases.py::TestCacheExactlyOneUnit::"
             "test_dftl_single_entry_cache",
        description="byte budget stored as an entry count (missing "
                    "// DFTL_ENTRY_BYTES)",
        before="self.capacity_entries = budget // DFTL_ENTRY_BYTES",
        after="self.capacity_entries = budget"),
    Mutant(
        mid="M08", path="repro/ssd/device.py",
        twin=_BENCH_OPTIMAL,
        description="per-request service time converted to ms and "
                    "dispatched where µs are expected",
        before="            service = (reads * read_us + writes * "
               "write_us\n"
               "                       + erases * erase_us)\n",
        after="            response_ms = (reads * read_us + writes * "
              "write_us\n"
              "                           + erases * erase_us) / "
              "1000.0\n"
              "            service = response_ms\n"),
    Mutant(
        mid="M09", path="repro/ssd/device.py",
        twin=_BENCH_OPTIMAL,
        description="single-channel finish time adds milliseconds to "
                    "a microsecond clock",
        before="                start = arrival if arrival > free else free\n"
               "                busy[0] = finish = start + service\n",
        after="                service_ms = service / 1000.0\n"
              "                start = arrival if arrival > free else free\n"
              "                busy[0] = finish = start + service_ms\n"),
    Mutant(
        mid="M11", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="GC's forced rewrite hands relocate the VTPNs "
                    "instead of the PTPNs the GTD holds for them",
        before="self.flash.relocate(ptpns, TRANSLATION_PAGE)",
        after="self.flash.relocate(forced_vtpns, TRANSLATION_PAGE)"),
    Mutant(
        mid="M12", path="repro/ftl/tpftl.py",
        twin=_GOLDEN + "[ablation/financial1:-]",
        description="a loaded entry adds its LPN, not its access "
                    "sequence number, to its TP node's hotness sum",
        before="node.hot_sum += seq\n",
        after="node.hot_sum += lpn\n"),
    Mutant(
        mid="M13", path="repro/ftl/dftl.py", twin=_BENCH_DFTL,
        description="the CMT evicts its MRU end instead of its LRU end",
        before="cmt.popitem(last=False)", after="cmt.popitem(last=True)"),
    Mutant(
        mid="M14", path="repro/ftl/sftl.py",
        twin=_GOLDEN + "[device/gc-heavy-sftl]",
        description="an S-FTL hit moves its page to the LRU end of the "
                    "page cache instead of the MRU end",
        before="pages.move_to_end(vtpn)",
        after="pages.move_to_end(vtpn, last=False)"),
    Mutant(
        mid="M15", path="repro/experiments/runner.py",
        twin="tests/test_experiments_runner.py::TestResultCodec::"
             "test_cache_round_trip_equals_fresh_run",
        description="the result decoder reads service_time_us into its "
                    "neighbour gc_time_us",
        before="    return _RESULT.decode(payload)\n",
        after="    return _RESULT.decode(\n"
              "        {**payload, \"gc_time_us\": payload[\"service_time_us\"]})\n"),
    # a policy bug: the §4.5 confinement dropped
    Mutant(
        mid="M16", path="repro/ftl/tpftl.py",
        twin="tests/test_analysis_sanitizer.py::"
             "test_full_rate_10k_ops_clean[tpftl]",
        description="a prefetch re-reads the page list's cold end for "
                    "every eviction instead of the node it captured",
        before="                if allowed_victim is None:  "
               "# ``page_list.lru``, never empty\n",
        after="                if True:  # re-read per eviction\n"),
    # file handles: the summary writer's with block opened by hand
    Mutant(
        mid="P06", path="repro/tools.py",
        twin=_LINT_CLEAN,
        description="summary writer rewritten as manual open/close "
                    "outside with/try-finally",
        before="            with open(args.json, \"w\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(payload)",
        after="            handle = open(args.json, \"w\", "
              "encoding=\"utf-8\")\n"
              "            handle.write(payload)\n"
              "            handle.close()"),
    Mutant(
        mid="P10", path="repro/tools.py",
        twin=_LINT_CLEAN,
        description="early return before the summary file is closed",
        before="            with open(args.json, \"w\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(payload)",
        after="            handle = open(args.json, \"w\", "
              "encoding=\"utf-8\")\n"
              "            if not payload:\n"
              "                return 1\n"
              "            handle.write(payload)\n"
              "            handle.close()"),
    Mutant(
        mid="P11", path="repro/tools.py",
        twin=_LINT_CLEAN,
        description="summary writer rewritten by hand with a stray "
                    "second close(): double release of the handle",
        before="            with open(args.json, \"w\", "
               "encoding=\"utf-8\") as handle:\n"
               "                handle.write(payload)",
        after="            handle = open(args.json, \"w\", "
              "encoding=\"utf-8\")\n"
              "            try:\n"
              "                handle.write(payload)\n"
              "                handle.close()\n"
              "            finally:\n"
              "                handle.close()"),
    # bugs this repository had
    Mutant(
        mid="F01", path="repro/ssd/device.py",
        twin="tests/test_ssd_parallel.py::TestQueueStateReset::"
             "test_channel_queues_reset_between_runs",
        description="channel cursor dropped from the per-run reset: "
                    "striping resumes where the previous run stopped",
        before="        self._cursor = 0\n",
        after=""),
    Mutant(
        mid="F02", path="repro/flash/flash.py",
        twin="tests/test_analysis_sanitizer.py::"
             "test_full_rate_10k_ops_clean[dftl]",
        description="a program that supersedes a page invalidates it "
                    "without the victim-index move",
        before="                buckets = self.victim_index\n"
               "                buckets[old.invalid_count].discard("
               "old.block_id)\n"
               "                old.invalid_count += 1\n"
               "                buckets[old.invalid_count].add("
               "old.block_id)\n",
        after="                old.invalid_count += 1\n"),
    Mutant(
        mid="F03", path="repro/ftl/base.py",
        twin=_BENCH_DFTL,
        description="dropped sorted(): GC rewrites the translation "
                    "pages of migrated data in first-miss order",
        before="forced_vtpns = sorted(dict.fromkeys(",
        after="forced_vtpns = list(dict.fromkeys("),
    Mutant(
        mid="F04", path="repro/flash/flash.py",
        twin=_BENCH_DFTL,
        description="the bulk victim lift leaves the victim in its old "
                    "victim-index bucket",
        before="                buckets[victim.invalid_count].discard("
               "victim.block_id)\n"
               "                victim.invalid_count += moved\n"
               "                buckets[victim.invalid_count].add("
               "victim.block_id)\n",
        after="                victim.invalid_count += moved\n"),
    Mutant(
        mid="F05", path="repro/ftl/tpftl.py",
        twin=_GOLDEN + "[ablation/financial1:b]",
        description="the dirty walk hands an entry to a translation-page "
                    "update but leaves it flagged dirty",
        before="                entry.dirty = False\n"
               "                left -= 1\n",
        after="                left -= 1\n"),
    # the workload generator: one RNG draw out of its pinned order
    Mutant(
        mid="W01", path="repro/workloads/synthetic.py",
        twin=_GOLDEN + "[traces/msr-ts]",
        description="the arrival gap is drawn ahead of the placement: "
                    "every later draw of the request moves",
        before=_W01_PLACEMENT + _W01_ARRIVAL,
        after=_W01_ARRIVAL + _W01_PLACEMENT),
)


@dataclass(frozen=True)
class MutantResult:
    """One mutant's outcome: pytest's exit code for its twin."""

    mutant: Mutant
    exit_code: int
    #: the tail of pytest's output
    output: str

    @property
    def killed(self) -> bool:
        """True when the twin failed on the mutated copy."""
        return self.exit_code == _FAILED


@dataclass
class MutationReport:
    """The harness outcome: the pristine run + per-mutant verdicts."""

    #: pytest's output when a twin fails on the pristine tree, else ""
    pristine_failure: str
    results: List[MutantResult]

    @property
    def survivors(self) -> List[MutantResult]:
        """Mutants whose twin did not fail."""
        return [r for r in self.results if not r.killed]

    @property
    def ok(self) -> bool:
        """True when the twins pass pristine and every mutant is killed."""
        return not self.pristine_failure and not self.survivors


def _apply(sources: Mapping[str, str], key: str,
           mutant: Mutant) -> Dict[str, str]:
    """A copy of ``sources`` with ``mutant`` applied to file ``key``."""
    original = sources.get(key, "")
    occurrences = original.count(mutant.before)
    if occurrences != 1:
        raise MutantApplyError(
            f"{mutant.mid}: expected exactly one occurrence of the "
            f"before-text in {mutant.path}, found {occurrences} — the "
            "source drifted; update the mutant list")
    return {**sources,
            key: original.replace(mutant.before, mutant.after)}


def _copy_tree(src_root: pathlib.Path, dest: pathlib.Path) -> None:
    """``src_root`` as ``dest/src``, with its sibling ``tests/`` and
    ``pyproject.toml`` beside it."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(src_root, dest / "src", ignore=ignore)
    tests = src_root.parent / "tests"
    if tests.is_dir():
        shutil.copytree(tests, dest / "tests", ignore=ignore)
    pyproject = src_root.parent / "pyproject.toml"
    if pyproject.is_file():
        shutil.copy(pyproject, dest)


def _pytest(label: str, root: pathlib.Path,
            args: Sequence[str]) -> Tuple[int, str]:
    """Run pytest in ``root`` on its own ``src``; the exit code and the
    output's last lines.  An exit code of 4 or 5 raises."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=False)
    lines = (done.stdout + done.stderr).splitlines()
    if done.returncode in (_USAGE, _NO_TESTS):
        reason = next((line for line in lines
                       if line.startswith("ERROR")),
                      "no tests collected")
        raise MutantApplyError(
            f"{label}: pytest exited {done.returncode} on the twin: "
            f"{reason}")
    return done.returncode, "\n".join(lines[-20:])


def run_mutants(src_root: str = "src",
                mutants: Sequence[Mutant] = MUTANTS) -> MutationReport:
    """Run the full harness against the tree at ``src_root`` (its
    ``tests/`` and ``pyproject.toml`` are taken from beside it)."""
    root = pathlib.Path(src_root).resolve()
    sources = read_sources([str(root)])
    planned: List[Tuple[Mutant, str]] = []
    for mutant in mutants:
        key = normalize_path(root / mutant.path)
        planned.append((mutant, _apply(sources, key, mutant)[key]))

    twins = sorted({mutant.twin for mutant in mutants})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(root, pathlib.Path(tmp))
        code, output = _pytest("pristine", pathlib.Path(tmp), twins)
    if code:
        return MutationReport(pristine_failure=output, results=[])

    def kill(plan: Tuple[Mutant, str]) -> MutantResult:
        mutant, text = plan
        with tempfile.TemporaryDirectory() as tmp:
            copy = pathlib.Path(tmp)
            _copy_tree(root, copy)
            (copy / "src" / mutant.path).write_text(text, encoding="utf-8")
            code, output = _pytest(mutant.mid, copy, ["-x", mutant.twin])
        return MutantResult(mutant=mutant, exit_code=code, output=output)

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(kill, planned))
    return MutationReport(pristine_failure="", results=results)
