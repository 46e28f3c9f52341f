"""Mutation self-validation of the TP1xx and TP2xx flow passes and of
the lexical TP007.

A static analysis that never fires is indistinguishable from one that
works.  This harness keeps the flow passes honest from both sides: it
applies a curated list of **seeded mutants** — each the minimal,
realistic version of a bug class a pass exists for.  The **domain
mutants** (``M01``–``M11``) cover the TP2xx value bugs: swapped
``lpn``/``ppn`` arguments, an ``lpn``-indexed structure indexed by
VPN, VTPNs handed to the flash array where it takes PTPNs, a dropped
``* pages_per_block`` conversion, milliseconds handed to a microsecond
parameter, a byte budget stored as an entry count.
The **protocol mutants** (``P06``, ``P10``, ``P11``; the ids of the
retired fast-mode window mutants, ``P05`` and ``P08`` are not reused)
cover the resource bugs: the ``repro.tools`` summary writer's
``with open(...)`` block rewritten as manual ``open``/``close``, with a
stray second ``close()`` or with an early ``return`` before the
``close()`` (TP007).  Two protocol mutants left the corpus with the
rules that caught them, because runtime twins in the tests fail under
them.  ``P05``, the supervisor's spawn-failure cleanup dropped, fails
``tests/test_runner_chaos.py::TestDegradeToSerial::test_failed_spawn_closes_both_pipe_ends``
(pipe ends left open) and
``tests/test_runner_chaos.py::TestDegradeToSerial::test_failed_start_terminates_the_started_worker``
(a started worker left alive with its pipe ends open).  ``P08``, the
per-run device reset dropped ahead of the serve loop, fails
``tests/test_ssd_parallel.py::TestQueueStateReset::test_channel_queues_reset_between_runs``.
The **flow mutants** (``F01``–``F03``) re-seed bugs this repository
had, one per TP1xx rule: the channel cursor missing from the per-run
reset (PR 4), the hybrid merge invalidating pages behind
``FlashMemory``'s back (PR 2), and GC walking its translation pages in
set order.  The tree is read once into a ``{path: source}`` dict; each mutant is applied to a copy
of that dict (nothing is written anywhere) and the harness asserts that

* the **pristine tree is clean**: zero findings (the analysis does not
  cry wolf at HEAD), and
* **every mutant is killed**: the analysis of the mutated sources
  yields at least one *new* finding of the expected rule in the
  mutated file.

Each mutant is an exact-text substitution that must match its file
exactly once; when the underlying source drifts, the harness fails
loudly (:class:`MutantApplyError`) instead of silently validating
nothing.  Run it as ``python -m repro.analysis mutants`` (CI does, in
the ``analysis-mutants`` job) or through
``tests/test_analysis_mutants.py``.

Any rewrite of the translation hot loops has to keep all of these
mutants detectable.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .flow import Project, analyze, read_sources
from .lint import Finding, normalize_path

__all__ = [
    "DOMAIN_MUTANTS",
    "FLOW_MUTANTS",
    "MUTANTS",
    "Mutant",
    "MutantApplyError",
    "MutantResult",
    "MutationReport",
    "PROTOCOL_MUTANTS",
    "run_mutants",
]


class MutantApplyError(RuntimeError):
    """A mutant's before-text no longer matches its file exactly once."""


@dataclass(frozen=True)
class Mutant:
    """One seeded domain/unit bug: an exact-text substitution."""

    mid: str
    #: file to mutate, relative to the ``src`` root
    path: str
    #: rule expected to kill the mutant (TP007, TP1xx or TP2xx)
    rule: str
    description: str
    before: str
    after: str


#: the seeded domain/unit mutants: every one must be killed by TP2xx
DOMAIN_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="M01", path="repro/ftl/base.py", rule="TP201",
        description="read-modify-write reads the LPN instead of the "
                    "old PPN",
        before="self.flash.read(ppn_old, PageKind.DATA)",
        after="self.flash.read(lpn, PageKind.DATA)"),
    Mutant(
        mid="M02", path="repro/ftl/base.py", rule="TP201",
        description="swapped lpn/ppn arguments when recording a "
                    "mapping",
        before="self._record_mapping(lpn, ppn_new, result)",
        after="self._record_mapping(ppn_new, lpn, result)"),
    Mutant(
        mid="M03", path="repro/ftl/base.py", rule="TP201",
        description="flash_table indexed by PPN and fed an LPN on the "
                    "translation-write path",
        before="            flash_table[lpn] = ppn\n",
        after="            flash_table[ppn] = lpn\n"),
    Mutant(
        mid="M04", path="repro/ftl/base.py", rule="TP201",
        description="GC migration derives the VTPN from the new PPN "
                    "instead of the LPN",
        before="vtpn = self.geometry.vtpn_of(lpn)",
        after="vtpn = self.geometry.vtpn_of(new_ppn)"),
    Mutant(
        mid="M05", path="repro/ftl/base.py", rule="TP202",
        description="unmapped-check compares a PPN against an LPN",
        before="if ppn_old == UNMAPPED:",
        after="if ppn_old == lpn:"),
    Mutant(
        mid="M06", path="repro/ftl/dftl.py", rule="TP201",
        description="double translation: flash_table indexed by VTPN "
                    "instead of LPN",
        before="ppn = self.flash_table[lpn]",
        after="ppn = self.flash_table[self.geometry.vtpn_of(lpn)]"),
    Mutant(
        mid="M07", path="repro/ftl/dftl.py", rule="TP204",
        description="byte budget stored as an entry count (missing "
                    "// entry_bytes)",
        before="self.capacity_entries = budget // entry_bytes",
        after="self.capacity_entries = budget"),
    Mutant(
        mid="M08", path="repro/ssd/device.py", rule="TP203",
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
        mid="M09", path="repro/ssd/device.py", rule="TP203",
        description="single-channel finish time adds milliseconds to "
                    "a microsecond clock",
        before="            start = arrival if arrival > free else free\n"
               "            busy[0] = finish = start + service_us\n",
        after="            service_ms = service_us / 1000.0\n"
              "            start = arrival if arrival > free else free\n"
              "            busy[0] = finish = start + service_ms\n"),
    Mutant(
        mid="M10", path="repro/ftl/block_ftl.py", rule="TP201",
        description="dropped * pages_per_block: a block index used as "
                    "the block's base LPN",
        before="        base_lpn = lbn * ppb",
        after="        base_lpn = lbn"),
    Mutant(
        mid="M11", path="repro/ftl/base.py", rule="TP201",
        description="GC's forced rewrite hands relocate the VTPNs "
                    "instead of the PTPNs the GTD holds for them",
        before="self.flash.relocate(ptpns, PageKind.TRANSLATION)",
        after="self.flash.relocate(forced_vtpns, PageKind.TRANSLATION)"),
)


#: the seeded protocol mutants: every one must be killed by TP007
PROTOCOL_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="P06", path="repro/tools.py", rule="TP007",
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
        mid="P10", path="repro/tools.py", rule="TP007",
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
        mid="P11", path="repro/tools.py", rule="TP007",
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
)


#: the seeded flow mutants, each a bug this repository once had: every
#: one must be killed by TP1xx
FLOW_MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        mid="F01", path="repro/ssd/device.py", rule="TP101",
        description="channel cursor dropped from the per-run reset: "
                    "striping resumes where the previous run stopped",
        before="        self._cursor = 0\n",
        after=""),
    Mutant(
        mid="F02", path="repro/ftl/hybrid.py", rule="TP102",
        description="switch merge invalidates the old data block's "
                    "pages on the Block, behind FlashMemory (no fault "
                    "injector, no victim index)",
        before="            self.flash.invalidate("
               "self.flash.ppn_of(block_id, offset))",
        after="            self.flash.blocks[block_id].invalidate("
              "offset)"),
    Mutant(
        mid="F03", path="repro/ftl/base.py", rule="TP104",
        description="dropped sorted(): GC updates the translation "
                    "pages of migrated data in set order",
        before="        for vtpn in sorted(moved_by_vtpn):",
        after="        for vtpn in set(moved_by_vtpn):"),
)


#: the full corpus the CLI and CI run
MUTANTS: Tuple[Mutant, ...] = (DOMAIN_MUTANTS + PROTOCOL_MUTANTS
                               + FLOW_MUTANTS)


@dataclass
class MutantResult:
    """Outcome of one mutant: killed or survived, with the delta."""

    mutant: Mutant
    #: findings of the mutated sources that the pristine ones lack
    delta: List[Finding]

    @property
    def killed(self) -> bool:
        """True when the expected rule fired in the mutated file."""
        return any(f.rule == self.mutant.rule
                   and f.path.endswith(self.mutant.path)
                   for f in self.delta)


@dataclass
class MutationReport:
    """The full harness outcome: pristine check + per-mutant verdicts."""

    #: findings on the unmutated tree (must be empty)
    pristine: List[Finding]
    results: List[MutantResult]

    @property
    def survivors(self) -> List[MutantResult]:
        """Mutants the analysis failed to flag."""
        return [r for r in self.results if not r.killed]

    @property
    def ok(self) -> bool:
        """True when HEAD is clean and every mutant is killed."""
        return not self.pristine and not self.survivors

    def to_json(self) -> Dict[str, object]:
        """JSON document for ``--format json``."""
        return {
            "tool": "repro.analysis mutants",
            "pristine": [f.render() for f in self.pristine],
            "mutants": [{
                "id": r.mutant.mid,
                "path": r.mutant.path,
                "rule": r.mutant.rule,
                "description": r.mutant.description,
                "killed": r.killed,
                "delta": [f.render() for f in r.delta],
            } for r in self.results],
            "ok": self.ok,
        }


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


def run_mutants(src_root: str = "src",
                mutants: Sequence[Mutant] = MUTANTS) -> MutationReport:
    """Run the full harness over the sources under ``src_root``.

    Reads the tree once, analyzes it pristine (the HEAD-clean check),
    then analyzes one mutated copy of the source dict per mutant — one
    parse each — and records the finding delta.
    """
    sources = read_sources([src_root])
    pristine = analyze(Project.from_sources(sources))
    pristine_keys = {f.key for f in pristine}
    results: List[MutantResult] = []
    for mutant in mutants:
        key = normalize_path(pathlib.Path(src_root) / mutant.path)
        mutated = analyze(Project.from_sources(
            _apply(sources, key, mutant)))
        results.append(MutantResult(
            mutant=mutant,
            delta=[f for f in mutated if f.key not in pristine_keys]))
    return MutationReport(pristine=pristine, results=results)
