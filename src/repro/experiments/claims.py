"""The paper's evaluation claims, stated once beside the experiments.

:data:`CLAIMS` maps an experiment id to what the paper's §5 (Table 2,
Fig 1-2, Fig 6-10) reports for that artifact, in the form this
reproduction holds it to: who wins, roughly by how much, where the
sweeps end.  A row is a paper reference, one sentence and a predicate
over the :class:`~repro.experiments.common.ExperimentResult`.
:func:`~repro.experiments.registry.run_experiment` judges the rows of
the experiment it ran and ``render()`` prints the verdicts under the
table, so ``python -m repro.experiments <id>`` is where a claim is read
and tier-1 (``tests/test_experiments.py``) is where it is enforced.

Five rows carry a floor on ``scale.num_requests`` and read ``n/a``
under it.  On the small geometry, the only one the CLI reaches, Fig
2b's sampler has five points from 4 000 requests and its count first
moves between 2 000 and 3 000, Fig 7c's ``s`` bar leaves ``-`` at
2 000, and those four rows hold at every length tried from 5 000 to
60 000.  The tier-1 micro scale (2 500 requests) is under the floor;
its devices have four and eight translation pages, which never leave
the cache, so there the same rows stay flat at any trace length.
Table 2's performance row is the fifth: DFTL's loss on msr-src is 2.8%
at 2 000 requests and 4.2% at 2 800, passes 5% at 3 000 (8.0%) and holds
at every length tried from there to 60 000.  The erasure row needs no
floor: it holds from 1 000 on, as 0 against 0 until DFTL first erases.
"""

from __future__ import annotations

from statistics import fmean
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from .common import (WORKLOADS, ClaimVerdict, ExperimentResult,
                     ExperimentScale)
from .fig1 import WRITE_DOMINANT

FIN = ("financial1", "financial2")
MSR = ("msr-ts", "msr-src")
#: shortest trace on which the sampler and selective prefetching have
#: something to show (measurements in the module docstring)
LONG_TRACE = 5_000


class Claim(NamedTuple):
    """One claim of the paper about one artifact."""

    #: the figure or table, e.g. ``"Fig 6d"``
    ref: str
    text: str
    #: predicate over the result (``Any``: ``data`` is an untyped payload)
    holds: Callable[[Any], bool]
    #: below this many trace requests the row is not judged
    min_requests: int = 0


def _each(check: Callable[[Any], bool],
          workloads: Sequence[str] = WORKLOADS) -> Callable[[Any], bool]:
    """The predicate "``check`` holds for the ``data`` entry of every
    one of ``workloads``" (a missing workload raises, so refutes)."""
    return lambda result: all(check(result.data[w]) for w in workloads)


def _ends(series: Dict[float, float]) -> Tuple[float, float]:
    """A cache sweep's values at its smallest and largest cache."""
    return series[min(series)], series[max(series)]


def _largest_drop(series: Dict[float, float]) -> float:
    """The most one step up in cache size loses."""
    values = [series[f] for f in sorted(series)]
    return max((a - b for a, b in zip(values, values[1:])), default=0.0)


def _dftl_ratio(data: Dict[str, Any], workloads: Sequence[str]) -> float:
    """Mean TPFTL/DFTL ratio of a raw-count figure over ``workloads``."""
    return fmean(data[w]["tpftl"] / data[w]["dftl"] for w in workloads)


CLAIMS: Dict[str, Tuple[Claim, ...]] = {
    "table2": (
        Claim("Table 2", "DFTL loses over 5% of optimal's performance",
              _each(lambda w: w["performance"] > 0.05), min_requests=3_000),
        Claim("Table 2", "DFTL erases no fewer blocks than optimal",
              _each(lambda w: w["erasure"] >= 0.0)),
    ),
    "fig1a": (
        Claim("Fig 1a", "a cached page keeps under 20% of its 1024 entries",
              _each(lambda w: fmean(n for _, n in w["series"]) < 0.2 * 1024)),
    ),
    "fig1b": (
        Claim("Fig 1b", "over 15% of cached pages hold several dirty entries",
              _each(lambda w: w["fraction_pages_multi_dirty"] > 0.15,
                    WRITE_DOMINANT)),
        Claim("Fig 1b", "a cached page holds over 0.5 dirty entries",
              _each(lambda w: w["mean_dirty_per_page"] > 0.5, WRITE_DOMINANT)),
    ),
    "fig2a": (
        Claim("Fig 2a", "sequential runs intersperse Financial1",
              lambda r: (r.data["sequential_extensions"] > 0
                         and len(r.data["density_map"]) > 0)),
    ),
    "fig2b": (
        Claim("Fig 2b", "the cached-page count has five samples",
              lambda r: len(r.data["series"]) >= 5, LONG_TRACE),
        Claim("Fig 2b", "the cached-page count moves (paper: sharp dips)",
              lambda r: len({n for _, n in r.data["series"]}) > 1, LONG_TRACE),
    ),
    "fig6a": (
        Claim("Fig 6a", "TPFTL's Prd is under 10% (paper: under 4%)",
              _each(lambda w: w["tpftl"] < 0.10)),
        Claim("Fig 6a", "TPFTL's Prd is below DFTL's",
              _each(lambda w: w["tpftl"] < w["dftl"])),
        Claim("Fig 6a", "TPFTL's Prd is below S-FTL's, within 0.02",
              _each(lambda w: w["tpftl"] < w["sftl"] + 0.02)),
        Claim("Fig 6a", "optimal never replaces a dirty entry",
              _each(lambda w: w["optimal"] == 0.0)),
    ),
    "fig6b": (
        Claim("Fig 6b", "TPFTL's hit ratio beats DFTL's",
              _each(lambda w: w["tpftl"] > w["dftl"])),
        Claim("Fig 6b", "on MSR TPFTL and S-FTL beat DFTL's by over 0.10",
              _each(lambda w: min(w["tpftl"], w["sftl"]) > w["dftl"] + 0.10,
                    MSR)),
        Claim("Fig 6b", "optimal never misses",
              _each(lambda w: w["optimal"] == 1.0)),
    ),
    "fig6c": (
        Claim("Fig 6c", "TPFTL reads fewer translation pages than DFTL",
              _each(lambda w: w["tpftl"] < w["dftl"])),
    ),
    "fig6d": (
        Claim("Fig 6d", "TPFTL writes under 70% of DFTL's translation pages",
              _each(lambda w: w["tpftl"] < 0.7 * w["dftl"])),
        Claim("Fig 6d", "on average under 55% on Financial, 25% on MSR",
              lambda r: (_dftl_ratio(r.data, FIN) < 0.55
                         and _dftl_ratio(r.data, MSR) < 0.25)),
    ),
    "fig6e": (
        Claim("Fig 6e", "response time: optimal <= TPFTL < DFTL",
              _each(lambda w: w["optimal"] - 1e-6 <= w["tpftl"] < w["dftl"])),
    ),
    "fig6f": (
        Claim("Fig 6f", "WA: optimal <= TPFTL <= DFTL, each within 0.02",
              _each(lambda w: (w["optimal"] - 0.02 <= w["tpftl"]
                               <= w["dftl"] + 0.02))),
        Claim("Fig 6f", "on MSR TPFTL's WA is under 1.6 (paper: near 1)",
              _each(lambda w: w["tpftl"] < 1.6, MSR)),
    ),
    "fig7a": (
        Claim("Fig 7a", "erases: optimal - 0.02 <= TPFTL < DFTL",
              _each(lambda w: w["optimal"] - 0.02 <= w["tpftl"] < 1.0)),
    ),
    "fig7b": (
        Claim("Fig 7b", "'b' alone cuts the Prd of '-' by over 70%",
              lambda r: r.data["b"] < 0.3 * r.data["-"]),
        Claim("Fig 7b", "'bc' is no higher than 'b', within 0.02",
              lambda r: r.data["bc"] <= r.data["b"] + 0.02),
        Claim("Fig 7b", "'-' is within 0.15 of DFTL",
              lambda r: abs(r.data["-"] - r.data["dftl"]) < 0.15),
        Claim("Fig 7b", "prefetching alone ('rs') stays above 'bc'",
              lambda r: r.data["rs"] > r.data["bc"]),
        Claim("Fig 7b", "complete TPFTL ('rsbc') is below DFTL",
              lambda r: r.data["rsbc"] < r.data["dftl"]),
    ),
    "fig7c": (
        Claim("Fig 7c", "'r' lifts the hit ratio over '-'",
              lambda r: r.data["r"] > r.data["-"]),
        Claim("Fig 7c", "'s' lifts the hit ratio over '-'",
              lambda r: r.data["s"] > r.data["-"], LONG_TRACE),
        Claim("Fig 7c", "'rs' is no worse than max('r', 's'), within 0.01",
              lambda r: (r.data["rs"]
                         >= max(r.data["r"], r.data["s"]) - 0.01)),
        Claim("Fig 7c", "'-' does not lose to DFTL, within 0.02",
              lambda r: r.data["-"] >= r.data["dftl"] - 0.02),
        Claim("Fig 7c", "'bc' moves the hit ratio of '-' by under 0.05",
              lambda r: abs(r.data["bc"] - r.data["-"]) < 0.05),
    ),
    "fig8a": (
        Claim("Fig 8a", "'bc' responds faster than '-'",
              lambda r: r.data["bc"] < r.data["-"]),
        Claim("Fig 8a", "complete TPFTL ('rsbc') responds faster than DFTL",
              lambda r: r.data["rsbc"] < r.data["dftl"]),
    ),
    "fig8b": (
        Claim("Fig 8b", "'bc' and 'rsbc' amplify writes less than '-'",
              lambda r: max(r.data["bc"], r.data["rsbc"]) < r.data["-"]),
    ),
    "fig8c": (
        Claim("Fig 8c", "with the whole table cached Prd is 0",
              _each(lambda s: _ends(s)[1] == 0.0)),
        Claim("Fig 8c", "the smallest cache's Prd is no lower",
              _each(lambda s: _ends(s)[0] >= _ends(s)[1])),
    ),
    "fig9a": (
        Claim("Fig 9a", "full table's hit ratio >= smallest cache's - 0.001",
              _each(lambda s: _ends(s)[1] >= _ends(s)[0] - 0.001)),
        Claim("Fig 9a", "full table's hit ratio is over 0.8 (paper: 100%)",
              _each(lambda s: _ends(s)[1] > 0.8)),
        Claim("Fig 9a", "no step up in cache size loses over 0.02",
              _each(lambda s: _largest_drop(s) <= 0.02)),
    ),
    "fig9b": (
        Claim("Fig 9b", "smallest cache responds no faster, within 2%",
              _each(lambda s: _ends(s)[0] >= _ends(s)[1] - 0.02)),
    ),
    "fig9c": (
        Claim("Fig 9c", "smallest cache's WA is no lower, within 0.05",
              _each(lambda s: _ends(s)[0] >= _ends(s)[1] - 0.05)),
    ),
    "fig10": (
        Claim("Fig 10", "the gain stays under the 8B/6B bound of 33% + 1pt",
              _each(lambda s: max(s.values()) <= 0.34)),
        Claim("Fig 10", "at the largest cache MSR gains >= Financial - 0.05",
              lambda r: (max(_ends(r.data[w])[1] for w in MSR) >= max(
                  _ends(r.data[w])[1] for w in FIN) - 0.05)),
    ),
    "threshold-sweep": (
        Claim("§4.3 / Fig 7c", "threshold 3 prefetches on sequential MSR-ts",
              lambda r: r.data["cells"][("msr-ts", 3)]["prefetched"] > 0),
        Claim("§4.3 / Fig 7c", "over half of those prefetches are used",
              lambda r: r.data["cells"][("msr-ts", 3)]["accuracy"] > 0.5,
              LONG_TRACE),
    ),
}


def evaluate(result: ExperimentResult,
             scale: ExperimentScale) -> List[ClaimVerdict]:
    """Judge every claim about ``result``'s experiment.

    A predicate that raises (a result whose ``data`` lacks what the
    claim reads) refutes its row with the exception text instead of
    escaping the experiment run.
    """
    verdicts = []
    for claim in CLAIMS.get(result.experiment_id, ()):
        if scale.num_requests < claim.min_requests:
            mark, detail = "n/a", (f"needs >= {claim.min_requests} "
                                   f"requests, ran {scale.num_requests}")
        else:
            try:
                mark, detail = ("✓" if claim.holds(result) else "✗"), ""
            except Exception as exc:
                mark, detail = "✗", f"{type(exc).__name__}: {exc}"
        verdicts.append(ClaimVerdict(claim.ref, claim.text, mark, detail))
    return verdicts
