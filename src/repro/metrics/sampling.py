"""Periodic sampling of the mapping-cache distribution.

Figure 1 of the paper samples DFTL's cache every 10,000 user page accesses
and reports (a) the average number of cached entries per cached translation
page and (b) the CDF of dirty entries per cached translation page; Figure
2(b) tracks the number of cached translation pages over time.  The sampler
here captures exactly those series for any FTL that can describe its cache
as a set of (entries, dirty-entries) pairs, one per cached translation
page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class CacheSample:
    """One observation of the cache's translation-page-level shape."""

    access_number: int
    #: number of translation pages with >= 1 cached entry
    cached_pages: int
    #: total cached entries across those pages
    cached_entries: int
    #: total dirty cached entries
    dirty_entries: int

    @property
    def mean_entries_per_page(self) -> float:
        """Cached entries per cached page."""
        if not self.cached_pages:
            return 0.0
        return self.cached_entries / self.cached_pages

    @property
    def mean_dirty_per_page(self) -> float:
        """Dirty entries per cached page."""
        if not self.cached_pages:
            return 0.0
        return self.dirty_entries / self.cached_pages


@dataclass
class CacheSampler:
    """Collects :class:`CacheSample` records and a dirty-count histogram.

    ``interval`` is in user page accesses; 0 disables sampling.  The dirty
    histogram aggregates, across all samples, how many cached translation
    pages held exactly ``k`` dirty entries — the raw data behind the
    paper's Fig 1(b) CDF.
    """

    interval: int = 10_000
    samples: List[CacheSample] = field(default_factory=list)
    dirty_histogram: Dict[int, int] = field(default_factory=dict)
    #: access count at which the next sample is due (0 = the first
    #: ``interval`` boundary)
    next_at: int = 0

    def __post_init__(self) -> None:
        if not self.next_at:
            self.next_at = self.interval

    @property
    def enabled(self) -> bool:
        """True when a positive sampling interval is set."""
        return self.interval > 0

    def due(self, access_number: int) -> bool:
        """True when :meth:`maybe_sample` would record at this count.

        Lets hot loops skip building the cache snapshot argument on the
        (vast majority of) requests that will not sample.
        """
        return self.enabled and access_number >= self.next_at

    def maybe_sample(self, access_number: int,
                     snapshot: Sequence[Tuple[int, int]]) -> bool:
        """Record a sample if ``access_number`` crossed the next boundary.

        ``snapshot`` is a sequence of ``(entries, dirty_entries)`` pairs,
        one per cached translation page.  Returns True if sampled.
        """
        if not self.enabled or access_number < self.next_at:
            return False
        self.next_at += self.interval
        if access_number >= self.next_at:
            # A multi-page request can jump ``access_number`` past
            # several boundaries at once; advance past it in one step,
            # otherwise the sampler fires on every subsequent request
            # until it catches up, oversampling the Fig 1/2 series.
            missed = (access_number - self.next_at) // self.interval + 1
            self.next_at += missed * self.interval
        self.record(access_number, snapshot)
        return True

    def record(self, access_number: int,
               snapshot: Sequence[Tuple[int, int]]) -> None:
        """Fold one request timing into the running statistics."""
        total_entries = sum(entries for entries, _ in snapshot)
        total_dirty = sum(dirty for _, dirty in snapshot)
        self.samples.append(CacheSample(
            access_number=access_number,
            cached_pages=len(snapshot),
            cached_entries=total_entries,
            dirty_entries=total_dirty,
        ))
        for _, dirty in snapshot:
            self.dirty_histogram[dirty] = self.dirty_histogram.get(
                dirty, 0) + 1

    # ------------------------------------------------------------------
    # Figure-ready series
    # ------------------------------------------------------------------
    def entries_per_page_series(self) -> List[Tuple[int, float]]:
        """Fig 1(a): (access number, mean entries per cached page)."""
        return [(s.access_number, s.mean_entries_per_page)
                for s in self.samples]

    def cached_pages_series(self) -> List[Tuple[int, int]]:
        """Fig 2(b): (access number, number of cached translation pages)."""
        return [(s.access_number, s.cached_pages) for s in self.samples]

    def dirty_cdf(self) -> List[Tuple[int, float]]:
        """Fig 1(b): CDF over pages of dirty entries per page.

        Returns (k, fraction of page observations with dirty <= k).
        """
        total = sum(self.dirty_histogram.values())
        if not total:
            return []
        cdf: List[Tuple[int, float]] = []
        running = 0
        for k in sorted(self.dirty_histogram):
            running += self.dirty_histogram[k]
            cdf.append((k, running / total))
        return cdf

    def mean_dirty_per_page(self) -> float:
        """Average dirty entries per cached page across all observations."""
        total_pages = sum(self.dirty_histogram.values())
        if not total_pages:
            return 0.0
        weighted = sum(k * n for k, n in self.dirty_histogram.items())
        return weighted / total_pages

    def fraction_pages_with_dirty_above(self, k: int) -> float:
        """Fraction of page observations with more than ``k`` dirty."""
        total = sum(self.dirty_histogram.values())
        if not total:
            return 0.0
        above = sum(n for dirty, n in self.dirty_histogram.items()
                    if dirty > k)
        return above / total
