"""The Global Translation Directory (GTD).

Maps each virtual translation-page number to the physical flash page
currently holding it.  The GTD is small (4B per translation page) and is
always resident in the mapping cache, per §4.1; its byte size is charged
against the cache budget by every demand-based FTL here.
"""

from __future__ import annotations

from typing import Iterable, List

from ..config import GTD_SLOT_BYTES
from ..errors import TranslationError
from ..types import UNMAPPED


class GlobalTranslationDirectory:
    """VTPN -> PTPN directory, fully RAM-resident."""

    __slots__ = ("_table",)

    def __init__(self, translation_pages: int) -> None:
        if translation_pages <= 0:
            raise TranslationError(
                "GTD needs at least one translation page")
        #: VTPN -> PTPN; ``BaseFTL`` reads and writes it in place where
        #: a method call per slot would cost a frame (a translation-page
        #: write, GC's forced rewrites)
        self._table: List[int] = [UNMAPPED] * translation_pages

    def __len__(self) -> int:
        return len(self._table)

    @property
    def size_bytes(self) -> int:
        """RAM footprint of the directory in bytes."""
        return len(self._table) * GTD_SLOT_BYTES

    def lookup(self, vtpn: int) -> int:
        """PTPN of a translation page; raises if it was never written."""
        ptpn = self._table[vtpn]
        if ptpn == UNMAPPED:
            raise TranslationError(
                f"translation page {vtpn} has no physical location")
        return ptpn

    def get(self, vtpn: int) -> int:
        """PTPN of a translation page, or ``UNMAPPED`` if never written."""
        return self._table[vtpn]

    def is_mapped(self, vtpn: int) -> bool:
        """True once the translation page has a location."""
        return self._table[vtpn] != UNMAPPED

    def update(self, vtpn: int, ptpn: int) -> int:
        """Point ``vtpn`` at a new PTPN; returns the previous one."""
        old = self._table[vtpn]
        self._table[vtpn] = ptpn
        return old

    def update_all(self, vtpns: Iterable[int], ptpns: Iterable[int]) -> None:
        """Point each of ``vtpns`` at its new PTPN."""
        for vtpn, ptpn in zip(vtpns, ptpns):
            self._table[vtpn] = ptpn
