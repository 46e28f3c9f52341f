"""Flash translation layers: the four the paper evaluates in §5, and ZFTL.

Public surface:

* :class:`BaseFTL` — shared machinery (translation pages, GTD, GC).
* :class:`OptimalFTL` — whole mapping table in RAM (upper bound).
* :class:`DFTL` — demand-based baseline (Gupta et al., ASPLOS'09).
* :class:`TPFTL` — the paper's contribution, with switchable techniques.
* :class:`SFTL` — page-granularity compressed cache (Jiang et al.).
* :class:`ZFTL` — zone-based two-tier cache (Mingbang et al.), a
  comparator the paper discusses in §2.2 but leaves out of its figures.
* :func:`make_ftl` — factory by name, used by experiments and benches.
"""

from .base import BaseFTL
from .dftl import DFTL
from .factory import FTL_NAMES, make_ftl
from .gtd import GlobalTranslationDirectory
from .mappings import TranslationGeometry
from .optimal import OptimalFTL
from .sftl import SFTL
from .tpftl import TPFTL
from .zftl import ZFTL

__all__ = [
    "BaseFTL", "OptimalFTL", "DFTL", "TPFTL", "SFTL", "ZFTL",
    "GlobalTranslationDirectory", "TranslationGeometry", "make_ftl",
    "FTL_NAMES",
]
