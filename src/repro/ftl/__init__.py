"""Flash translation layers: the four the paper evaluates in §5.

Public surface:

* :class:`BaseFTL` — shared machinery (translation pages, GTD, GC).
* :class:`OptimalFTL` — whole mapping table in RAM (upper bound).
* :class:`DFTL` — demand-based baseline (Gupta et al., ASPLOS'09).
* :class:`TPFTL` — the paper's contribution, with switchable techniques.
* :class:`SFTL` — page-granularity compressed cache (Jiang et al.).
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

__all__ = [
    "BaseFTL", "OptimalFTL", "DFTL", "TPFTL", "SFTL",
    "GlobalTranslationDirectory", "TranslationGeometry", "make_ftl",
    "FTL_NAMES",
]
