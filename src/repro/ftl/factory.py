"""FTL factory: build any implemented FTL by name.

Experiments, benches and examples refer to FTLs by the short names the
paper uses in its figures; this keeps the mapping in one place.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..config import SimulationConfig
from ..errors import ExperimentError
from ..gc import VictimPolicy, WearLeveler
from .base import BaseFTL
from .dftl import DFTL
from .optimal import OptimalFTL
from .sftl import SFTL
from .tpftl import TPFTL
from .zftl import ZFTL

_REGISTRY: Dict[str, Callable[..., BaseFTL]] = {
    OptimalFTL.name: OptimalFTL,
    DFTL.name: DFTL,
    TPFTL.name: TPFTL,
    SFTL.name: SFTL,
    ZFTL.name: ZFTL,
}

#: the names accepted by :func:`make_ftl`
FTL_NAMES = tuple(sorted(_REGISTRY))


def make_ftl(name: str, config: SimulationConfig,
             victim_policy: Optional[VictimPolicy] = None,
             wear_leveler: Optional[WearLeveler] = None,
             prefill: bool = True) -> BaseFTL:
    """Instantiate the FTL called ``name`` over a fresh flash array.

    Valid names: ``optimal``, ``dftl``, ``tpftl``, ``sftl``, ``zftl``.  TPFTL's
    technique switches come from ``config.tpftl``.
    """
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown FTL {name!r}; choose from {', '.join(FTL_NAMES)}"
        ) from None
    return cls(config, victim_policy=victim_policy,
               wear_leveler=wear_leveler, prefill=prefill)
