"""FTL factory: build any implemented FTL by name.

Experiments, benches and examples refer to FTLs by the short names the
paper uses in its figures; this keeps the mapping in one place.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..config import SimulationConfig
from ..errors import ExperimentError
from .base import BaseFTL
from .dftl import DFTL
from .optimal import OptimalFTL
from .sftl import SFTL
from .tpftl import TPFTL

_REGISTRY: Dict[str, Callable[..., BaseFTL]] = {
    OptimalFTL.name: OptimalFTL,
    DFTL.name: DFTL,
    TPFTL.name: TPFTL,
    SFTL.name: SFTL,
}

#: the names accepted by :func:`make_ftl`
FTL_NAMES = tuple(sorted(_REGISTRY))


def make_ftl(name: str, config: SimulationConfig,
             prefill: bool = True) -> BaseFTL:
    """Instantiate the FTL called ``name`` over a fresh flash array.

    Valid names: ``optimal``, ``dftl``, ``tpftl``, ``sftl``.  Everything
    else, TPFTL's technique switches included, comes from ``config``.
    """
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown FTL {name!r}; choose from {', '.join(FTL_NAMES)}"
        ) from None
    return cls(config, prefill=prefill)
