"""TPFTL reproduction: an efficient page-level FTL for flash memory.

A from-scratch, trace-driven reproduction of *"An Efficient Page-level
FTL to Optimize Address Translation in Flash Memory"* (Zhou et al.,
EuroSys 2015): the TPFTL mapping-cache design, the three comparators
the paper evaluates it against (optimal, DFTL, S-FTL) plus ZFTL, the
NAND flash substrate they run on, the paper's analytical models,
workload tooling, and one experiment runner per table/figure of the
evaluation.

Quickstart::

    from repro import SimulationConfig, SSDConfig, make_ftl, simulate
    from repro.workloads import financial1

    config = SimulationConfig(ssd=SSDConfig(logical_pages=16_384))
    trace = financial1(num_requests=20_000)
    run = simulate(make_ftl("tpftl", config), trace)
    print(run.summary())
"""

from .config import (CacheConfig, SimulationConfig, SSDConfig,
                     TPFTLConfig)
from .errors import (CacheError, ConfigError, DeviceWornOutError,
                     ExperimentError, FlashError, FTLError, PowerLossError,
                     ReadError, ReproError, WorkloadError)
from .faults import FaultInjector, FaultPlan
from .ftl import (DFTL, FTL_NAMES, SFTL, TPFTL, ZFTL, BaseFTL,
                  OptimalFTL, make_ftl)
from .ssd import DeviceModel, RunResult, simulate
from .types import Op, Request, Trace

__version__ = "1.0.0"

__all__ = [
    "SSDConfig", "CacheConfig", "TPFTLConfig", "SimulationConfig",
    "BaseFTL", "OptimalFTL", "DFTL", "TPFTL", "SFTL", "ZFTL",
    "make_ftl", "FTL_NAMES",
    "DeviceModel", "RunResult", "simulate",
    "Op", "Request", "Trace",
    "ReproError", "ConfigError", "FlashError", "CacheError", "FTLError",
    "WorkloadError", "ExperimentError",
    "ReadError", "DeviceWornOutError", "PowerLossError",
    "FaultPlan", "FaultInjector",
    "__version__",
]
