"""Workloads: trace parsers, synthetic generators, and characterisation.

The paper evaluates on four enterprise traces (Table 4): Financial1/2
(UMass SPC) and MSR-ts/MSR-src (MSR Cambridge).  Those files cannot be
redistributed, so this package provides (a) parsers for both original
formats, usable if you have the files, and (b) synthetic generators whose
presets match every statistic Table 4 reports plus the locality structure
§3.2 analyses.  Experiments accept either source.
"""

from .msr import load_msr_trace, parse_msr_lines
from .presets import (PRESET_NAMES, financial1, financial2, make_preset,
                      msr_src, msr_ts)
from .spc import load_spc_trace, parse_spc_lines
from .stats import WorkloadStats, characterize
from .synthetic import SyntheticSpec, generate
from .traffic import (ARRIVAL_KINDS, ArrivalModel, TenantSpec,
                      TrafficSpec, compose)
from .writers import (msr_lines, spc_lines, write_msr_trace,
                      write_spc_trace)

__all__ = [
    "SyntheticSpec", "generate",
    "financial1", "financial2", "msr_ts", "msr_src", "make_preset",
    "PRESET_NAMES",
    "load_spc_trace", "parse_spc_lines",
    "load_msr_trace", "parse_msr_lines",
    "write_spc_trace", "write_msr_trace", "spc_lines", "msr_lines",
    "WorkloadStats", "characterize",
    "ArrivalModel", "TenantSpec", "TrafficSpec", "compose",
    "ARRIVAL_KINDS",
]
