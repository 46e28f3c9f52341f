"""Shared infrastructure for the experiment runners.

The paper's Fig 6 and Fig 7(a) all derive from one matrix of runs
(4 workloads x 4 FTLs); :func:`run_matrix` routes that matrix through
the default :class:`~repro.experiments.runner.ParallelRunner`, so cells
are fanned out across processes (``--jobs``/``REPRO_JOBS``) and served
from the persistent run cache on re-runs — each sub-figure renders
instantly once any of them has run, even across interpreter restarts.
``ExperimentScale`` bundles the knobs that trade fidelity for runtime
(request count, warmup, workload sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..config import CacheConfig, SimulationConfig, SSDConfig, TPFTLConfig
from ..errors import ConfigError
from ..metrics.report import format_table
from ..ssd import RunResult
from ..types import Trace
from ..workloads import make_preset

#: the paper's evaluation workloads, in figure order
WORKLOADS = ("financial1", "financial2", "msr-ts", "msr-src")
#: the FTLs of the headline figures, in legend order
HEADLINE_FTLS = ("dftl", "tpftl", "sftl", "optimal")
#: the ablation monograms of Fig 7(b,c)/8(a,b), in X-axis order
ABLATION_CONFIGS = ("dftl", "-", "b", "c", "bc", "r", "s", "rs", "rsbc")
#: cache sizes of Fig 8(c)/9/10, as fractions of the full mapping table
CACHE_FRACTIONS = (1 / 128, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4,
                   1 / 2, 1.0)


@dataclass(frozen=True)
class ExperimentScale:
    """Runtime/fidelity knobs shared by every experiment.

    ``small`` is the default scale: the one CI runs and the one
    EXPERIMENTS.md and ``BENCH_runner.json`` record; ``full`` runs the
    default preset sizes with longer traces (minutes per figure).
    """

    name: str = "small"
    num_requests: int = 60_000
    warmup_requests: int = 15_000
    financial_pages: int = 65_536   # 256MB (paper: 512MB)
    msr_pages: int = 131_072        # 512MB (paper: 16GB)
    #: subset of CACHE_FRACTIONS used by the sweep figures
    cache_fractions: Sequence[float] = (1 / 128, 1 / 32, 1 / 8, 1 / 2,
                                        1.0)
    sample_interval: int = 2_000
    #: flash channels of the device model (1 = the paper's queue);
    #: the CLI's ``--channels`` overrides this for every cell
    channels: int = 1

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        # Normalise to a tuple so a scale built with a list is still
        # hashable (run digests, dict keys) and compares equal to the
        # tuple-built equivalent.
        object.__setattr__(self, "cache_fractions",  # tp: allow=TP004 - __post_init__ normalisation
                           tuple(self.cache_fractions))

    def check_measured(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless the warmup
        leaves at least one request to measure.  Not a ``__post_init__``
        check: a scale is often built first and resized after."""
        if not 0 <= self.warmup_requests < self.num_requests:
            raise ConfigError(
                f"warmup must lie in [0, {self.num_requests}) so that at "
                f"least one request is measured (got "
                f"{self.warmup_requests})")

    @classmethod
    def small(cls) -> "ExperimentScale":
        """The default CI-sized scale."""
        return cls()

    @classmethod
    def full(cls) -> "ExperimentScale":
        """The paper's Financial geometry and a 1GB MSR stand-in, with
        traces long enough to overwrite the device several times."""
        return cls(name="full", num_requests=300_000,
                   warmup_requests=60_000,
                   financial_pages=131_072, msr_pages=262_144,
                   cache_fractions=CACHE_FRACTIONS,
                   sample_interval=10_000)


class ClaimVerdict(NamedTuple):
    """One row of :mod:`~repro.experiments.claims` judged on a result."""

    ref: str
    text: str
    #: ``"✓"`` holds, ``"✗"`` refuted (or the predicate raised),
    #: ``"n/a"`` the run is shorter than the row's request floor
    mark: str
    #: why a row is not ``✓``: the floor, or the exception text
    detail: str

    def line(self) -> str:
        """The verdict as ``render()`` prints it."""
        return (f"{self.mark} {self.ref}: {self.text}"
                + (f" ({self.detail})" if self.detail else ""))


@dataclass
class ExperimentResult:
    """A rendered experiment: a title, a table, and raw data."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""
    #: machine-readable payload for tests and downstream tooling
    data: Dict[str, object] = field(default_factory=dict)
    #: the paper's claims about this artifact, judged by
    #: :func:`~repro.experiments.registry.run_experiment`
    verdicts: List[ClaimVerdict] = field(default_factory=list)

    def render(self, precision: int = 4) -> str:
        """Render the result as an aligned text table, the free-text
        paper note and one verdict line per claim."""
        text = format_table(self.headers, self.rows, precision=precision,
                            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        for verdict in self.verdicts:
            text += f"\n{verdict.line()}"
        return text

    def to_json(self) -> str:
        """Serialise the result (headers, rows, data, claims) as JSON.

        Non-string dictionary keys in ``data`` (tuples, floats) are
        stringified so the payload is loadable anywhere; intended for
        downstream plotting tools.
        """
        import json

        def keyed(value):
            if isinstance(value, dict):
                return {str(k): keyed(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [keyed(v) for v in value]
            return value

        return json.dumps({
            "experiment": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": keyed(self.rows),
            "notes": self.notes,
            "data": keyed(self.data),
            "claims": [verdict._asdict() for verdict in self.verdicts],
        }, indent=2)


# ----------------------------------------------------------------------
# Workload and run construction
# ----------------------------------------------------------------------
def build_workload(name: str, scale: ExperimentScale) -> Trace:
    """Build one of the paper's four workloads at the given scale."""
    pages = (scale.msr_pages if name.startswith("msr")
             else scale.financial_pages)
    return make_preset(name, logical_pages=pages,
                       num_requests=scale.num_requests)


def simulation_config(trace: Trace,
                      cache_fraction: Optional[float] = None,
                      tpftl: Optional[TPFTLConfig] = None,
                      channels: int = 1) -> SimulationConfig:
    """The paper's §5.1 configuration for a trace.

    The SSD is as large as the trace's logical address space; the cache
    follows the block-table+GTD rule unless ``cache_fraction`` (of the
    full mapping table) is given, as in the Fig 8(c)/9/10 sweeps.
    ``channels`` is the device model's flash channel count (1 = the
    paper's queue).
    """
    ssd = SSDConfig(logical_pages=trace.logical_pages)
    cache = None
    if cache_fraction is not None:
        cache = CacheConfig(
            budget_bytes=ssd.cache_bytes_for_fraction(cache_fraction))
    return SimulationConfig(ssd=ssd, cache=cache,
                            tpftl=tpftl or TPFTLConfig(),
                            channels=channels)


def run_one(workload: str, ftl_name: str, scale: ExperimentScale,
            cache_fraction: Optional[float] = None,
            tpftl: Optional[TPFTLConfig] = None,
            sample_interval: int = 0,
            seed: Optional[int] = None,
            channels: Optional[int] = None) -> RunResult:
    """Run one (workload, FTL) cell with the paper's configuration.

    The cell is fully described by a
    :class:`~repro.experiments.runner.RunSpec` and is served through the
    default runner — i.e. from the persistent run cache when warm.
    ``channels`` defaults to the scale's channel count.
    """
    if channels is None:
        channels = scale.channels
    from .runner import RunSpec, get_runner
    spec = RunSpec(workload=workload, ftl=ftl_name, scale=scale,
                   cache_fraction=cache_fraction, tpftl=tpftl,
                   seed=seed, sample_interval=sample_interval,
                   channels=channels)
    return get_runner().run_specs([spec])[0]


def matrix_specs(scale: ExperimentScale,
                 workloads: Sequence[str] = WORKLOADS,
                 ftls: Sequence[str] = HEADLINE_FTLS) -> List:
    """The cell specs of the headline (workload x FTL) matrix."""
    from .runner import RunSpec
    return [RunSpec(workload=workload, ftl=ftl_name, scale=scale,
                    channels=scale.channels)
            for workload in workloads for ftl_name in ftls]


def run_matrix(scale: ExperimentScale,
               workloads: Sequence[str] = WORKLOADS,
               ftls: Sequence[str] = HEADLINE_FTLS
               ) -> Dict[Tuple[str, str], RunResult]:
    """All (workload, FTL) runs of the headline evaluation.

    Cells are served through the default
    :class:`~repro.experiments.runner.ParallelRunner`: cached results
    come from the persistent run cache, the rest fan out across
    processes when the runner is configured with ``jobs > 1``.
    """
    specs = matrix_specs(scale, workloads, ftls)
    from .runner import get_runner
    results = get_runner().run_specs(specs)
    keys = [(workload, ftl_name) for workload in workloads
            for ftl_name in ftls]
    return dict(zip(keys, results))
