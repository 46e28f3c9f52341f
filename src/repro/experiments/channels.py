"""Channel scaling — response time vs flash parallelism [extension].

The paper's Fig 6e response-time model is a single flash channel; this
experiment sweeps the ``channels`` parameter of
:class:`~repro.ssd.DeviceModel` (1, 2, 4, 8 — the range Agrawal et al.
model) for DFTL and TPFTL on the Financial1 workload and reports how
the system response time, queueing delay and GC share evolve as
operations overlap.

The 1-channel row is *exactly* the paper's model: ``channels=1`` is the
single-server queue every other figure runs on, so the sweep anchors to
the Fig 6e numbers by construction.

``data`` carries a BENCH-style response-time trajectory (one record per
cell, in sweep order) so ``--json`` output can be archived as a bench
artifact; CI uploads it alongside ``BENCH_runner.json``.
"""

from __future__ import annotations

from typing import List

from .common import ExperimentResult, ExperimentScale

#: channel counts of the sweep (Agrawal et al. model up to 8)
CHANNEL_SWEEP = (1, 2, 4, 8)
#: FTLs compared at every channel count
SWEEP_FTLS = ("dftl", "tpftl")
#: the paper's headline workload
SWEEP_WORKLOAD = "financial1"


def run(scale: ExperimentScale) -> ExperimentResult:
    """Sweep channel counts for DFTL/TPFTL on Financial1.

    Cells route through the default runner (cache-first, parallel with
    ``--jobs``); each (FTL, channels) cell is content-addressed, so the
    1-channel rows are shared with the Fig 6 matrix when the scales
    match.
    """
    from .runner import RunSpec, get_runner
    specs = [RunSpec(workload=SWEEP_WORKLOAD, ftl=ftl_name, scale=scale,
                     channels=channels)
             for ftl_name in SWEEP_FTLS for channels in CHANNEL_SWEEP]
    results = get_runner().run_specs(specs)
    by_cell = dict(zip([(s.ftl, s.channels) for s in specs], results))

    rows: List[List[object]] = []
    trajectory: List[dict] = []
    for ftl_name in SWEEP_FTLS:
        base = by_cell[(ftl_name, 1)].response.mean
        for channels in CHANNEL_SWEEP:
            result = by_cell[(ftl_name, channels)]
            response = result.response
            speedup = (base / response.mean) if response.mean else 1.0
            rows.append([
                ftl_name, channels, response.mean,
                response.mean_queue_delay, response.mean_service_time,
                result.gc_time_fraction, result.makespan, speedup,
            ])
            trajectory.append({
                "ftl": ftl_name,
                "channels": channels,
                "mean_response_us": response.mean,
                "max_response_us": response.max,
                "mean_queue_delay_us": response.mean_queue_delay,
                "mean_service_us": response.mean_service_time,
                "gc_time_fraction": result.gc_time_fraction,
                "makespan_us": result.makespan,
                "speedup_vs_1ch": speedup,
            })
    return ExperimentResult(
        experiment_id="channels",
        title="Response time vs flash channels [extension]",
        headers=["FTL", "Ch", "Resp us", "Queue us", "Svc us",
                 "GC frac", "Makespan us", "Speedup"],
        rows=rows,
        notes=("channels=1 equals the paper's single-server model "
               "bit-for-bit; speedup is mean response vs that baseline"),
        data={
            "bench": "channels",
            "workload": SWEEP_WORKLOAD,
            "scale": scale.name,
            "channel_sweep": list(CHANNEL_SWEEP),
            "trajectory": trajectory,
        },
    )
