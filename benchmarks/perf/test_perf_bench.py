"""The perf ledger's own tests (``pytest benchmarks/perf``; not tier-1).

Everything runs at a smoke scale (4 000 requests, 1 000 warmup), where
a pass is tens of milliseconds, so the suite finishes in seconds.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from perf_cells import CELLS, cell_config, cell_spec  # noqa: E402
from perf_passes import ServeProbe, run_pass  # noqa: E402
from perf_report import LEDGER_ONLY, check, load_benchmark  # noqa: E402
from repro.experiments.common import ExperimentScale  # noqa: E402
from repro.experiments.runner import build_spec_trace  # noqa: E402
from repro.ftl import make_ftl  # noqa: E402
from repro.ssd import make_device  # noqa: E402

SMOKE = ["--requests", "4000", "--warmup", "1000"]
SMOKE_SCALE = ExperimentScale(num_requests=4_000, warmup_requests=1_000)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def declared():
    return load_benchmark()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of the whole ledger: (process, results, out dir)."""
    out = tmp_path_factory.mktemp("ledger")
    process = run_bench("--rounds", "1", *SMOKE, "--no-golden",
                        "--out", str(out))
    assert process.returncode == 0, process.stderr
    results = json.loads((out / "results.json").read_text("utf-8"))
    return process, results, out


def test_names_are_well_formed_and_match_the_declaration(declared):
    assert list(declared["workloads"]) == list(CELLS)
    for name, why in declared["workloads"].items():
        assert why == CELLS[name].why
    names = (list(declared["workloads"]) + list(declared["end_to_end"])
             + list(declared["per_layer"]) + list(LEDGER_ONLY))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_smoke_emits_every_declared_metric(smoke, declared):
    process, results, out = smoke
    end_to_end = set(declared["end_to_end"]) | set(LEDGER_ONLY)
    assert set(results["workloads"]) == set(declared["workloads"])
    for name, record in results["workloads"].items():
        assert set(record["end_to_end"]) == end_to_end, name
        assert set(record["per_layer"]) == set(declared["per_layer"]), name
        assert record["end_to_end"]["failed_passes"]["value"] == 0
        spans = json.loads((out / f"trace-{name}.json").read_text("utf-8"))
        assert spans["spans"][0]["name"] == "pass"
        assert (len(spans["request_spans"]["rows"])
                == record["per_layer"]["workloads.requests"])
    for metric in end_to_end | set(declared["per_layer"]):
        assert f"  {metric} " in process.stdout, metric


def test_reference_core_runs_only_under_a_live_fault_plan(smoke):
    _, results, _ = smoke
    cores = {name: record["per_layer"]["ssd.core"]
             for name, record in results["workloads"].items()}
    assert cores.pop("faults-tpftl") == 1
    assert set(cores.values()) == {0}


def test_doctored_golden_fails_the_pass(tmp_path):
    golden = {"schema": 1, "seed": 0,
              "scale": {"num_requests": 4_000, "warmup_requests": 1_000},
              "digests": dict.fromkeys(CELLS, "0" * 64)}
    doctored = tmp_path / "golden.json"
    doctored.write_text(json.dumps(golden), encoding="utf-8")
    process = run_bench("--rounds", "1", *SMOKE, "--workload",
                        "read-tpftl", "--golden", str(doctored),
                        "--out", str(tmp_path))
    assert process.returncode != 0
    results = json.loads((tmp_path / "results.json").read_text("utf-8"))
    record = results["workloads"]["read-tpftl"]
    assert record["end_to_end"]["failed_passes"]["value"] == 1


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_driver_mode_prints_the_contract_line(tmp_path, declared, trace,
                                              group):
    process = run_bench("--workload", "oltp-dftl", "--seed", "5",
                        "--seconds", "0.2", "--trace", trace, *SMOKE,
                        "--out", str(tmp_path))
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(declared[group])
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == declared[group][metric]["unit"]
        assert isinstance(entry["value"], (int, float))


def test_same_seed_same_inputs_other_seed_other_inputs():
    digests = [run_pass("seq-tpftl", SMOKE_SCALE, seed)["digest"]
               for seed in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("name", ["oltp-tpftl", "tenants-fair",
                                  "faults-tpftl"])
def test_tracing_does_not_change_the_result(tmp_path, name):
    """Traced, then untraced, then reference: one digest — the probe
    altered nothing and was gone before the next pass."""
    traced = run_pass(name, SMOKE_SCALE, 0,
                      trace_file=tmp_path / "trace.json")
    untraced = run_pass(name, SMOKE_SCALE, 0)
    reference = run_pass(name, SMOKE_SCALE, 0, reference=True)
    assert traced["digest"] == untraced["digest"] == reference["digest"]
    assert "layers" in traced and "layers" not in untraced
    assert not list(tmp_path.glob("runcache-*"))


def test_probe_removal_restores_the_instance():
    spec = cell_spec("oltp-tpftl", SMOKE_SCALE, 0)
    trace = build_spec_trace(spec)
    ftl = make_ftl(spec.ftl, cell_config("oltp-tpftl", spec, trace, 0))
    device = make_device(ftl)
    probe = ServeProbe(ftl, device)
    assert "serve_request" in vars(ftl) and "run" in vars(device)
    ftl.serve_request(trace[0])
    assert len(probe.starts) == len(probe.ends) == 1
    probe.remove()
    assert "serve_request" not in vars(ftl) and "run" not in vars(device)
    ftl.serve_request(trace[1])
    assert len(probe.starts) == 1


def _results(wall_samples, response=100.0):
    ordered = sorted(wall_samples)
    entry = {"value": ordered[len(ordered) // 2], "q1": ordered[1],
             "q3": ordered[-2], "samples": list(wall_samples)}
    host = {metric: copy.deepcopy(entry) for metric
            in ("wall_s", "setup_s", "replay_kreq_per_s", "peak_rss_mb")}
    return {"workloads": {"oltp-tpftl": {
        "digest": "d", "end_to_end": {
            **host, "sim_mean_response_us": {"value": response},
            "failed_passes": {"value": 0}}}}}


def test_check_separates_ok_regression_and_unresolved(declared):
    steady = [1.00, 1.01, 1.02, 1.03, 1.04]
    base = _results(steady)
    rows, regressions = check(base, _results(steady), declared)
    assert regressions == 0 and "wall_s ok" in rows[0]

    slower = _results(steady)
    slower["workloads"]["oltp-tpftl"]["end_to_end"]["wall_s"] = (
        _results([value * 1.5 for value in steady])
        ["workloads"]["oltp-tpftl"]["end_to_end"]["wall_s"])
    rows, regressions = check(base, slower, declared)
    assert regressions == 1 and "wall_s REGRESSION" in rows[0]

    noisy = _results([1.0, 1.2, 1.5, 1.9, 2.4])
    rows, regressions = check(base, noisy, declared)
    assert regressions == 0 and "wall_s unresolved" in rows[0]

    rows, regressions = check(base, _results(steady, response=100.5),
                              declared)
    assert regressions == 1
    assert "sim_mean_response_us REGRESSION" in rows[0]


def test_check_cli_exits_nonzero_on_regression(tmp_path):
    steady = [1.00, 1.01, 1.02, 1.03, 1.04]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    first.write_text(json.dumps(_results(steady)), encoding="utf-8")
    second.write_text(json.dumps(_results(steady, response=99.0)),
                      encoding="utf-8")
    assert run_bench("--check", str(first), str(first)).returncode == 0
    process = run_bench("--check", str(first), str(second))
    assert process.returncode == 1
    assert "oltp-tpftl:" in process.stdout
