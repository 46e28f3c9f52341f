"""The experiments CLI: argument parsing and scale resolution."""

import json

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.cli import build_parser, main, resolve_scale
from repro.experiments.runner import reset_runner


@pytest.fixture(autouse=True)
def _forget_cli_runner():
    """main() installs a global default runner; don't leak it."""
    yield
    reset_runner()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.experiments == ["fig6a"]
        assert args.scale == "small"
        assert args.requests is None

    def test_multiple_experiments(self):
        args = build_parser().parse_args(["fig6a", "table2"])
        assert args.experiments == ["fig6a", "table2"]

    def test_scale_choices(self):
        args = build_parser().parse_args(["all", "--scale", "full"])
        assert args.scale == "full"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--scale", "huge"])

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig6a", "--requests", "100", "--warmup", "10"])
        assert args.requests == 100
        assert args.warmup == 10

    def test_runner_flags(self):
        args = build_parser().parse_args(
            ["fig6a", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/rc", "--bench", "BENCH_runner.json"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/rc"
        assert args.bench == "BENCH_runner.json"

    def test_runner_flag_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.jobs is None
        assert args.no_cache is False
        assert args.cache_dir is None
        assert args.bench is None

    def test_supervision_flags(self):
        args = build_parser().parse_args(
            ["fig6a", "--timeout", "30.5", "--retries", "5"])
        assert args.timeout == 30.5
        assert args.retries == 5

    def test_supervision_flag_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.timeout is None
        assert args.retries == 3

    def test_retries_rejects_non_positive_budget(self, capsys):
        # a friendly argparse error (exit 2), not a raw ExperimentError
        # traceback from deep inside configure_runner
        for bad in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["fig6a", "--retries", bad])
            assert excinfo.value.code == 2
        assert "--retries" in capsys.readouterr().err


class TestScaleResolution:
    def test_small_default(self):
        args = build_parser().parse_args(["fig6a"])
        scale = resolve_scale(args)
        assert scale.name == "small"

    def test_full(self):
        args = build_parser().parse_args(["fig6a", "--scale", "full"])
        assert resolve_scale(args).name == "full"

    def test_request_override(self):
        args = build_parser().parse_args(["fig6a", "--requests", "123"])
        scale = resolve_scale(args)
        assert scale.num_requests == 123

    def test_warmup_override(self):
        args = build_parser().parse_args(["fig6a", "--warmup", "7"])
        assert resolve_scale(args).warmup_requests == 7

    def test_channels_override(self):
        args = build_parser().parse_args(["fig6e", "--channels", "4"])
        assert resolve_scale(args).channels == 4

    def test_channels_default_is_paper_model(self):
        args = build_parser().parse_args(["fig6e"])
        assert resolve_scale(args).channels == 1


class TestMain:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["not-a-figure"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_channels_zero_fails_at_the_edge(self, tmp_path, capsys):
        cache = tmp_path / "rc"
        assert main(["fig6a", "--channels", "0",
                     "--cache-dir", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: channels must be >= 1\n"
        assert captured.out == ""
        # no cell ran, nothing was cached
        assert not cache.exists()

    @pytest.mark.parametrize("flags", [
        ["--requests", "100", "--warmup", "500"],
        ["--requests", "100", "--warmup", "100"],
        ["--warmup", "-1"],
    ])
    def test_warmup_that_measures_nothing_fails_at_the_edge(
            self, tmp_path, capsys, flags):
        cache = tmp_path / "rc"
        assert main(["table2", "--cache-dir", str(cache)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: warmup must lie in [0, ")
        assert captured.out == ""
        assert not cache.exists()

    @pytest.mark.parametrize("flags, jobs_env", [
        (["--jobs", "0"], None),
        (["--timeout", "0"], None),
        (["--timeout", "-5"], None),
        (["--timeout", "nan"], None),
        (["--timeout", "inf"], None),
        ([], "0"),
    ], ids=["jobs=0", "timeout=0", "timeout=-5", "timeout=nan",
            "timeout=inf", "REPRO_JOBS=0"])
    def test_bad_supervision_argument_exits_2(self, flags, jobs_env,
                                              tmp_path, capsys,
                                              monkeypatch):
        # a NaN deadline never expires, so it must not reach the
        # watchdog; every bad value stops at the edge with one line
        if jobs_env is not None:
            monkeypatch.setenv("REPRO_JOBS", jobs_env)
        cache = tmp_path / "rc"
        try:
            code = main(["table2", "--cache-dir", str(cache)] + flags)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not cache.exists()

    def test_runs_one_experiment(self, capsys):
        code = main(["fig2a", "--requests", "500", "--warmup", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[fig2a]" in out

    def test_parallel_cached_run_emits_bench(self, tmp_path, capsys):
        argv = ["fig2b", "--requests", "400", "--warmup", "100",
                "--jobs", "2", "--cache-dir", str(tmp_path / "rc"),
                "--bench", str(tmp_path / "BENCH_runner.json")]
        assert main(argv) == 0
        cold = json.loads((tmp_path / "BENCH_runner.json").read_text())
        assert cold["totals"]["cache_misses"] >= 1
        assert main(argv) == 0  # warm: same matrix, zero simulations
        warm = json.loads((tmp_path / "BENCH_runner.json").read_text())
        assert warm["totals"]["cache_misses"] == 0
        assert warm["totals"]["cache_hits"] == cold["totals"]["cells"]
        assert "bench:" in capsys.readouterr().err

    def test_supervision_flags_reach_the_runner(self, tmp_path, capsys):
        from repro.experiments.runner import get_runner
        argv = ["fig2a", "--requests", "500", "--warmup", "100",
                "--cache-dir", str(tmp_path / "rc"),
                "--timeout", "120", "--retries", "5"]
        assert main(argv) == 0
        runner = get_runner()
        assert runner.timeout_s == 120
        assert runner.max_attempts == 5

    def test_quarantined_cell_exits_1_and_rerun_simulates_only_it(
            self, tmp_path, capsys, monkeypatch):
        real_execute = runner_module._timed_execute

        def failing_execute(spec):
            if spec.label() == "financial1:dftl":
                raise RuntimeError("injected failure")
            return real_execute(spec)

        monkeypatch.setattr(runner_module, "_timed_execute",
                            failing_execute)
        bench = tmp_path / "bench.json"
        argv = ["table2", "--requests", "400", "--warmup", "100",
                "--jobs", "1", "--cache-dir", str(tmp_path / "rc"),
                "--bench", str(bench)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert ("quarantined financial1:dftl: RuntimeError: injected "
                "failure") in err
        assert "Traceback (most recent call last)" in err
        totals = json.loads(bench.read_text())["totals"]
        assert totals["cells"] == 8 and totals["failed"] == 1
        # every healthy cell was committed before the exit
        assert len(list((tmp_path / "rc").glob("*.json"))) == 7
        # the cache is the resume: a plain rerun simulates one cell
        monkeypatch.setattr(runner_module, "_timed_execute", real_execute)
        assert main(argv) == 0
        totals = json.loads(bench.read_text())["totals"]
        assert totals["cache_hits"] == 7 and totals["cache_misses"] == 1

    def test_wipe_cache(self, tmp_path, capsys):
        argv = ["fig2b", "--requests", "400", "--warmup", "100",
                "--cache-dir", str(tmp_path / "rc")]
        assert main(argv) == 0
        assert len(list((tmp_path / "rc").glob("*.json"))) >= 1
        assert main(argv + ["--wipe-cache"]) == 0
        err = capsys.readouterr().err
        assert "wiped" in err


class TestDensityMap:
    def test_density_map_geometry(self):
        from repro.experiments.fig2 import MAP_COLS, MAP_ROWS, \
            _density_map
        from repro.workloads import financial1
        trace = financial1(logical_pages=4096, num_requests=500)
        lines = _density_map(trace)
        assert len(lines) == MAP_ROWS
        assert all(len(line) == MAP_COLS for line in lines)

    def test_density_map_empty_trace(self):
        from repro.experiments.fig2 import _density_map
        from repro.types import Trace
        assert _density_map(Trace(logical_pages=16)) == []
