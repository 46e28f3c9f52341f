"""The experiments CLI: argument parsing and scale resolution."""

import pytest

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
            ["fig6a", "--timeout", "30.5", "--retries", "5",
             "--resume", "--fail-fast"])
        assert args.timeout == 30.5
        assert args.retries == 5
        assert args.resume is True
        assert args.fail_fast is True

    def test_supervision_flag_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.timeout is None
        assert args.retries is None
        assert args.resume is False
        assert args.fail_fast is False

    def test_retries_rejects_non_positive_budget(self, capsys):
        # a friendly argparse error (exit 2), not a raw ExperimentError
        # traceback from RetryPolicy deep inside configure_runner
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
        # no cell ran, nothing was quarantined, no manifest written
        assert not cache.exists()

    def test_runs_one_experiment(self, capsys):
        code = main(["fig2a", "--requests", "500", "--warmup", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[fig2a]" in out

    def test_parallel_cached_run_emits_bench(self, tmp_path, capsys):
        import json
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
        assert runner.retry.max_attempts == 5

    def test_resume_reports_prior_session(self, tmp_path, capsys):
        argv = ["fig2a", "--requests", "500", "--warmup", "100",
                "--cache-dir", str(tmp_path / "rc")]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        assert "resuming:" in capsys.readouterr().err

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
