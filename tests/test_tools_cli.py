"""The tpftl-sim CLI and JSON exports."""

import json

import pytest

from repro.tools import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.ftl == "tpftl"
        assert args.workload == "financial1"
        assert args.channels == 1

    def test_workload_and_trace_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--workload", "msr-ts", "--trace", "x.spc"])

    def test_unknown_ftl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--ftl", "nope"])

    def test_no_tenant_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--tenants", "2"])


class TestMain:
    COMMON = ["--requests", "600", "--warmup", "100",
              "--pages", "4096"]

    def test_table_output(self, capsys):
        assert main(["--ftl", "dftl"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out
        assert "write_amplification" in out

    def test_json_to_stdout(self, capsys):
        assert main(["--json", "-"] + self.COMMON) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ftl"] == "tpftl"
        assert 0.0 <= payload["hit_ratio"] <= 1.0
        assert payload["channels"] == 1

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["--json", str(target)] + self.COMMON) == 0
        payload = json.loads(target.read_text())
        assert payload["requests"] == 500  # 600 - 100 warmup

    def test_cache_fraction(self, capsys):
        assert main(["--cache-fraction", "0.5", "--json", "-"]
                    + self.COMMON) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_bytes"] == 4096 * 8 // 2

    def test_cache_bytes(self, capsys):
        assert main(["--cache-bytes", "2048", "--json", "-"]
                    + self.COMMON) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_bytes"] == 2048

    def test_channels(self, capsys):
        assert main(["--channels", "4", "--json", "-"]
                    + self.COMMON) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channels"] == 4

    def test_channels_zero_is_a_one_line_error(self, capsys):
        assert main(["--channels", "0"] + self.COMMON) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: channels must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--cache-bytes", "10"],
        ["--cache-bytes", "520"],
        ["--pages", "3", "--requests", "50"],
        ["--requests", "-5"],
        ["--requests", "50", "--warmup", "-5"],
        ["--requests", "200", "--warmup", "500"],
        ["--requests", "0"],
    ], ids=["gtd-overflow", "tpftl-budget", "tiny-device",
            "negative-requests", "warmup-negative", "warmup-covers-trace",
            "no-requests"])
    def test_bad_input_is_a_one_line_error(self, capsys, argv):
        """Workload, config and FTL-construction errors alike exit 2
        with one line, before anything runs; so does a warmup that
        leaves no request to measure."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_tpftl_monogram(self, capsys):
        assert main(["--tpftl-config", "bc", "--json", "-"]
                    + self.COMMON) == 0

    def test_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.spc"
        trace.write_text("0,0,4096,w,0.0\n0,8,4096,r,0.1\n")
        assert main(["--trace", str(trace), "--pages", "4096",
                     "--warmup", "0", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 2


class TestExperimentJSON:
    def test_result_round_trips_through_json(self):
        from repro.experiments.common import ExperimentResult
        result = ExperimentResult(
            experiment_id="x", title="T", headers=["A"],
            rows=[["v"]], notes="n",
            data={("tuple", 1): {0.5: 1.0}, "plain": [1, 2]})
        payload = json.loads(result.to_json())
        assert payload["experiment"] == "x"
        assert payload["rows"] == [["v"]]
        assert payload["data"]["plain"] == [1, 2]
        # tuple/float keys stringified
        assert "('tuple', 1)" in payload["data"]
