"""Tests for the command-line interface."""

import pathlib

import pytest

from repro import cli
from repro.cli import CAMPAIGNS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.scheme == "dssmr"
        assert args.partitions == 2

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig5", "--seed", "3"])
        assert args.figure_id == "fig5"
        assert args.seed == 3

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenarios == 10
        assert args.seed == 0

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scheme == "dssmr"
        assert args.seed == 7
        assert args.out is None


class TestCommands:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for figure_id in ("fig1", "fig10"):
            assert figure_id in out

    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_partition_command(self, capsys):
        assert main(["partition", "--vertices", "300", "--parts", "2"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out
        assert "300 vertices" in out

    def test_experiment_command_small(self, capsys):
        code = main(["experiment", "--scheme", "dssmr", "--partitions", "2",
                     "--users", "60", "--duration-ms", "400",
                     "--clients-per-partition", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tput/s" in out

    def test_figure_gets_only_the_options_given_and_taken(self,
                                                          monkeypatch):
        calls = []

        def with_duration(seed=11, duration_ms=100.0):
            calls.append({"seed": seed, "duration_ms": duration_ms})
            return "figure"

        def without_duration(seed=12):
            calls.append({"seed": seed})
            return "figure"

        monkeypatch.setattr(cli, "_figure_registry", lambda: {
            "fig1": with_duration, "fig2": without_duration})
        assert main(["figure", "fig1"]) == 0
        assert main(["figure", "fig1", "--seed", "3",
                     "--duration-ms", "50"]) == 0
        assert main(["figure", "fig2", "--duration-ms", "50"]) == 0
        assert calls == [{"seed": 11, "duration_ms": 100.0},
                         {"seed": 3, "duration_ms": 50.0},
                         {"seed": 12}]

    def test_figure_command_partitioner_only(self, capsys):
        assert main(["figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "multilevel" in out

    def test_chaos_command(self, capsys):
        assert main(["chaos", "--scenarios", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out
        assert "no invariant violations" in out
        # The report itself is deterministic: run-to-run identical.
        assert main(["chaos", "--scenarios", "2", "--seed", "0"]) == 0
        assert capsys.readouterr().out == out

    def test_trace_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "spans.jsonl")
        code = main(["trace", "--scheme", "dssmr", "--seed", "7",
                     "--clients", "2", "--ops", "4", "--out", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency breakdown" in out
        assert "end-to-end" in out
        assert "stage sums match end-to-end latency exactly" in out
        with open(out_path, encoding="utf-8") as fh:
            first_jsonl = fh.read()
        assert first_jsonl.count("\n") > 0
        # Byte-identical on re-run: stdout and the JSONL span stream.
        assert main(["trace", "--scheme", "dssmr", "--seed", "7",
                     "--clients", "2", "--ops", "4", "--out",
                     out_path]) == 0
        assert capsys.readouterr().out == out
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first_jsonl


class TestFuzzCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.schedules == 10
        assert args.seed == 0
        assert args.smoke is False
        assert args.replay is None
        assert args.inject_bug is None
        assert args.no_shrink is False

    def test_smoke_json_is_byte_deterministic(self, capsys):
        assert main(["fuzz", "--smoke"]) == 0
        first = capsys.readouterr()
        # stdout carries exactly the canonical campaign JSON; the human
        # report goes to stderr.
        assert first.out.startswith("{") and '"schedules"' in first.out
        assert "fuzz campaign" in first.err
        assert main(["fuzz", "--smoke"]) == 0
        assert capsys.readouterr().out == first.out

    def test_clean_campaign_report_mode(self, capsys):
        assert main(["fuzz", "--schedules", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "no invariant violations" in out

    def test_injected_bug_find_archive_replay(self, capsys, tmp_path):
        """The full acceptance loop through the CLI: plant the bug,
        find + shrink + archive, then --replay reproduces it."""
        artifacts = tmp_path / "artifacts"
        assert main(["fuzz", "--schedules", "1", "--seed", "5",
                     "--inject-bug", "no_dedup",
                     "--artifacts", str(artifacts)]) == 0
        out = capsys.readouterr().out
        assert "violation" in out and "shrink" in out
        written = list(artifacts.glob("repro-*.json"))
        assert len(written) == 1
        assert main(["fuzz", "--replay", str(written[0])]) == 0
        assert "IDENTICAL" in capsys.readouterr().out


class TestReconfigCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["reconfig"])
        assert args.scheme == "dssmr"
        assert args.seed == 0
        assert args.json is False
        assert args.out is None

    def test_reconfig_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "metrics.json")
        argv = ["reconfig", "--seed", "0", "--clients", "2",
                "--ops", "10", "--json", "--out", out_path]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "elastic scenario" in captured.err
        assert "verdict" in captured.err
        with open(out_path, encoding="utf-8") as fh:
            first = fh.read()
        # stdout carries exactly the canonical metrics JSON.
        assert captured.out.strip() == first.strip()
        assert '"epoch":1' in first
        # Byte-identical on re-run.
        assert main(argv) == 0
        assert capsys.readouterr().out == captured.out
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first

    def test_reconfig_report_mode(self, capsys):
        assert main(["reconfig", "--seed", "1", "--clients", "2",
                     "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "elastic scenario" in out
        assert "ok" in out


class TestQosCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["qos"])
        assert args.seed == 0
        assert args.scheme == "ssmr"
        assert args.smoke is False
        assert args.json is False
        assert args.out is None

    def test_fuzz_overload_flag(self):
        assert build_parser().parse_args(["fuzz"]).overload is False
        assert build_parser().parse_args(
            ["fuzz", "--overload"]).overload is True

    def test_smoke_json_is_byte_deterministic(self, capsys, tmp_path):
        out_path = str(tmp_path / "qos.json")
        argv = ["qos", "--smoke", "--json", "--out", out_path]
        assert main(argv) == 0
        first = capsys.readouterr()
        # stdout carries exactly the canonical campaign JSON; the human
        # report goes to stderr.
        assert first.out.startswith("{") and '"points"' in first.out
        assert "overload campaign" in first.err
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first.out
        assert main(argv) == 0
        assert capsys.readouterr().out == first.out


class TestCampaignRegistry:
    def test_every_campaign_is_byte_compared_by_the_smoke_script(self):
        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "smoke_outputs.sh").read_text()
        for name in CAMPAIGNS:
            assert f"repro {name} " in script, name

    def test_every_campaign_is_a_subcommand(self):
        parser = build_parser()
        for name in CAMPAIGNS:
            assert parser.parse_args([name]).command == name
