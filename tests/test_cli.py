"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "generate",
            "stats",
            "profiles",
            "evaluate",
            "mesoscopic",
            "testbed",
            "deploy",
            "mac",
        ):
            args = {
                "generate": [command, "/tmp/x.csv"],
            }.get(command, [command])
            parsed = parser.parse_args(args)
            assert parsed.command == command


class TestCommands:
    def test_mac(self, capsys):
        assert main(["mac", "--vehicles", "256"]) == 0
        out = capsys.readouterr().out
        assert "256 vehicles" in out
        assert "MCS 8" in out

    def test_generate_stats_round_trip(self, tmp_path, capsys):
        csv_path = str(tmp_path / "data.csv")
        assert main(
            ["generate", csv_path, "--cars", "30", "--trips", "3"]
        ) == 0
        assert main(["stats", "--input", csv_path]) == 0
        out = capsys.readouterr().out
        assert "Shenzhen" in out
        assert "Motorway" in out

    def test_profiles_library(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "motorway" in out
        assert len(out.splitlines()) >= 25

    def test_evaluate_small(self, capsys):
        assert main(["evaluate", "--cars", "80"]) == 0
        out = capsys.readouterr().out
        assert "cad3" in out
        assert "E(Lambda)" in out

    def test_deploy_scaled(self, capsys):
        assert main(["deploy", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "motorway" in out
        assert "coverage" in out

    def test_testbed_single(self, capsys):
        assert main(
            ["testbed", "--vehicles", "8", "--duration", "1.5", "--cars", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "total=" in out


class TestConsolidatedFlags:
    """The report subcommands share one scenario parent (--seed,
    --shards) and one output parent (--format, --out)."""

    @pytest.mark.parametrize(
        "command", ["resilience", "obs", "city"]
    )
    def test_shared_flags_parse_everywhere(self, command):
        parsed = build_parser().parse_args(
            [command, "--seed", "13", "--shards", "2",
             "--format", "json", "--out", "/tmp/r.json"]
        )
        assert parsed.seed == 13
        assert parsed.shards == 2
        assert parsed.format == "json"
        assert parsed.out == "/tmp/r.json"


class TestCityCommand:
    def test_city_report_json_and_out(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "city.json"
        assert main(
            ["city", "--scale", "0.01", "--duration", "300",
             "--shards", "2", "--rebalance-every", "2",
             "--format", "json", "--out", str(out_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out_path.read_text())
        assert payload["shards"] == 2
        assert payload["digest_signature"]

    def test_city_markdown_default(self, capsys):
        assert main(["city", "--scale", "0.01", "--duration", "120"]) == 0
        out = capsys.readouterr().out
        assert "city" in out.lower()
