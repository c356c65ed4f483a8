"""Tests for the durability campaign (``python -m repro durability``)."""

import json

import pytest

from repro.harness.durability import (OVERHEAD_BOUND_MS,
                                      format_durability_report,
                                      run_durability_campaign)


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def smoke():
    return run_durability_campaign(seed=0, smoke=True)


class TestSmokeCampaign:
    def test_summary_is_green(self, smoke):
        summary = smoke["summary"]
        assert summary["ok"], summary
        assert summary["replay_ok"] and summary["power_ok"]
        assert summary["ladder_ok"] and summary["overhead_ok"]
        assert summary["recovery_ok"]

    def test_replay_hashes_match(self, smoke):
        for result in smoke["replay_equivalence"]:
            assert result["hash_equal"], result["scheme"]
            assert result["violations"] == []

    def test_ladder_fell_back_to_a_peer(self, smoke):
        assert all(l["peer_fallbacks"] >= 1
                   for l in smoke["fault_ladder"])

    def test_overhead_within_documented_bound(self, smoke):
        for entry in smoke["overhead"]:
            assert entry["overhead_ms"] <= OVERHEAD_BOUND_MS

    def test_byte_identical_across_runs(self, smoke):
        again = run_durability_campaign(seed=0, smoke=True)
        assert canonical(again) == canonical(smoke)

    def test_report_renders(self, smoke):
        report = format_durability_report(smoke)
        assert "replay" in report.lower()
        assert "overhead" in report.lower()


class TestCli:
    def test_durability_smoke_is_byte_identical(self, capsys, smoke):
        from repro.cli import main

        assert main(["durability", "--smoke"]) == 0
        first = capsys.readouterr().out
        # The CLI run is a second same-seed run of the shared smoke.
        assert first == canonical(smoke) + "\n"
        payload = json.loads(first)
        assert payload["summary"]["ok"]
