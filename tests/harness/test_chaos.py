"""Tests for the chaos campaign preset.

The campaign's value rests on three properties: it is deterministic (same
seed, same report — byte for byte), it passes on the real protocols, and
it CAN fail — the sentinel run disables server-side dedup and the checkers
must catch the resulting duplicate execution.
"""

import dataclasses

import pytest

from repro.fuzz.generate import shape_nodes
from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.harness.chaos import (CHAOS_SCHEMES, DEADLINE_MS, _crash_victim,
                                 _partition_islands, describe_chaos,
                                 generate_chaos_schedule, run_chaos_campaign)
from repro.harness.faults import VICTIM_ROLES


def chaos_schedule(scheme, *events, seed=0, index=0, drop=0.01):
    """A hand-built chaos-shaped schedule: drop over [0, 300) + events."""
    return FaultSchedule(
        seed=seed, index=index, scheme=scheme,
        events=({"kind": "drop", "at": 0.0, "end": 300.0,
                 "fraction": drop},) + events,
        horizon_ms=300.0, deadline_ms=DEADLINE_MS)


def crash(role, scheme, at=60.0, recover=140.0, slot=1):
    node, mode = _crash_victim(scheme, role, slot)
    return {"kind": "crash", "at": at, "node": node, "mode": mode,
            "duration": recover - at, "role": role, "slot": slot}


def split(scheme, at=50.0, end=110.0):
    island_a, island_b = _partition_islands(shape_nodes(scheme))
    return {"kind": "partition", "at": at, "end": end,
            "island_a": island_a, "island_b": island_b}


def by_kind(schedule):
    return {event["kind"]: event for event in schedule.events}


class TestScenarioGenerator:
    def test_deterministic(self):
        assert (generate_chaos_schedule(9, 4, "ssmr")
                == generate_chaos_schedule(9, 4, "ssmr"))

    def test_varies_with_index_and_seed(self):
        scenarios = {generate_chaos_schedule(0, i, "dssmr").digest()
                     for i in range(8)}
        assert len(scenarios) == 8
        assert (generate_chaos_schedule(0, 0, "dssmr")
                != generate_chaos_schedule(1, 0, "dssmr"))

    def test_bounds(self):
        for index in range(20):
            schedule = generate_chaos_schedule(3, index, "dssmr")
            events = by_kind(schedule)
            assert 0.005 <= events["drop"]["fraction"] <= 0.025
            if "partition" in events:
                window = events["partition"]
                assert 0 < window["at"] < window["end"] \
                    <= schedule.horizon_ms
            if "crash" in events:
                event = events["crash"]
                assert event["role"] in VICTIM_ROLES
                assert 0 < event["at"] \
                    < event["at"] + event["duration"] < schedule.horizon_ms
                assert event["slot"] in (0, 1)

    def test_generator_draws_every_crash_role(self):
        roles = {by_kind(generate_chaos_schedule(0, index, "dssmr"))
                 ["crash"]["role"]
                 for index in range(60)
                 if "crash" in by_kind(generate_chaos_schedule(0, index,
                                                               "dssmr"))}
        assert roles == set(VICTIM_ROLES)

    def test_describe_lists_active_faults(self):
        schedule = chaos_schedule(
            "ssmr", crash("follower", "ssmr", at=50.0, recover=120.0))
        text = describe_chaos(schedule)
        assert "drop=0.010" in text
        assert "crash(follower:p1@50)" in text
        assert "dup" not in text


class TestCampaign:
    def test_campaign_is_deterministic_and_clean(self):
        first = run_chaos_campaign(num_scenarios=3, seed=0)
        second = run_chaos_campaign(num_scenarios=3, seed=0)
        assert first.report() == second.report()
        assert first.ok, first.report()
        assert len(first.runs) == 3 * len(CHAOS_SCHEMES)

    def test_two_percent_drop_everything_completes(self):
        """The issue's headline guarantee: at a 2% drop rate every client
        request completes and histories stay linearizable."""
        for scheme in CHAOS_SCHEMES:
            result = run_schedule(chaos_schedule(scheme, seed=1,
                                                 drop=0.02))
            assert result.ops_completed == result.ops_expected
            assert result.ok, (scheme, result.violations)

    @pytest.mark.parametrize("scheme", CHAOS_SCHEMES)
    @pytest.mark.parametrize("role", VICTIM_ROLES)
    def test_crash_scenarios_pass(self, scheme, role):
        """Crash faults are valid for every role now — followers recover
        through checkpoint install, speakers/sequencers and oracle
        replicas ride out a blackout and reconnect."""
        result = run_schedule(chaos_schedule(
            scheme, crash(role, scheme), seed=2))
        assert result.ok, (scheme, role, result.violations)

    def test_scenario_converts_to_fuzz_schedule(self):
        """A chaos scenario IS a fuzz schedule: the same draw for every
        scheme, with the crash victim resolved per scheme."""
        for index in range(20):
            schedules = [generate_chaos_schedule(7, index, scheme)
                         for scheme in CHAOS_SCHEMES]
            assert len({describe_chaos(s) for s in schedules}) == 1
            for schedule in schedules:
                assert schedule.horizon_ms == 300.0
                assert schedule.deadline_ms == DEADLINE_MS
                assert schedule.inject_bug is None
                event = by_kind(schedule).get("crash")
                if event is not None:
                    assert (event["node"], event["mode"]) == _crash_victim(
                        schedule.scheme, event["role"], event["slot"])
        speaker = crash("speaker", "ssmr", slot=0)
        assert speaker["node"] == "p0s0" and speaker["mode"] == "blackout"
        oracle = crash("oracle", "smr", slot=1)   # no oracle: speaker
        assert oracle["node"] == "p0s0" and oracle["mode"] == "blackout"

    def test_partition_window_passes(self):
        for scheme in CHAOS_SCHEMES:
            result = run_schedule(chaos_schedule(scheme, split(scheme),
                                                 seed=4))
            assert result.ok, (scheme, result.violations)


class TestSentinel:
    """Prove the campaign can fail: with server-side dedup disabled, a
    client resend executes twice and the checkers must say so."""

    HEAVY = chaos_schedule("smr", seed=3, drop=0.12)

    def test_dedup_off_is_caught(self):
        result = run_schedule(dataclasses.replace(self.HEAVY,
                                                  inject_bug="no_dedup"))
        assert not result.ok
        assert any("more than once" in violation
                   for violation in result.violations)
        assert any("not linearizable" in violation
                   for violation in result.violations)

    def test_same_run_with_dedup_is_clean(self):
        result = run_schedule(self.HEAVY)
        assert result.ok, result.violations
        assert result.resends > 0   # the faults did force retries


class TestReport:
    def test_report_mentions_every_scheme_and_verdict(self):
        campaign = run_chaos_campaign(num_scenarios=1, seed=5)
        report = campaign.report()
        for scheme in CHAOS_SCHEMES:
            assert scheme in report
        assert "verdict" in report
        assert "no invariant violations" in report
