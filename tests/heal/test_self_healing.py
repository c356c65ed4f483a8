"""End-to-end self-healing: every role crashed, nothing harness-recovered.

These runs go through the shared fuzz runner with ``supervisor=True``:
crash events are scheduled with **no** restart callback, so only the
detect → lease → fence → repair loop can bring the cluster back. The
acceptance bar is the usual one — every op completes, every invariant
holds — plus the two false-suspicion safety properties: a delay-spiked
(alive) replica is never double-replaced, and a wrongly-suspected node
that comes back is fenced out and replaced cleanly, never split-brained.
"""

import json

import pytest

from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.harness.faults import reset_id_counters
from repro.harness.kvworkload import build_kv_cluster, cluster_seed
from repro.heal import FAST_TIMING, ClusterHealer
from repro.heal.campaign import generate_heal_schedule, run_heal_campaign


def heal_schedule(events, scheme="dssmr", seed=0, index=0):
    return FaultSchedule(seed=seed, index=index, scheme=scheme,
                         events=tuple(events), supervisor=True)


class TestAutonomousRecovery:
    def test_all_roles_crash_and_heal_with_no_harness_recovery(self):
        # One schedule per scheme: follower amnesia-crash, sequencer
        # blackout and (dssmr) oracle blackout — zero restart callbacks.
        for scheme in ("ssmr", "dssmr"):
            run = run_schedule(generate_heal_schedule(0, 0, scheme))
            assert run.ok, (scheme, run.violations)
            assert run.ops_completed == run.ops_expected
            heal = run.heal
            expected = 3 if scheme == "dssmr" else 2
            assert heal["detections"] == expected
            assert heal["replaces"] == 1
            assert heal["reconnects"] == expected - 1
            # Every episode closed: the victim's heartbeats came back.
            assert all(e["closed_at"] is not None
                       for e in heal["episodes"])
            assert heal["mttr_ms"]["count"] == expected

    def test_unavailability_windows_are_booked(self):
        run = run_schedule(generate_heal_schedule(0, 0, "dssmr"))
        unavail = run.heal["unavailability_ms"]
        # Both partitions lost a member at some point; each outage is a
        # bounded window, far shorter than the 300ms fault phase.
        assert set(unavail) == {"p0", "p1"}
        for span in unavail.values():
            assert 0.0 < span < 200.0

    def test_campaign_converges_clean(self):
        campaign = run_heal_campaign(num_scenarios=2, seed=0)
        assert campaign.ok
        totals = campaign.to_dict()["totals"]
        assert totals["detections"] == 10   # (2+3) roles x 2 scenarios
        assert totals["false_suspicions"] == 0
        assert totals["mttr_samples"] == 10
        assert totals["mttr_mean_ms"] > 0

    def test_campaign_is_byte_deterministic(self):
        one = json.dumps(run_heal_campaign(1, 3).to_dict(),
                         sort_keys=True)
        two = json.dumps(run_heal_campaign(1, 3).to_dict(),
                         sort_keys=True)
        assert one == two


class TestFalseSuspicionSafety:
    def test_delay_spiked_replica_is_never_double_replaced(self):
        # All of p0s1's traffic (heartbeats included) rides 80ms spikes
        # for 160ms — long enough to be confirmed dead several times
        # over. The replace cooldown must allow at most one
        # fence+replace; re-confirmations are suppressed.
        run = run_schedule(heal_schedule([
            {"kind": "delay", "at": 40.0, "end": 200.0, "fraction": 1.0,
             "spike_ms": 80.0, "nodes": ["p0s1"]},
        ]))
        assert run.ok, run.violations
        heal = run.heal
        assert heal["replaces"] <= 1
        replaced = [e for e in heal["episodes"]
                    if e["action"] == "replace"]
        assert len(replaced) <= 1
        # If the cooldown was ever exercised, it suppressed — never
        # replaced — the duplicates.
        if heal["detections"] > heal["replaces"]:
            assert heal["suppressed"] + heal["false_suspicions"] > 0

    def test_wrongly_suspected_node_is_fenced_not_split_brained(self):
        # A total drop window isolates p1s1 while it stays alive. From
        # the supervisors' vantage it is dead: they fence the old
        # incarnation (object-crash) before installing a replacement,
        # so when the window lifts there is exactly one p1s1 — and the
        # run must satisfy every invariant (convergence, exactly-once,
        # unique placement).
        run = run_schedule(heal_schedule([
            {"kind": "drop", "at": 40.0, "end": 160.0, "fraction": 1.0,
             "nodes": ["p1s1"]},
        ]))
        assert run.ok, run.violations
        heal = run.heal
        assert heal["detections"] >= 1
        assert heal["fences"] >= 1          # the live node was fenced
        assert heal["replaces"] == heal["fences"]
        assert all(e["closed_at"] is not None
                   for e in heal["episodes"])

    def test_supervisor_vocabulary_runs_clean_across_seeds(self):
        # The generator's supervisor-mode faults (delay-spiked and
        # drop-isolated nodes) compose with ordinary crashes; a spread
        # of seeds must converge with zero invariant violations.
        from repro.fuzz.generate import generate_schedule
        for seed in range(6):
            run = run_schedule(generate_schedule(seed, 0,
                                                 supervisor=True))
            assert run.ok, (seed, run.violations)
            assert run.heal is not None


class TestSpareEscalation:
    def _kill_learner_oracle(self, cluster):
        # or1 is the oracle group's learner (or0 speaks): object-dead,
        # it can be neither reconnected (not blacked out) nor replaced
        # (no recovery path rebuilds ordering state) — but every data
        # partition and the oracle speaker stay healthy, so the cluster
        # can still drive an epoch-fenced join.
        victim = sorted(o.node.name for o in cluster.oracles)[-1]
        next(o for o in cluster.oracles
             if o.node.name == victim).node.crash()
        return victim

    def test_unrecoverable_oracle_escalates_to_spare_join(self):
        # After ESCALATE_AFTER_ATTEMPTS futile reconnects the lease
        # holder gives up on the victim and joins the spare partition
        # instead, restoring capacity.
        reset_id_counters()
        cluster = build_kv_cluster(
            "dssmr", cluster_seed(9, "dssmr", "heal-spare"))
        healer = ClusterHealer(cluster, timing=FAST_TIMING,
                               spare_partition="p2")
        env = cluster.env
        env.run(until=100.0)
        victim = self._kill_learner_oracle(cluster)
        env.run(until=1_500.0)
        healer.stop()
        assert healer.spare_joins.value == 1
        assert "p2" in cluster.partitions
        # The new partition is monitored like any other.
        assert any(group == "p2"
                   for _role, group in healer.roles.values())
        episode = next(e for e in healer.episodes
                       if e.victim == victim)
        assert episode.action == "spare_join"
        assert episode.attempts >= 3

    def test_no_spare_configured_keeps_retrying_reconnect(self):
        reset_id_counters()
        cluster = build_kv_cluster(
            "dssmr", cluster_seed(9, "dssmr", "heal-nospare"))
        healer = ClusterHealer(cluster, timing=FAST_TIMING)
        env = cluster.env
        env.run(until=100.0)
        self._kill_learner_oracle(cluster)
        env.run(until=1_000.0)
        healer.stop()
        assert healer.spare_joins.value == 0
        assert "p2" not in cluster.partitions


class TestRunnerIntegration:
    def test_plain_schedules_have_no_heal_payload(self):
        from repro.fuzz.generate import generate_schedule
        run = run_schedule(generate_schedule(0, 0))
        assert run.heal is None
        assert run.to_dict()["heal"] is None

    def test_supervisor_flag_round_trips_and_tags_description(self):
        schedule = generate_heal_schedule(0, 0, "ssmr")
        assert schedule.supervisor
        assert "+supervisor" in schedule.describe()
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone == schedule
        # Old artifacts (no supervisor key) default to off.
        legacy = dict(schedule.to_dict())
        del legacy["supervisor"]
        assert not FaultSchedule.from_dict(legacy).supervisor
