"""Self-healing acceptance campaign: crash every role, recover nothing.

``run_heal_campaign(n, seed)`` generates ``n`` scenarios per scheme in
which **every** victim role — a partition follower, a partition
sequencer (speaker) and, on dynamic schemes, an oracle replica — is
crashed, and the harness performs *no* recovery call of its own: the
schedules run with ``supervisor=True``, so the fuzz runner schedules the
crashes and walks away. Convergence (every client op completed, all
invariants intact) is then evidence that the accrual detector +
recovery supervisor loop did the healing autonomously.

It is a preset of the schedule campaign (:mod:`repro.fuzz.campaign`);
only the MTTR totals section (:func:`heal_totals`) is its own. The whole
campaign is a pure function of ``(seed, n, schemes)`` and its canonical
JSON is byte-identical across runs — the CI smoke runs
``python -m repro heal --smoke`` twice and compares the outputs.
"""

from __future__ import annotations

from typing import Sequence

from repro.fuzz.campaign import (FAULTS_OPS_DONE, FuzzCampaignResult,
                                 Preset, run_campaign)
from repro.fuzz.generate import DEADLINE_MS, HORIZON_MS, shape_nodes
from repro.fuzz.runner import ScheduleRunResult
from repro.fuzz.schedule import FaultSchedule, normalize_schedule
from repro.sim import SeedStream

#: Schemes the heal campaign exercises (both partitioned deployments;
#: dssmr adds the oracle role to the crash rota).
HEAL_SCHEMES = ("ssmr", "dssmr")

#: Crash windows per role (ms): staggered so the supervisor handles one
#: failure at a time, each with room to detect + repair before the next.
_ROLE_WINDOWS = {
    "follower": (30.0, 60.0),
    "speaker": (95.0, 130.0),
    "oracle": (160.0, 195.0),
}


def generate_heal_schedule(seed: int, index: int, scheme: str,
                           num_clients: int = 3,
                           ops_per_client: int = 8) -> FaultSchedule:
    """Draw heal scenario ``index`` for ``scheme`` (pure function).

    Every schedule crashes one node of *each* role the scheme has —
    follower by object-crash (amnesia), speaker and oracle by network
    blackout — plus light background loss, with ``supervisor=True`` so
    the runner performs no harness-driven recovery.
    """
    rng = SeedStream(seed).child("heal-gen").stream(f"{scheme}/s{index}")
    shape = shape_nodes(scheme)
    events: list[dict] = [{
        "kind": "drop", "at": 0.0, "end": HORIZON_MS,
        "fraction": round(rng.uniform(0.002, 0.01), 4),
    }]
    # Victims rotate with the scenario index and are drawn from distinct
    # partitions, so consecutive failures never gut one majority.
    rota = [("follower", shape["followers"], "restart"),
            ("speaker", shape["speakers"], "blackout")]
    if shape["oracles"]:
        rota.append(("oracle", shape["oracles"], "blackout"))
    for offset, (role, pool, mode) in enumerate(rota):
        node = pool[(index + offset) % len(pool)]
        lo, hi = _ROLE_WINDOWS[role]
        events.append({"kind": "crash", "at": round(rng.uniform(lo, hi), 1),
                       "node": node, "mode": mode,
                       # Unused under supervisor=True (the healer, not a
                       # timer, ends the outage); kept for replay tools.
                       "duration": 50.0})
    return normalize_schedule(FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=HORIZON_MS, deadline_ms=DEADLINE_MS,
        num_clients=num_clients, ops_per_client=ops_per_client,
        supervisor=True))


def heal_totals(runs: Sequence[ScheduleRunResult]) -> dict:
    """Campaign-wide MTTR accounting summed over every run."""
    keys = ("detections", "false_suspicions", "fences", "replaces",
            "reconnects", "suppressed", "deferred", "spare_joins")
    totals = {key: 0 for key in keys}
    mttr: list[float] = []
    for run in runs:
        heal = run.heal or {}
        for key in keys:
            totals[key] += heal.get(key, 0)
        for episode in heal.get("episodes", ()):
            if episode.get("closed_at") is not None \
                    and not episode.get("false_positive"):
                mttr.append(episode["closed_at"]
                            - episode["opened_at"]
                            + episode["silent_ms"])
    totals["mttr_samples"] = len(mttr)
    totals["mttr_mean_ms"] = (round(sum(mttr) / len(mttr), 3)
                              if mttr else None)
    totals["mttr_max_ms"] = round(max(mttr), 3) if mttr else None
    return totals


def _totals_report(totals: dict) -> list[str]:
    lines = [f"totals: {totals['detections']} detection(s), "
             f"{totals['replaces']} replace(s), "
             f"{totals['reconnects']} reconnect(s), "
             f"{totals['fences']} fence(s), "
             f"{totals['false_suspicions']} false suspicion(s), "
             f"{totals['suppressed']} suppressed"]
    if totals["mttr_mean_ms"] is not None:
        lines.append(f"MTTR: mean {totals['mttr_mean_ms']:.1f} ms, "
                     f"max {totals['mttr_max_ms']:.1f} ms over "
                     f"{totals['mttr_samples']} episode(s)")
    return lines


def _heal_cell(key: str):
    return lambda entry: (entry["run"]["heal"] or {}).get(key, 0)


#: The self-healing campaign's preset: healer columns plus MTTR totals.
HEAL = Preset(
    title=lambda data: (f"self-healing campaign: seed={data['seed']}, "
                        f"{len(data['scenarios'])} run(s), "
                        f"no harness recovery"),
    columns=(*FAULTS_OPS_DONE,
             ("det", _heal_cell("detections")),
             ("repl", _heal_cell("replaces")),
             ("reconn", _heal_cell("reconnects")),
             ("false+", _heal_cell("false_suspicions"))),
    entries="scenarios", shrinks=False,
    totals=heal_totals, totals_report=_totals_report)


def run_heal_campaign(num_scenarios: int = 4, seed: int = 0,
                      schemes: Sequence[str] = HEAL_SCHEMES,
                      num_clients: int = 3, ops_per_client: int = 8
                      ) -> FuzzCampaignResult:
    """Run ``num_scenarios`` all-roles-crash scenarios per scheme."""
    schedules = (generate_heal_schedule(seed, index, scheme,
                                        num_clients=num_clients,
                                        ops_per_client=ops_per_client)
                 for index in range(num_scenarios) for scheme in schemes)
    return run_campaign(schedules, seed, preset=HEAL)
