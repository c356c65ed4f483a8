"""Seeded schedule campaigns: generate, run, shrink, report.

Every fault campaign is a list of :class:`FaultSchedule` run through
:func:`~repro.fuzz.runner.run_schedule`; :func:`run_campaign` does that
(shrinking and archiving violations on request) and a :class:`Preset`
says how the campaign titles, tabulates and sums up its runs. Three
presets share the shape: the fuzzer (:data:`FUZZ`, schedules from
:func:`~repro.fuzz.generate.generate_schedule`), the chaos campaign
(:mod:`repro.harness.chaos`) and the self-healing campaign
(:mod:`repro.heal.campaign`).

A campaign is a pure function of its schedules: the canonical JSON
summary and the report rendered from it are byte-identical across runs,
which is what the CI smoke checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.fuzz.artifact import make_artifact, save_artifact
from repro.fuzz.generate import GENERATOR_SCHEMES, generate_schedule
from repro.fuzz.runner import ScheduleRunResult, run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.fuzz.shrink import ShrinkResult, shrink_schedule
from repro.harness.report import format_table

#: Schemes a campaign fuzzes by default (the generator's full set).
FUZZ_SCHEMES = GENERATOR_SCHEMES


def _done_ms(entry: dict) -> str:
    finished = entry["run"]["finished_at"]
    return f"{finished:.0f}" if finished is not None else "stuck"


def run_cell(key: str) -> Callable[[dict], object]:
    """Report column showing field ``key`` of an entry's run dict."""
    return lambda entry: entry["run"][key]


#: Columns every preset shows between "scheme" and its own columns.
FAULTS_OPS_DONE = (
    ("faults", lambda entry: entry["faults"]),
    ("ops", lambda entry: (f"{entry['run']['ops_completed']}/"
                           f"{entry['run']['ops_expected']}")),
    ("done-ms", _done_ms),
)


@dataclass(frozen=True)
class Preset:
    """How one campaign flavour names, tabulates and sums up its runs.

    ``columns`` are ``(header, cell(entry))`` pairs shown between the
    ``#``/``scheme`` and ``verdict`` columns; ``describe`` renders an
    entry's ``faults``; ``entries`` is the JSON key of the per-run list.
    A preset with ``totals`` adds a campaign-wide ``totals`` section to
    the JSON, rendered under the table by ``totals_report``.
    """

    title: Callable[[dict], str]
    columns: tuple
    describe: Callable[[FaultSchedule], str] = FaultSchedule.describe
    entries: str = "schedules"
    shrinks: bool = True
    totals: Optional[Callable[[Sequence[ScheduleRunResult]], dict]] = None
    totals_report: Optional[Callable[[dict], list]] = None

    def report(self, data: dict) -> str:
        """Human-readable report, rendered from the canonical dict."""
        entries = data[self.entries]
        rows = []
        for entry in entries:
            shrink = entry.get("shrink")
            verdict = ("ok" if not entry["run"]["violations"] else
                       f"FAIL->{shrink['minimal_events']}ev" if shrink
                       else "FAIL")
            rows.append([entry["index"], entry["scheme"]]
                        + [cell(entry) for _, cell in self.columns]
                        + [verdict])
        table = format_table(
            ["#", "scheme"] + [header for header, _ in self.columns]
            + ["verdict"], rows)
        lines = [self.title(data), "", table, ""]
        if self.totals is not None:
            lines.extend(self.totals_report(data["totals"]))
        violations = [(entry, violation) for entry in entries
                      for violation in entry["run"]["violations"]]
        if not violations:
            lines.append(f"no invariant violations in {len(entries)} "
                         f"runs")
            return "\n".join(lines)
        lines.append(f"{len(violations)} violation(s):")
        for entry, violation in violations:
            lines.append(f"  - [#{entry['index']} {entry['scheme']}] "
                         f"{violation}")
        for entry in entries:
            if entry.get("shrink"):
                lines.append(f"  shrink [#{entry['index']}]: "
                             f"{entry['shrink']['summary']}")
                lines.append(f"    minimal: "
                             f"{entry['shrink']['minimal_faults']}")
        for entry in entries:
            if entry.get("artifact"):
                lines.append(f"  artifact [#{entry['index']}]: "
                             f"{entry['artifact']}")
        for entry in entries:
            if entry["run"]["violations"] and entry["run"]["trace_notes"]:
                lines.append(f"  trace context [#{entry['index']}]:")
                for note in entry["run"]["trace_notes"]:
                    lines.extend(f"    {line}"
                                 for line in note.splitlines())
        return "\n".join(lines)


#: The fuzzer's own preset.
FUZZ = Preset(
    title=lambda data: (f"fuzz campaign: seed={data['seed']}, "
                        f"{len(data['schedules'])} schedule(s)"),
    columns=(("digest", lambda entry: entry["digest"]),
             *FAULTS_OPS_DONE,
             ("linearizable", run_cell("linearizability"))))


@dataclass
class FuzzCampaignResult:
    """All runs of one campaign, plus shrink results and artifacts."""

    seed: int
    runs: tuple[ScheduleRunResult, ...]
    shrinks: dict[int, ShrinkResult] = field(default_factory=dict)
    artifact_paths: dict[int, str] = field(default_factory=dict)
    preset: Preset = FUZZ

    @property
    def violations(self) -> list[tuple[ScheduleRunResult, str]]:
        return [(run, violation) for run in self.runs
                for violation in run.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def _entry(self, run: ScheduleRunResult) -> dict:
        index = run.schedule.index
        entry = {"index": index, "digest": run.schedule.digest(),
                 "scheme": run.schedule.scheme,
                 "faults": self.preset.describe(run.schedule),
                 "run": run.to_dict()}
        if self.preset.shrinks:
            shrink = self.shrinks.get(index)
            entry["shrink"] = None if shrink is None else {
                "minimal_digest": shrink.minimal.digest(),
                "minimal_events": len(shrink.minimal.events),
                "original_events": len(shrink.original.events),
                "probes": shrink.probes,
                "summary": shrink.summary(),
                "minimal_faults": shrink.minimal.describe(),
            }
        if index in self.artifact_paths:
            entry["artifact"] = self.artifact_paths[index]
        return entry

    def to_dict(self) -> dict:
        """Canonical campaign summary (the CI smoke byte-compares this)."""
        data = {"seed": self.seed,
                self.preset.entries: [self._entry(run)
                                      for run in self.runs],
                "violations": len(self.violations)}
        if self.preset.totals is not None:
            data["totals"] = self.preset.totals(self.runs)
        return data

    def report(self) -> str:
        return self.preset.report(self.to_dict())


def run_campaign(schedules: Iterable[FaultSchedule], seed: int,
                 preset: Preset = FUZZ, shrink: bool = False,
                 shrink_probes: int = 120,
                 artifacts_dir: Optional[str] = None
                 ) -> FuzzCampaignResult:
    """Run every schedule; shrink and archive the violating ones."""
    runs: list[ScheduleRunResult] = []
    shrinks: dict[int, ShrinkResult] = {}
    artifact_paths: dict[int, str] = {}
    for schedule in schedules:
        run = run_schedule(schedule)
        runs.append(run)
        if run.ok:
            continue
        index = schedule.index
        shrunk = None
        if shrink:
            shrunk = shrink_schedule(schedule, run,
                                     max_probes=shrink_probes)
            shrinks[index] = shrunk
        if artifacts_dir is not None:
            os.makedirs(artifacts_dir, exist_ok=True)
            if shrunk is not None:
                artifact = make_artifact(shrunk.final_run, shrunk)
                digest = shrunk.minimal.digest()
            else:
                artifact = make_artifact(run)
                digest = schedule.digest()
            path = os.path.join(
                artifacts_dir,
                f"repro-seed{seed}-i{index}-{digest}.json")
            save_artifact(artifact, path)
            artifact_paths[index] = path
    return FuzzCampaignResult(seed=seed, runs=tuple(runs),
                              shrinks=shrinks,
                              artifact_paths=artifact_paths,
                              preset=preset)


def run_fuzz_campaign(num_schedules: int = 10, seed: int = 0,
                      schemes: Sequence[str] = FUZZ_SCHEMES,
                      num_clients: int = 3, ops_per_client: int = 8,
                      inject_bug: Optional[str] = None,
                      shrink: bool = True,
                      shrink_probes: int = 120,
                      artifacts_dir: Optional[str] = None,
                      supervisor: bool = False,
                      overload: bool = False,
                      disk: bool = False,
                      parallel: bool = False) -> FuzzCampaignResult:
    """Run ``num_schedules`` generated schedules; shrink any violation.

    With ``supervisor=True`` every schedule runs under the autonomous
    recovery supervisor (:mod:`repro.heal`): crash events get no
    harness-driven restart — the healer alone must bring the system
    back — and the generator adds the false-suspicion vocabulary
    (delay-spiked and drop-isolated nodes).

    With ``overload=True`` every cluster runs with overload control
    armed (:mod:`repro.qos`) and the generator adds overload-burst
    events: open-loop read-only surges the admission controllers must
    shed while the foreground workload still completes under the
    schedule's other faults.

    With ``disk=True`` every cluster runs with durable storage armed
    (:mod:`repro.store`): crashes recover through the cold-start
    ladder, and the generator adds the storage-fault vocabulary —
    torn writes, bit rot, slow disks and whole-cluster power loss.

    With ``parallel=True`` every server executes on a 4-worker
    conflict-aware pool (:mod:`repro.smr.parallel`): the same fault
    vocabulary then fuzzes the P-SMR equivalence argument — the
    linearizability checker catches any schedule where parallel
    execution diverges from the sequential specification.
    """
    schedules = (generate_schedule(seed, index, schemes=schemes,
                                   num_clients=num_clients,
                                   ops_per_client=ops_per_client,
                                   inject_bug=inject_bug,
                                   supervisor=supervisor,
                                   overload=overload, disk=disk,
                                   parallel=parallel)
                 for index in range(num_schedules))
    return run_campaign(schedules, seed, shrink=shrink,
                        shrink_probes=shrink_probes,
                        artifacts_dir=artifacts_dir)
