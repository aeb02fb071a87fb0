"""Fault-injection campaigns: golden run, mutant simulation, classification.

The campaign runs the unmodified binary once (the *golden run*), then
simulates every mutant and classifies the outcome against the golden
reference:

========== ==========================================================
outcome    meaning
========== ==========================================================
masked     terminated normally with the golden result — fault benign
sdc        terminated normally with a *wrong* result (silent data
           corruption): the paper's "normal termination though executed
           on a faulty hardware model", the cases flagged for further
           countermeasure work
trap       stopped by a hardware-detected error (unhandled trap)
hang       exceeded the instruction budget / halted without exiting
========== ==========================================================
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..asm import Program
from ..isa.decoder import IsaConfig
from ..pool import Workers, resolve_jobs, split
from ..telemetry.session import resolve as _resolve_telemetry
from ..vp.cpu import STOP_EXIT
from ..vp.machine import Machine, MachineConfig, STOP_UNHANDLED_TRAP
from .checkpoint import CheckpointEngine
from .faults import Fault, TRANSIENT
from .injector import (InjectionError, check_transient, inject, remove_fault,
                       run_transient)

OUTCOME_MASKED = "masked"
OUTCOME_SDC = "sdc"
OUTCOME_TRAP = "trap"
OUTCOME_HANG = "hang"

OUTCOMES = (OUTCOME_MASKED, OUTCOME_SDC, OUTCOME_TRAP, OUTCOME_HANG)

#: Execution backend campaigns run on unless told otherwise: the
#: ``FaultCampaign`` default, ``repro faults``, and the
#: ``fault_campaign`` service executors.  Every mutant re-runs one
#: binary, so the JIT's process-wide code cache absorbs the compile
#: cost; classifications are identical on every backend.
CAMPAIGN_BACKEND = "compiled"


@dataclass
class GoldenRun:
    """Reference behaviour of the fault-free binary."""

    exit_code: int
    uart_output: str
    instructions: int
    cycles: int


@dataclass
class MutantResult:
    fault: Fault
    outcome: str
    exit_code: Optional[int] = None
    trap_cause: Optional[int] = None
    instructions: int = 0


@dataclass
class CampaignResult:
    golden: GoldenRun
    results: List[MutantResult]
    elapsed_seconds: float

    @property
    def counts(self) -> Dict[str, int]:
        tally = {outcome: 0 for outcome in OUTCOMES}
        for result in self.results:
            tally[result.outcome] += 1
        return tally

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def mutants_per_second(self) -> float:
        # 0.0 (not inf) for instantaneous campaigns: inf breaks JSON
        # serialisation of derived reports and reads as nonsense anyway.
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total / self.elapsed_seconds

    @property
    def normal_termination_fraction(self) -> float:
        """Fraction of mutants that terminate normally (masked + sdc)."""
        if not self.total:
            return 0.0
        counts = self.counts
        return (counts[OUTCOME_MASKED] + counts[OUTCOME_SDC]) / self.total

    def of_outcome(self, outcome: str) -> List[MutantResult]:
        return [r for r in self.results if r.outcome == outcome]

    def breakdown_by_target(self) -> Dict[str, Dict[str, int]]:
        """Outcome counts per fault target (gpr/memory/code/...).

        The fault-analysis papers report which hardware structures are the
        dangerous ones; this is that table.
        """
        table: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            row = table.setdefault(
                result.fault.target,
                {outcome: 0 for outcome in OUTCOMES},
            )
            row[result.outcome] += 1
        return table

    def target_table(self) -> str:
        breakdown = self.breakdown_by_target()
        header = f"{'target':<8}" + "".join(
            f"{outcome:>8}" for outcome in OUTCOMES) + f"{'sdc rate':>10}"
        lines = [header, "-" * len(header)]
        for target in sorted(breakdown):
            row = breakdown[target]
            total = sum(row.values())
            sdc_rate = row[OUTCOME_SDC] / total if total else 0.0
            lines.append(
                f"{target:<8}" + "".join(
                    f"{row[outcome]:>8}" for outcome in OUTCOMES)
                + f"{sdc_rate:>9.1%}"
            )
        return "\n".join(lines)

    def table(self) -> str:
        counts = self.counts
        lines = [
            f"{'outcome':<10} {'count':>8} {'fraction':>10}",
            "-" * 30,
        ]
        for outcome in OUTCOMES:
            fraction = counts[outcome] / self.total if self.total else 0.0
            lines.append(f"{outcome:<10} {counts[outcome]:>8} {fraction:>9.1%}")
        lines.append("-" * 30)
        lines.append(f"{'total':<10} {self.total:>8}")
        lines.append(
            f"throughput: {self.mutants_per_second:.1f} mutants/s"
        )
        return "\n".join(lines)

    # -- serialization (consumed by the telemetry event-log exporter) --

    def to_dict(self) -> Dict:
        return {
            "golden": asdict(self.golden),
            "elapsed_seconds": self.elapsed_seconds,
            "results": [
                {
                    "fault": asdict(result.fault),
                    "outcome": result.outcome,
                    "exit_code": result.exit_code,
                    "trap_cause": result.trap_cause,
                    "instructions": result.instructions,
                }
                for result in self.results
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignResult":
        return cls(
            golden=GoldenRun(**data["golden"]),
            results=[
                MutantResult(
                    fault=Fault(**entry["fault"]),
                    outcome=entry["outcome"],
                    exit_code=entry.get("exit_code"),
                    trap_cause=entry.get("trap_cause"),
                    instructions=entry.get("instructions", 0),
                )
                for entry in data["results"]
            ],
            elapsed_seconds=data["elapsed_seconds"],
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))


class FaultCampaign:
    """Runs a fault list against one program.

    ``telemetry`` (see :mod:`repro.telemetry`) defaults to the
    process-wide session — disabled unless the caller or the CLI enabled
    one, in which case :meth:`run` emits per-mutant events, periodic
    progress records, and a campaign summary, and maintains the
    ``faultsim.campaign.*`` metrics.
    """

    def __init__(
        self,
        program: Program,
        isa: Optional[IsaConfig] = None,
        budget_multiplier: int = 4,
        min_budget: int = 10_000,
        golden_budget: int = 10_000_000,
        reuse_machine: bool = True,
        checkpoints: bool = True,
        digest_interval: Optional[int] = None,
        telemetry=None,
        backend: str = CAMPAIGN_BACKEND,
    ) -> None:
        self.program = program
        self.isa = isa or IsaConfig.from_string(program.isa_name)
        #: Execution backend for golden and mutant runs alike (see
        #: :mod:`repro.vp.backends`).  Classifications are backend-
        #: independent; the default is :data:`CAMPAIGN_BACKEND`.
        self.backend = backend
        self.budget_multiplier = budget_multiplier
        self.min_budget = min_budget
        self.golden_budget = golden_budget
        self._telemetry_arg = telemetry
        # Snapshot-based machine reuse: every mutant runs on one shared
        # machine — restore the loaded snapshot, inject, run, remove the
        # fault — instead of building and loading a fresh one.  Off, each
        # mutant gets a fresh machine (the reference the reuse is tested
        # against).
        self.reuse_machine = reuse_machine
        # Checkpoint engine (see :mod:`repro.faultsim.checkpoint`):
        # transient mutants start from a warm snapshot at their trigger
        # point instead of replaying the fault-free prefix, and exit
        # early once they provably re-converge with the golden timeline.
        # Classifications are byte-identical either way.
        self.checkpoints = checkpoints
        self.digest_interval = digest_interval
        self._golden: Optional[GoldenRun] = None
        self._shared_machine: Optional[Machine] = None
        self._shared_snapshot = None
        self._engine: Optional[CheckpointEngine] = None
        self._machine_stats = {"machines_built": 0, "machines_reused": 0}
        self._counters_pushed: Dict[str, int] = {}

    def _fresh_machine(self) -> Machine:
        self._machine_stats["machines_built"] += 1
        return Machine(MachineConfig(isa=self.isa, backend=self.backend))

    def golden(self) -> GoldenRun:
        """Run (and cache) the fault-free reference."""
        if self._golden is None:
            machine = self._fresh_machine()
            machine.load(self.program)
            result = machine.run(max_instructions=self.golden_budget)
            if result.stop_reason != STOP_EXIT:
                raise ValueError(
                    "golden run did not terminate normally "
                    f"({result.stop_reason}); campaigns need a clean binary"
                )
            self._golden = GoldenRun(
                exit_code=result.exit_code,
                uart_output=machine.uart.output,
                instructions=result.instructions,
                cycles=result.cycles,
            )
        return self._golden

    @property
    def instruction_budget(self) -> int:
        golden = self.golden()
        return max(self.min_budget,
                   golden.instructions * self.budget_multiplier)

    @property
    def _checkpoints_active(self) -> bool:
        # Checkpointing is a refinement of machine reuse: with reuse off,
        # every mutant gets a fresh machine and there is nothing to warm.
        return self.checkpoints and self.reuse_machine

    def _ensure_engine(self) -> CheckpointEngine:
        if self._engine is None:
            golden = self.golden()
            machine = self._fresh_machine()
            machine.load(self.program)
            self._engine = CheckpointEngine(
                machine,
                golden_exit_code=golden.exit_code,
                golden_instructions=golden.instructions,
                digest_interval=self.digest_interval,
            )
            # The engine machine doubles as the campaign's shared machine
            # (code faults restore its base snapshot and patch in place).
            self._shared_machine = machine
            self._shared_snapshot = self._engine.base_snapshot
        return self._engine

    def prepare_checkpoints(self, triggers: Sequence[int]) -> None:
        """Pre-build warm checkpoints at the given transient triggers.

        Called once per campaign, before any mutant runs (and before
        ``jobs`` workers fork), so that every mutant restore is an exact
        hit; harmless no-op when checkpointing is inactive.
        """
        if not self._checkpoints_active or not triggers:
            return
        engine = self._ensure_engine()
        engine.prepare(triggers, self.instruction_budget)

    def _ensure_shared_machine(self) -> None:
        """Build the shared machine: the checkpoint engine's when
        active, else a loaded machine and its snapshot."""
        if self._shared_machine is not None:
            return
        if self._checkpoints_active:
            self._ensure_engine()
            return
        self._shared_machine = self._fresh_machine()
        self._shared_machine.load(self.program)
        self._shared_snapshot = self._shared_machine.snapshot()

    def _machine_for(self, fault: Fault) -> Machine:
        if not self.reuse_machine:
            machine = self._fresh_machine()
            machine.load(self.program)
            return machine
        if self._shared_machine is None:
            self._ensure_shared_machine()
            if self._engine is None:
                return self._shared_machine  # just loaded: no restore
        if self._engine is not None:
            # The caller is about to mutate the shared machine outside
            # the engine's control; its position bookkeeping is now void.
            self._engine.invalidate_position()
        self._shared_machine.restore(self._shared_snapshot)
        return self._shared_machine

    def _classify(self, fault: Fault, result, machine: Machine
                  ) -> MutantResult:
        golden = self.golden()
        if result.stop_reason == STOP_EXIT:
            same = (result.exit_code == golden.exit_code
                    and machine.uart.output == golden.uart_output)
            outcome = OUTCOME_MASKED if same else OUTCOME_SDC
            return MutantResult(fault, outcome, exit_code=result.exit_code,
                                instructions=result.instructions)
        if result.stop_reason in (STOP_UNHANDLED_TRAP, "trap_livelock"):
            return MutantResult(fault, OUTCOME_TRAP,
                                trap_cause=result.trap_cause,
                                instructions=result.instructions)
        return MutantResult(fault, OUTCOME_HANG,
                            instructions=result.instructions)

    def run_one(self, fault: Fault) -> MutantResult:
        golden = self.golden()
        if self.reuse_machine:
            self._machine_stats["machines_reused"] += 1
        if fault.kind == TRANSIENT and self._checkpoints_active:
            engine = self._ensure_engine()
            try:
                check_transient(engine.machine, fault)
            except InjectionError:
                return MutantResult(fault, OUTCOME_MASKED)
            result, early = engine.run_transient(
                fault, self.instruction_budget)
            if early:
                # The mutant provably re-converged with (or never left)
                # the golden timeline: its result is the golden result.
                return MutantResult(fault, OUTCOME_MASKED,
                                    exit_code=golden.exit_code,
                                    instructions=golden.instructions)
            return self._classify(fault, result, engine.machine)
        machine = self._machine_for(fault)
        cpu = machine.cpu
        files = (cpu.regs, cpu.fregs, cpu.csrs)
        budget = self.instruction_budget
        try:
            if fault.kind == TRANSIENT:
                result, _fired = run_transient(machine, fault, budget)
            else:
                inject(machine, fault)
                result = machine.run(max_instructions=budget)
        except InjectionError:
            # Not applicable to this binary (e.g. address out of range):
            # architecturally invisible, classify as masked.
            return MutantResult(fault, OUTCOME_MASKED)
        finally:
            if machine is self._shared_machine:
                remove_fault(machine, files)
        return self._classify(fault, result, machine)

    @property
    def telemetry(self):
        """The resolved telemetry session for this campaign."""
        return _resolve_telemetry(self._telemetry_arg)

    def checkpoint_stats(self) -> Dict[str, int]:
        """Cumulative ``faultsim.checkpoint.*`` counters (zeros when the
        engine never ran)."""
        if self._engine is None:
            return {key: 0 for key in CheckpointEngine.STAT_KEYS}
        return dict(self._engine.stats)

    def counters(self) -> Dict[str, int]:
        """:meth:`checkpoint_stats` and the machine counters under their
        full telemetry counter names.  ``faultsim.campaign.machines_built``
        counts machines built (the golden run's included),
        ``.machines_reused`` mutants that ran on the shared machine
        instead of a fresh one."""
        names = {f"faultsim.checkpoint.{key}": value
                 for key, value in self.checkpoint_stats().items()}
        names.update((f"faultsim.campaign.{key}", value)
                     for key, value in self._machine_stats.items())
        return names

    def push_stats(self, telemetry) -> None:
        """Fold :meth:`counters` into the telemetry registry.

        Pushes only the delta since the last push, so repeated ``run()``
        calls on one campaign don't double-count.
        """
        counters = self.counters()
        for name, value in counters.items():
            delta = value - self._counters_pushed.get(name, 0)
            if delta:
                telemetry.metrics.counter(name).inc(delta)
        self._counters_pushed = counters

    @staticmethod
    def _progress(done: int, total: int, elapsed: float) -> Dict:
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = total - done
        return {
            "done": done,
            "total": total,
            "elapsed_seconds": round(elapsed, 3),
            "mutants_per_second": round(rate, 2),
            "eta_seconds": round(remaining / rate, 1) if rate else None,
        }

    def run(
        self,
        faults: Sequence[Fault],
        on_progress: Optional[Callable[[Dict], None]] = None,
        progress_interval: float = 1.0,
        jobs: int = 1,
    ) -> CampaignResult:
        """Classify every fault; returns the aggregated result.

        ``jobs`` > 1 classifies contiguous fault ranges on up to that
        many worker processes forked after the golden run and the
        checkpoint sweep (see :mod:`repro.pool`); ``jobs=0`` uses every
        available CPU.  Results, their order and the telemetry counters
        are identical to the in-process run.

        ``on_progress`` (if given) is called with a progress dict
        (``done``/``total``/``mutants_per_second``/``eta_seconds``) at
        most every ``progress_interval`` seconds and once at the end;
        the same records land in the telemetry event log when enabled.
        """
        total = len(faults)
        jobs = resolve_jobs(jobs, total)
        telemetry = self.telemetry
        events = telemetry.events
        golden = self.golden()
        # Build every warm checkpoint in one monotonic golden sweep before
        # classifying, so each transient mutant restores an exact hit no
        # matter what order the fault list arrives in.
        self.prepare_checkpoints(
            [fault.trigger for fault in faults if fault.kind == TRANSIENT])
        track = telemetry.enabled or on_progress is not None
        metrics = telemetry.metrics.namespace("faultsim.campaign")
        done_counter = metrics.counter("mutants_done")
        mutant_timer = metrics.timer("mutant_seconds")
        outcome_counters = {
            outcome: metrics.counter(f"outcome.{outcome}")
            for outcome in OUTCOMES
        }
        if telemetry.enabled:
            events.emit("campaign.started", total=total,
                        golden_instructions=golden.instructions,
                        instruction_budget=self.instruction_budget,
                        jobs=jobs)
        start = time.perf_counter()
        last_report = start
        results: List[MutantResult] = []
        for index, result in enumerate(
                self._results(faults, jobs, mutant_timer)):
            results.append(result)
            done_counter.inc()
            outcome_counters[result.outcome].inc()
            if not track:
                continue
            if telemetry.enabled:
                fault = result.fault
                events.emit("mutant.classified", index=index,
                            fault=fault.describe(), target=fault.target,
                            kind=fault.kind, outcome=result.outcome,
                            instructions=result.instructions)
            now = time.perf_counter()
            if now - last_report >= progress_interval:
                progress = self._progress(index + 1, total, now - start)
                if telemetry.enabled:
                    events.emit("campaign.progress", **progress)
                if on_progress is not None:
                    on_progress(progress)
                last_report = now
        elapsed = time.perf_counter() - start
        campaign_result = CampaignResult(golden, results, elapsed)
        if telemetry.enabled:
            self.push_stats(telemetry)
        if track:
            final = self._progress(total, total, elapsed)
            if on_progress is not None:
                on_progress(final)
            if telemetry.enabled:
                metrics.gauge("mutants_per_second").set(
                    campaign_result.mutants_per_second)
                events.emit(
                    "campaign.finished",
                    total=total,
                    counts=campaign_result.counts,
                    elapsed_seconds=round(elapsed, 3),
                    mutants_per_second=round(
                        campaign_result.mutants_per_second, 2),
                    normal_termination_fraction=round(
                        campaign_result.normal_termination_fraction, 4),
                    jobs=jobs,
                )
        return campaign_result

    def _results(self, faults: Sequence[Fault], jobs: int, timer
                 ) -> Iterator[MutantResult]:
        """Every fault's result in fault order: classified here, or by
        ``jobs`` workers forked from this prepared campaign over
        contiguous fault ranges, their counters merged back."""
        if jobs > 1:
            if self.reuse_machine:
                self._ensure_shared_machine()  # inherited, not rebuilt
            with Workers(lambda bounds: self._run_range(faults, *bounds),
                         jobs, len(faults)) as workers:
                if workers.count > 1:
                    for results, seconds, counters in workers.map(
                            split(len(faults), workers.count)):
                        self._merge_counters(counters)
                        for result, busy in zip(results, seconds):
                            timer.observe(busy)
                            yield result
                    return
        for fault in faults:
            with timer:
                result = self.run_one(fault)
            yield result

    def _run_range(self, faults: Sequence[Fault], lo: int, hi: int
                   ) -> Tuple[List[MutantResult], List[float],
                              Dict[str, int]]:
        """A worker's share: results of ``faults[lo:hi]``, the seconds
        each took, and the counters they moved."""
        before = self.counters()
        results: List[MutantResult] = []
        seconds: List[float] = []
        for fault in faults[lo:hi]:
            started = time.perf_counter()
            results.append(self.run_one(fault))
            seconds.append(time.perf_counter() - started)
        after = self.counters()
        return results, seconds, {name: after[name] - before[name]
                                  for name in after
                                  if after[name] != before[name]}

    def _merge_counters(self, delta: Dict[str, int]) -> None:
        """Add a worker's :meth:`counters` delta to this campaign's."""
        for name, value in delta.items():
            table, _, key = name.rpartition(".")
            stats = (self._machine_stats if table == "faultsim.campaign"
                     else self._engine.stats)
            stats[key] += value
