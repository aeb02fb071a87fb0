"""Job-kind registry: JSON payloads onto the library entry points.

Each executor is a plain function ``(payload: dict, ctx: JobContext) ->
dict`` — JSON in, JSON out — so jobs can cross the HTTP boundary and be
shipped to spawn-started worker processes unchanged.  Executors call
``ctx.check()`` at natural yield points to honour cooperative
cancellation and run timeouts; all simulation work is additionally
bounded by instruction budgets.

Built-in kinds:

================ =====================================================
``vp_run``       assemble + run on the VP (UART output, stop reason)
``fault_campaign`` coverage-guided mutant campaign, the CLI's default
                 mutant mix; results byte-identical to a direct
                 :meth:`FaultCampaign.run`
``coverage``     instruction/register coverage of one program
``wcet``         full QTA flow: static bound + co-simulation
``fuzz``         coverage-guided fuzzing session (``repro fuzz``)
``verify``       differential verification campaign (``repro verify``):
                 corpus x configuration matrix with lockstep escalation
``fault_campaign_shard`` one deterministic slice of a campaign's fault
                 list (cluster work unit; see :mod:`repro.cluster`)
``fuzz_eval``    evaluate a batch of fuzz inputs and return their
                 signatures/classifications (cluster work unit)
``verify_shard`` one contiguous program range of a verify campaign
                 (cluster work unit)
================ =====================================================

The ``*_shard``/``*_eval`` kinds are the cluster fabric's work
units: a coordinator decomposes a campaign or fuzz job into them with a
plan derived *only* from the job spec, so however many nodes execute
them the order-restored merge is byte-identical to a single-process
run.  Third-party code registers new kinds with
:func:`register_executor`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..pool import shard_bounds
from .jobs import JobContext, null_context

__all__ = [
    "ExecutorError",
    "execute_job",
    "execute_job_traced",
    "job_kinds",
    "register_executor",
]


class ExecutorError(Exception):
    """A job payload the executor cannot act on (bad request, not a bug)."""


_EXECUTORS: Dict[str, Callable[[Dict[str, Any], JobContext],
                               Dict[str, Any]]] = {}


def register_executor(kind: str):
    """Decorator: register ``fn`` as the executor for ``kind``."""
    def decorator(fn):
        _EXECUTORS[kind] = fn
        return fn
    return decorator


def job_kinds() -> List[str]:
    """The registered job kinds, sorted."""
    return sorted(_EXECUTORS)


def execute_job(kind: str, payload: Dict[str, Any],
                ctx: Optional[JobContext] = None) -> Dict[str, Any]:
    """Execute one job synchronously and return its JSON result.

    This is the single entry point used by worker threads, worker
    processes, and tests — the service never executes work any other
    way, which is what makes service results identical to direct calls.
    """
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ExecutorError(
            f"unknown job kind {kind!r}; known kinds: {job_kinds()}")
    return executor(payload, ctx if ctx is not None else null_context())


def execute_job_traced(kind: str, payload: Dict[str, Any],
                       trace: Optional[Dict[str, Any]] = None,
                       job_id: Optional[str] = None,
                       ctx: Optional[JobContext] = None) -> Dict[str, Any]:
    """Execute one job while collecting its telemetry events.

    Runs the executor under a fresh thread-local telemetry session so
    the job's VP/campaign/fuzz events are captured in isolation, tags
    every record with the trace context, the job id, and this process's
    pid, and returns ``{"result", "events", "pid", "origin"}``.

    ``origin`` is the event log's monotonic-clock zero; since
    ``CLOCK_MONOTONIC`` is system-wide on Linux, a parent process can
    rebase the events onto its own log by shifting each ``ts_us`` by
    ``(origin - parent_origin) * 1e6``.  Module-level and JSON-in /
    JSON-out, so ``pool.apply_async`` can ship it to spawn-started
    worker processes unchanged.
    """
    import os

    from ..telemetry import Telemetry, thread_telemetry_session

    session = Telemetry()
    with thread_telemetry_session(session):
        result = execute_job(kind, payload, ctx)
    tags: Dict[str, Any] = {"pid": os.getpid()}
    if job_id is not None:
        tags["job"] = job_id
    if trace:
        tags.update({key: value for key, value in trace.items()
                     if value is not None})
    events = [{**record, **tags} for record in session.events]
    return {
        "result": result,
        "events": events,
        "pid": tags["pid"],
        "origin": session.events.origin,
    }


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------

def _isa_for(payload: Dict[str, Any]):
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)
    from ..isa.decoder import IsaConfig

    return IsaConfig.from_string(payload.get("isa", "rv32imc_zicsr"))


def _program_for(payload: Dict[str, Any], isa):
    from ..asm import assemble

    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ExecutorError("payload needs a non-empty 'source' string")
    try:
        return assemble(source, isa=isa)
    except Exception as exc:
        raise ExecutorError(f"assembly failed: {exc}") from exc


def _int_field(payload: Dict[str, Any], name: str, default: int,
               minimum: int = 0) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ExecutorError(f"payload field {name!r} must be an integer "
                            f">= {minimum}")
    return value


def _one_process(payload: Dict[str, Any]) -> None:
    """A service job runs in one process; ``shards`` splits it."""
    if payload.get("jobs", 1) != 1:
        raise ExecutorError(
            "payload field 'jobs' is no longer supported; a service job "
            "runs in one process, so split it with the job's 'shards' "
            "field (repro submit --shards N) instead")


def _backend_field(payload: Dict[str, Any], default: str = "interp") -> str:
    """The payload's ``backend``, canonical; ``default`` when it names
    none (single runs use ``interp``, campaigns pass
    ``CAMPAIGN_BACKEND``)."""
    from ..vp.backends import canonical_backend

    try:
        return canonical_backend(payload.get("backend", default))
    except ValueError as exc:
        raise ExecutorError(f"payload field 'backend': {exc}") from None


# ----------------------------------------------------------------------
# Built-in executors
# ----------------------------------------------------------------------

@register_executor("vp_run")
def run_vp_job(payload: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Assemble and run one program on the VP.

    When an enabled telemetry session is ambient (a ``--stats`` CLI run,
    or a traced service job collecting events on a worker), the phases
    show up as ``vp.assemble`` / ``vp.load`` spans and the machine emits
    its ``run.started`` / ``run.finished`` lifecycle events.
    """
    from ..telemetry.session import current_telemetry
    from ..vp.machine import Machine, MachineConfig

    telemetry = current_telemetry()
    isa = _isa_for(payload)
    with telemetry.events.span("vp.assemble", isa=isa.name):
        program = _program_for(payload, isa)
    budget = _int_field(payload, "max_instructions", 10_000_000, minimum=1)
    ctx.check()
    machine = Machine(MachineConfig(isa=isa, backend=_backend_field(payload)))
    if telemetry.enabled:
        machine.telemetry = telemetry
    with telemetry.events.span("vp.load"):
        machine.load(program)
    result = machine.run(max_instructions=budget)
    out = {
        "stop_reason": result.stop_reason,
        "exit_code": result.exit_code,
        "trap_cause": result.trap_cause,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "uart_output": machine.uart.output,
    }
    jit = machine.jit_stats()
    if jit is not None:
        out["jit"] = jit
    return out


def campaign_session_from_payload(payload: Dict[str, Any]):
    """Build the (campaign, golden, faults) triple a ``fault_campaign``
    payload describes.

    One shared code path for the whole-campaign executor, the
    per-shard executor, and the cluster coordinator's merge validation —
    sharing it is what makes a sharded campaign byte-identical to a
    single-process one (same program, same deterministic fault list).
    """
    from ..faultsim import (CAMPAIGN_BACKEND, FaultCampaign,
                            default_campaign_mutants)

    _one_process(payload)
    isa = _isa_for(payload)
    program = _program_for(payload, isa)
    mutants = _int_field(payload, "mutants", 100, minimum=1)
    seed = _int_field(payload, "seed", 0)
    checkpoints = bool(payload.get("checkpoints", True))
    digest_interval = payload.get("digest_interval")
    if digest_interval is not None:
        digest_interval = _int_field(payload, "digest_interval", 0, minimum=1)
    campaign = FaultCampaign(
        program, isa=isa, checkpoints=checkpoints,
        digest_interval=digest_interval,
        backend=_backend_field(payload, CAMPAIGN_BACKEND))
    golden = campaign.golden()
    faults = default_campaign_mutants(
        program, isa=isa, mutants=mutants, seed=seed,
        golden_instructions=golden.instructions)
    return campaign, golden, faults


def campaign_result_dict(golden_dict: Dict[str, Any],
                         campaign_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The ``fault_campaign`` result envelope from its parts.

    Used by the whole-campaign executor below and by the cluster merge —
    both must emit the exact same envelope for shard parity to hold."""
    from ..faultsim import CampaignResult

    result = CampaignResult.from_dict(campaign_dict)
    return {
        "golden": {
            "exit_code": golden_dict["exit_code"],
            "instructions": golden_dict["instructions"],
            "cycles": golden_dict["cycles"],
        },
        "mutants": result.total,
        "counts": result.counts,
        "normal_termination_fraction": result.normal_termination_fraction,
        "elapsed_seconds": round(campaign_dict["elapsed_seconds"], 6),
        "campaign": campaign_dict,
    }


@register_executor("fault_campaign")
def run_fault_campaign_job(payload: Dict[str, Any],
                           ctx: JobContext) -> Dict[str, Any]:
    """Coverage-guided fault campaign; the full classified result rides
    along under ``campaign`` (``CampaignResult.to_dict()``)."""
    campaign, golden, faults = campaign_session_from_payload(payload)
    ctx.check()

    def on_progress(progress):
        ctx.check()

    result = campaign.run(faults, on_progress=on_progress,
                          progress_interval=0.2)
    from dataclasses import asdict

    return campaign_result_dict(asdict(golden), result.to_dict())


@register_executor("fault_campaign_shard")
def run_fault_campaign_shard(payload: Dict[str, Any],
                             ctx: JobContext) -> Dict[str, Any]:
    """One deterministic slice of a fault campaign (cluster work unit).

    The payload is a whole ``fault_campaign`` payload plus
    ``shard_index`` / ``shard_count``; the node rebuilds the same
    campaign and the same seeded fault list, then classifies only its
    ``[lo, hi)`` slice.  Mutant classifications are independent of each
    other (pinned by the PR 2/4 parity suites), so a coordinator
    concatenating the shard slices in index order reproduces the
    single-process ``CampaignResult.results`` byte-for-byte.
    """
    from dataclasses import asdict

    shard_count = _int_field(payload, "shard_count", 1, minimum=1)
    shard_index = _int_field(payload, "shard_index", 0)
    if shard_index >= shard_count:
        raise ExecutorError(f"shard_index {shard_index} out of range for "
                            f"shard_count {shard_count}")
    campaign, golden, faults = campaign_session_from_payload(payload)
    lo, hi = shard_bounds(len(faults), shard_count, shard_index)
    ctx.check()

    def on_progress(progress):
        ctx.check()

    result = campaign.run(faults[lo:hi], on_progress=on_progress,
                          progress_interval=0.2)
    return {
        "shard_index": shard_index,
        "shard_count": shard_count,
        "lo": lo,
        "hi": hi,
        "golden": asdict(golden),
        "results": result.to_dict()["results"],
        "elapsed_seconds": round(result.elapsed_seconds, 6),
    }


def fuzz_session_from_payload(payload: Dict[str, Any]):
    """The ``(isa, config, seeds)`` triple a ``fuzz`` payload describes.

    Shared by the single-process ``fuzz`` executor and the cluster
    coordinator's distributed fuzz driver, so both fuzz the exact same
    session — same config, same seed corpus — and byte-identical final
    corpora follow from the engine's determinism contract.
    """
    from ..fuzz import FuzzConfig, suite_seeds, trivial_seed

    if payload.get("lockstep"):
        raise ExecutorError(
            "payload field 'lockstep' is no longer supported; the block "
            "cache on/off oracle is `repro verify --corpus fuzz:N "
            "--matrix cache`")
    _one_process(payload)
    isa = _isa_for(payload)
    config = FuzzConfig(
        iterations=_int_field(payload, "iterations", 2000, minimum=1),
        seed=_int_field(payload, "seed", 0),
        batch_size=_int_field(payload, "batch_size", 32, minimum=1),
        max_instructions=_int_field(payload, "max_instructions", 5000,
                                    minimum=1),
        minimize=bool(payload.get("minimize", True)),
        backend=_backend_field(payload),
    )
    kind = payload.get("seeds", "suites")
    if kind == "trivial":
        seeds = trivial_seed(isa)
    elif kind == "suites":
        seeds = suite_seeds(isa, seed=config.seed)
    else:
        raise ExecutorError(
            "payload field 'seeds' must be 'suites' or 'trivial'")
    return isa, config, seeds


@register_executor("fuzz")
def run_fuzz_job(payload: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Coverage-guided fuzzing session; returns ``FuzzResult.to_dict()``.

    Unlike the other kinds, ``source`` is optional — the seed corpus
    defaults to the generated testgen suites (``seeds: "suites"``) or a
    single trivial instruction (``seeds: "trivial"``).  Same ``seed`` ⇒
    identical ``corpus_signatures``, whatever ``shards`` is.
    """
    from ..fuzz import FuzzEngine

    isa, config, seeds = fuzz_session_from_payload(payload)
    ctx.check()
    engine = FuzzEngine(isa, config)

    def on_progress(progress):
        ctx.check()

    result = engine.run(seeds, on_progress=on_progress,
                        progress_interval=0.2)
    return result.to_dict()


#: Per-process cache of fuzz evaluators, keyed on the evaluation spec.
#: A node serving a stream of ``fuzz_eval`` work items for one session
#: rebuilds nothing: the evaluator restores its pristine snapshot
#: between inputs, which is exactly what guarantees batch results are
#: independent of which node (or which order) evaluated them.  The
#: machine itself is NOT thread-safe, so each cached evaluator carries a
#: lock — two worker nodes hosted in one process (tests, `repro node
#: --capacity`) must serialize on it or their interleaved execution
#: corrupts both results.
_FUZZ_EVALUATORS: Dict[Tuple[str, int, str], Any] = {}
_FUZZ_EVALUATOR_CACHE_MAX = 4
_FUZZ_EVALUATOR_GUARD = threading.Lock()


def _fuzz_evaluator_for(isa_name: str, max_instructions: int, backend: str):
    from ..fuzz import ProgramEvaluator
    from ..isa.decoder import IsaConfig

    key = (isa_name, max_instructions, backend)
    with _FUZZ_EVALUATOR_GUARD:
        entry = _FUZZ_EVALUATORS.get(key)
        if entry is None:
            if len(_FUZZ_EVALUATORS) >= _FUZZ_EVALUATOR_CACHE_MAX:
                _FUZZ_EVALUATORS.clear()
            entry = (ProgramEvaluator(
                IsaConfig.from_string(isa_name),
                max_instructions=max_instructions, backend=backend),
                threading.Lock())
            _FUZZ_EVALUATORS[key] = entry
    return entry


@register_executor("fuzz_eval")
def run_fuzz_eval(payload: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Evaluate a batch of fuzz inputs (cluster work unit).

    The payload carries plain instruction-word lists; the result carries
    one serialized :class:`~repro.fuzz.executor.EvalResult` per input,
    in submission order.  Evaluations are pure and independent, so a
    coordinator can shard a fuzz batch across nodes and reassemble the
    results into submission order with no effect on the corpus
    trajectory.
    """
    from ..fuzz.executor import check_words

    inputs = payload.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        raise ExecutorError("payload field 'inputs' must be a non-empty "
                            "list of instruction-word lists")
    try:
        inputs = [check_words(words, f"payload field 'inputs'[{index}]")
                  for index, words in enumerate(inputs)]
    except ValueError as exc:
        raise ExecutorError(str(exc)) from None
    isa_name = payload.get("isa", "rv32imc_zicsr")
    max_instructions = _int_field(payload, "max_instructions", 5000,
                                  minimum=1)
    backend = _backend_field(payload)
    import repro.bmi  # noqa: F401 — register optional ISA modules (Zbb)

    try:
        evaluator, guard = _fuzz_evaluator_for(isa_name, max_instructions,
                                               backend)
    except Exception as exc:
        raise ExecutorError(f"cannot build evaluator: {exc}") from exc
    results = []
    with guard:
        for words in inputs:
            ctx.check()
            results.append(evaluator.evaluate(words).to_dict())
    return {"results": results, "count": len(results)}


def verify_session_from_payload(payload: Dict[str, Any]):
    """The :class:`~repro.verify.DiffCampaign` a ``verify`` payload
    describes.

    Shared by the whole-campaign executor, the per-shard executor, and
    the cluster merge's validation — campaigns are pure functions of
    ``(isa, config)``, so one shared construction path is what makes the
    sharded report byte-identical to a single-process run.
    """
    from ..verify import DiffCampaign, VerifyCampaignConfig

    _one_process(payload)
    isa = _isa_for(payload)
    corpus = payload.get("corpus", "suites")
    matrix = payload.get("matrix", "backends")
    for name, value in (("corpus", corpus), ("matrix", matrix)):
        if not isinstance(value, str) or not value.strip():
            raise ExecutorError(
                f"payload field {name!r} must be a non-empty string")
    config = VerifyCampaignConfig(
        corpus=corpus,
        matrix=matrix,
        seed=_int_field(payload, "seed", 0),
        max_instructions=_int_field(payload, "max_instructions", 20_000,
                                    minimum=1),
        repeats=_int_field(payload, "repeats", 4, minimum=1),
        checkpoint_split=_int_field(payload, "checkpoint_split", 200,
                                    minimum=1),
        minimize_evals=_int_field(payload, "minimize_evals", 24),
    )
    try:
        campaign = DiffCampaign(isa, config)
        campaign.corpus()  # surface bad corpus specs as bad requests
    except (ValueError, OSError) as exc:
        raise ExecutorError(str(exc)) from exc
    return campaign


@register_executor("verify")
def run_verify_job(payload: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Differential verification campaign; returns the canonical report
    (:func:`repro.verify.verify_report_dict`).  Like ``fuzz``, no
    ``source`` — the corpus spec names the programs."""
    campaign = verify_session_from_payload(payload)
    ctx.check()

    def on_progress(done):
        ctx.check()

    return campaign.run(on_progress=on_progress,
                        progress_interval=0.2).to_dict()


@register_executor("verify_shard")
def run_verify_shard(payload: Dict[str, Any],
                     ctx: JobContext) -> Dict[str, Any]:
    """One contiguous program range of a verify campaign (cluster work
    unit).

    The payload is a whole ``verify`` payload plus ``shard_index`` /
    ``shard_count``; the node rebuilds the same seeded corpus and
    matrix, then verifies only its ``[lo, hi)`` programs.  Per-program
    comparisons are independent, so concatenating shard escalation lists
    in index order reproduces the single-process campaign exactly.
    """
    import time

    shard_count = _int_field(payload, "shard_count", 1, minimum=1)
    shard_index = _int_field(payload, "shard_index", 0)
    if shard_index >= shard_count:
        raise ExecutorError(f"shard_index {shard_index} out of range for "
                            f"shard_count {shard_count}")
    campaign = verify_session_from_payload(payload)
    lo, hi = shard_bounds(len(campaign.corpus()), shard_count, shard_index)
    ctx.check()
    started = time.perf_counter()

    def on_progress(done):
        ctx.check()

    escalations = campaign.run_range(lo, hi, on_progress=on_progress)
    return {
        "shard_index": shard_index,
        "shard_count": shard_count,
        "lo": lo,
        "hi": hi,
        "meta": campaign.meta(),
        "escalations": escalations,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }


@register_executor("coverage")
def run_coverage_job(payload: Dict[str, Any],
                     ctx: JobContext) -> Dict[str, Any]:
    """Instruction-type and register coverage of one program."""
    from ..coverage import measure_coverage

    isa = _isa_for(payload)
    program = _program_for(payload, isa)
    budget = _int_field(payload, "max_instructions", 1_000_000, minimum=1)
    ctx.check()
    report = measure_coverage(program, isa=isa, max_instructions=budget)
    return {
        "isa": report.isa_name,
        "insn_coverage": round(report.insn_coverage, 6),
        "gpr_coverage": round(report.gpr_coverage, 6),
        "insn_types_executed": len(report.insn_types),
        "insn_universe": len(report.insn_universe),
        "missed_insn_types": sorted(report.missed_insn_types()),
    }


@register_executor("wcet")
def run_wcet_job(payload: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Full QTA flow: static IPET bound + timing-annotated co-simulation."""
    from ..wcet import analyze_program

    isa = _isa_for(payload)
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ExecutorError("payload needs a non-empty 'source' string")
    budget = _int_field(payload, "max_instructions", 10_000_000, minimum=1)
    edge_sensitive = bool(payload.get("edge_sensitive", False))
    ctx.check()
    try:
        analysis = analyze_program(source, isa=isa, max_instructions=budget,
                                   edge_sensitive=edge_sensitive)
    except Exception as exc:
        raise ExecutorError(f"WCET analysis failed: {exc}") from exc
    result = analysis.result
    return {
        "static_bound_cycles": analysis.static_bound.cycles,
        "method": analysis.static_bound.method,
        "wcet_time": result.wcet_time,
        "actual_cycles": result.actual_cycles,
        "instructions": result.instructions,
        "pessimism": round(result.pessimism, 6),
    }
