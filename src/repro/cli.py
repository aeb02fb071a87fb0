"""Command-line interface: ``python -m repro <command>``.

Commands mirror the ecosystem tools:

=========== ===========================================================
``run``     assemble + run a program on the VP, print UART and result
``disasm``  objdump-style listing of an assembled program
``wcet``    full QTA flow: static bound, block table, co-simulation
``coverage`` instruction/register coverage of a program
``faults``  coverage-guided fault-injection campaign
``fuzz``    coverage-guided fuzzing of the VP (testgen suites as seeds)
``mutate``  XEMU-style mutation testing of a self-checking program
``gen``     emit a generated test program (torture/structured) to stdout
``stats``   re-render a saved telemetry event log (JSONL)
``serve``   run the batch simulation service (HTTP/JSON job API)
``submit``  submit a job to a running batch service
``profile`` guest-level sampling profile of a program on the VP
``top``     live terminal view of a running batch service
=========== ===========================================================

All commands take an assembly file (``-`` for stdin) and an optional
``--isa`` configuration string.  Every command additionally accepts the
telemetry flags ``--stats`` (print a metrics summary afterwards),
``--events-out FILE.jsonl`` (save the structured event log), and
``--trace-out FILE.json`` (export a Chrome trace loadable in
``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .asm import assemble
from .asm.listing import render_listing
from .isa.decoder import IsaConfig


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _isa(args) -> IsaConfig:
    # Importing repro.bmi registers the Zbb module so --isa rv32im_zbb works.
    import repro.bmi  # noqa: F401
    return IsaConfig.from_string(args.isa)


def _write_profile(profiler, program, isa, path) -> None:
    """Save a finished profile: ``.json`` keeps the structured form,
    anything else gets collapsed-stack lines for flamegraph tools."""
    profile = profiler.profile(program, isa=isa)
    if path.endswith(".json"):
        profile.save_json(path)
    else:
        profile.save_collapsed(path)
    hottest = profile.functions()[:1]
    where = (f"; hottest: {hottest[0]['function']} "
             f"({hottest[0]['fraction']:.0%})" if hottest else "")
    print(f"profile ({profile.total_samples:,} samples) written to "
          f"{path}{where}", file=sys.stderr)


def cmd_run(args) -> int:
    from .telemetry import current_telemetry
    from .vp.machine import Machine, MachineConfig
    from .vp.tracer import ExecutionTracer

    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    machine = Machine(MachineConfig(
        isa=isa, backend=args.backend,
        jit_threshold=args.jit_threshold,
        jit_trace_threshold=args.jit_trace_threshold))
    machine.load(program)
    if current_telemetry().enabled:
        machine.attach_telemetry()
    profiler = None
    if args.profile_out:
        from .observe import SamplingProfiler
        profiler = machine.add_plugin(SamplingProfiler())
    tracer = None
    if args.trace:
        tracer = machine.add_plugin(ExecutionTracer(limit=args.trace))
    result = machine.run(max_instructions=args.max_instructions)
    if profiler is not None:
        _write_profile(profiler, program, isa, args.profile_out)
    if machine.uart.output:
        print(machine.uart.output, end="")
        if not machine.uart.output.endswith("\n"):
            print()
    if tracer is not None:
        print(f"--- last {min(args.trace, tracer.count)} instructions ---")
        print(tracer.render(args.trace))
    print(f"stop: {result.stop_reason}  exit: {result.exit_code}  "
          f"instructions: {result.instructions}  cycles: {result.cycles}")
    jit = machine.jit_stats()
    if jit is not None:
        total = (jit["compiled_instructions"] + jit["interp_instructions"]
                 + jit["trace_instructions"])
        compiled = jit["compiled_instructions"] + jit["trace_instructions"]
        share = compiled / total if total else 0.0
        reason = machine.cpu.backend.interpreted
        print(f"jit: {jit['blocks_compiled']} blocks compiled, "
              f"{jit['traces_compiled']} traces, "
              f"{share:.1%} of instructions in the compiled tiers"
              + (f", {jit['compile_failures']} compile failures"
                 if jit["compile_failures"] else "")
              + (f", {jit['trace_failures']} trace failures"
                 if jit["trace_failures"] else "")
              + (f" (every block interpreted: {reason})" if reason else ""),
              file=sys.stderr)
    mem = machine.mem_stats()
    fast = mem["fastpath_loads"] + mem["fastpath_stores"]
    if fast or mem["fastpath_fallback_loads"] or \
            mem["fastpath_fallback_stores"]:
        print(f"mem: fastpath hit rate {mem['fastpath_hit_rate']:.1%} "
              f"({fast:,} fast, "
              f"{mem['fastpath_fallback_loads'] + mem['fastpath_fallback_stores']:,}"
              f" bus)", file=sys.stderr)
    return result.exit_code or 0


def cmd_disasm(args) -> int:
    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    print(render_listing(program, isa=isa))
    return 0


def _parse_icache(spec: str):
    from .vp.icache import ICacheConfig

    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(
            "icache spec must be SIZE:LINE:WAYS:PENALTY, e.g. 1024:16:2:10"
        )
    size, line, ways, penalty = (int(p, 0) for p in parts)
    return ICacheConfig(size=size, line_size=line, ways=ways,
                        miss_penalty=penalty)


def cmd_wcet(args) -> int:
    from .wcet import analyze_program
    from .wcet.report import render_full

    isa = _isa(args)
    source = _read_source(args.source)
    icache = _parse_icache(args.icache) if args.icache else None
    analysis = analyze_program(source, isa=isa,
                               max_instructions=args.max_instructions,
                               edge_sensitive=args.edge_sensitive,
                               icache=icache,
                               cache_analysis=args.cache_analysis)
    print(render_full(analysis, name=args.source))
    if args.emit_cfg:
        print("\n--- QTA intermediate CFG ---")
        print(analysis.wcet_cfg.to_text())
    if args.emit_dot:
        from .wcet import wcet_cfg_to_dot

        print("\n--- Graphviz DOT ---")
        print(wcet_cfg_to_dot(analysis.wcet_cfg, name=args.source))
    return 0


def cmd_coverage(args) -> int:
    from .coverage import measure_coverage

    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    report = measure_coverage(program, isa=isa,
                              max_instructions=args.max_instructions)
    print(report.to_text(args.source))
    if args.missed:
        print(f"missed instruction types: {report.missed_insn_types()}")
        print(f"missed GPRs: {report.missed_gprs()}")
    return 0


def cmd_faults(args) -> int:
    from .faultsim import (CAMPAIGN_BACKEND, FaultCampaign,
                           default_campaign_mutants)
    from .telemetry import current_telemetry

    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    backend = args.backend or CAMPAIGN_BACKEND
    campaign = FaultCampaign(program, isa=isa,
                             checkpoints=not args.no_checkpoints,
                             digest_interval=args.digest_interval,
                             backend=backend)
    golden = campaign.golden()
    print(f"golden: exit {golden.exit_code}, "
          f"{golden.instructions} instructions")
    faults = default_campaign_mutants(
        program, isa=isa, mutants=args.mutants, seed=args.seed,
        golden_instructions=golden.instructions)
    on_progress = None
    if current_telemetry().enabled:
        def on_progress(progress):
            eta = progress.get("eta_seconds")
            eta_text = f"{eta:.0f}s" if eta is not None else "?"
            print(f"\r  {progress['done']}/{progress['total']} mutants  "
                  f"{progress['mutants_per_second']:.1f}/s  ETA {eta_text} ",
                  end="", file=sys.stderr, flush=True)
    result = campaign.run(faults, on_progress=on_progress, jobs=args.jobs)
    if on_progress is not None:
        print(file=sys.stderr)
    print(result.table())
    if args.profile_out:
        # Profile the fault-free workload itself (one extra golden-budget
        # run with the sampler attached) — the hot path mutants hammer.
        from .observe import SamplingProfiler
        from .vp.machine import Machine, MachineConfig

        machine = Machine(MachineConfig(
            isa=isa, backend=backend,
            jit_threshold=args.jit_threshold,
            jit_trace_threshold=args.jit_trace_threshold))
        machine.load(program)
        profiler = machine.add_plugin(SamplingProfiler())
        machine.run(max_instructions=campaign.golden_budget)
        _write_profile(profiler, program, isa, args.profile_out)
    return 0


def cmd_mutate(args) -> int:
    from .faultsim.mutation_testing import run_mutation_testing

    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    report = run_mutation_testing(program, isa=isa, sample=args.sample,
                                  seed=args.seed)
    print(report.table())
    return 0


def cmd_fuzz(args) -> int:
    import json

    from .fuzz import FuzzConfig, FuzzEngine, suite_seeds, trivial_seed
    from .telemetry import current_telemetry

    isa = _isa(args)
    config = FuzzConfig(
        iterations=args.iterations,
        seed=args.seed,
        jobs=args.jobs,
        batch_size=args.batch_size,
        max_instructions=args.max_instructions,
        minimize=not args.no_minimize,
        time_budget=args.time_budget,
        backend=args.backend,
    )
    engine = FuzzEngine(isa, config)
    profiler = None
    if args.profile_out:
        # Samples the in-process evaluator machine; with --jobs > 1 the
        # worker processes' share of executions is not attributed.
        from .observe import SamplingProfiler

        profiler = engine.evaluator.machine.add_plugin(SamplingProfiler())
        if args.jobs != 1:
            print("note: --profile-out samples the in-process evaluator "
                  "only; use --jobs 1 for complete attribution",
                  file=sys.stderr)
    if args.seeds == "trivial":
        seeds = trivial_seed(isa)
    else:
        seeds = suite_seeds(isa, seed=args.seed)
    on_progress = None
    if current_telemetry().enabled:
        def on_progress(progress):
            print(f"\r  {progress['execs']}/{progress['total']} mutants  "
                  f"corpus {progress['corpus_size']}  "
                  f"coverage {progress['coverage_elements']}  "
                  f"findings {progress['findings']}  "
                  f"{progress['execs_per_second']:.0f} execs/s ",
                  end="", file=sys.stderr, flush=True)
    result = engine.run(seeds, on_progress=on_progress)
    if on_progress is not None:
        print(file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
        print()
        print(result.triage.table())
    if profiler is not None:
        # Fuzz inputs have no symbol table; blocks attribute to hex pcs.
        _write_profile(profiler, None, isa, args.profile_out)
    return 0


def cmd_verify(args) -> int:
    import json

    from .telemetry import current_telemetry
    from .verify import DiffCampaign, VerifyCampaignConfig

    isa = _isa(args)
    config = VerifyCampaignConfig(
        corpus=args.corpus,
        matrix=args.matrix,
        seed=args.seed,
        max_instructions=args.max_instructions,
        repeats=args.repeats,
        checkpoint_split=args.checkpoint_split,
        minimize_evals=args.minimize_evals,
        jobs=args.jobs,
    )
    campaign = DiffCampaign(isa, config)
    total = len(campaign.corpus())
    on_progress = None
    if current_telemetry().enabled:
        pairs = len(campaign.matrix.pairs)

        def on_progress(done):
            print(f"\r  {done}/{total} programs x {pairs} pairs ",
                  end="", file=sys.stderr, flush=True)
    result = campaign.run(on_progress=on_progress)
    if on_progress is not None:
        print(file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.table())
    # Non-zero on any divergence so campaigns gate CI directly.
    return 0 if result.divergences == 0 else 1


def cmd_profile(args) -> int:
    from .observe import SamplingProfiler
    from .vp.machine import Machine, MachineConfig

    isa = _isa(args)
    program = assemble(_read_source(args.source), isa=isa)
    machine = Machine(MachineConfig(
        isa=isa, backend=args.backend,
        jit_threshold=args.jit_threshold,
        jit_trace_threshold=args.jit_trace_threshold))
    machine.load(program)
    profiler = machine.add_plugin(SamplingProfiler())
    result = machine.run(max_instructions=args.max_instructions)
    profile = profiler.profile(program, isa=isa)
    print(profile.render(limit=args.limit))
    if args.annotate:
        print()
        print(profile.annotated_disasm(limit=args.annotate))
    if args.collapsed_out:
        profile.save_collapsed(args.collapsed_out)
        print(f"collapsed stacks written to {args.collapsed_out} "
              "(feed to any flamegraph renderer)", file=sys.stderr)
    if args.json_out:
        profile.save_json(args.json_out)
        print(f"profile JSON written to {args.json_out}", file=sys.stderr)
    print(f"stop: {result.stop_reason}  exit: {result.exit_code}  "
          f"instructions: {result.instructions}", file=sys.stderr)
    jit = machine.jit_stats()
    if jit is not None:
        print(f"jit: {jit['blocks_compiled']} blocks compiled, "
              f"{jit['traces_compiled']} traces, "
              f"{jit['trace_instructions']:,} trace-tier / "
              f"{jit['compiled_instructions']:,} compiled-tier / "
              f"{jit['interp_instructions']:,} interp-tier instructions",
              file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    from .observe import run_top

    iterations = 1 if args.once else args.frames
    return run_top(args.url, interval=args.interval, iterations=iterations)


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve ``serve --workers``: ``0``/``None`` means every CPU this
    process may run on."""
    from .pool import available_cpus

    if workers is None or workers == 0:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _run_service(service, banner) -> int:
    """Start ``service``, print ``banner(url)`` (whose first URL is the
    bound one), and serve until a signal or ``POST /v1/shutdown``."""
    service.start()
    print(banner(service.url), file=sys.stderr)
    service.install_signal_handlers()
    service.serve_forever()
    return 0


def cmd_serve(args) -> int:
    from .cluster import ClusterCoordinator

    service = ClusterCoordinator(host=args.host, port=args.port,
                                 queue_limit=args.queue_limit,
                                 workers=resolve_workers(args.workers),
                                 mode=args.mode)
    return _run_service(service, lambda url: (
        f"repro batch service listening on {url} ({service.workers} "
        f"{service.mode} workers, queue limit {args.queue_limit}); "
        f"observability: {url}/metrics, /v1/events, /v1/fuzz/frontier "
        f"(watch with `repro top`); attach nodes with "
        f"`repro node --coordinator {url}`"))


def cmd_coordinator(args) -> int:
    from .cluster import ClusterCoordinator, TenantQuotas

    default_limit = None
    limits = {}
    for spec in args.tenant_quota or []:
        name, sep, value = spec.partition("=")
        if sep:
            limits[name] = int(value)
        else:
            default_limit = int(name)
    quotas = TenantQuotas(default_limit=default_limit, limits=limits)
    coordinator = ClusterCoordinator(
        host=args.host, port=args.port, store_path=args.store,
        queue_limit=args.queue_limit, lease_timeout=args.lease_timeout,
        node_timeout=args.node_timeout, max_attempts=args.max_attempts,
        quotas=quotas)
    store_note = f", store {args.store}" if args.store else ""
    return _run_service(coordinator, lambda url: (
        f"repro cluster coordinator listening on {url} "
        f"(queue limit {args.queue_limit}, lease timeout "
        f"{args.lease_timeout}s, node timeout {args.node_timeout}s"
        f"{store_note}); attach nodes with "
        f"`repro node --coordinator {url}`"))


def cmd_node(args) -> int:
    import signal

    from .cluster import WorkerNode

    node = WorkerNode(args.coordinator, name=args.name,
                      capacity=args.capacity,
                      poll_interval=args.poll_interval)

    def _drain(signum, frame):  # noqa: ARG001 - signal signature
        print("draining: finishing current item, then exiting",
              file=sys.stderr)
        node.drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(f"repro worker node attaching to {args.coordinator} "
          f"(capacity {node.capacity})", file=sys.stderr)
    node.run()
    stats = node.stats()
    print(f"node exiting: executed {stats['executed']} item(s), "
          f"{stats['failed']} failed", file=sys.stderr)
    return 0


def cmd_cluster_status(args) -> int:
    from .serve.client import ServiceClient

    service = ServiceClient(args.url).stats().get("service", {})
    cluster = service.get("cluster", {})
    work = cluster.get("work", {})
    print(f"coordinator {args.url}  "
          f"accepting={service.get('accepting')}  "
          f"queue={service.get('queue_depth')}/{service.get('queue_limit')}")
    jobs = service.get("jobs", {})
    print("jobs   " + "  ".join(
        f"{state}:{jobs.get(state, 0)}"
        for state in ("pending", "running", "succeeded", "failed",
                      "cancelled", "timeout")))
    print(f"work   pending:{work.get('pending', 0)}  "
          f"leased:{work.get('leased', 0)}  done:{work.get('done', 0)}  "
          f"failed:{work.get('failed', 0)}  "
          f"requeued:{cluster.get('work_requeued', 0)}  "
          f"nodes_lost:{cluster.get('nodes_lost', 0)}")
    tenants = cluster.get("tenants") or {}
    if tenants:
        print("tenants " + "  ".join(
            f"{name}:{active}" for name, active in sorted(tenants.items())))
    nodes = cluster.get("nodes") or []
    if not nodes:
        print("nodes  (none attached)")
        return 0
    print(f"nodes  ({len(nodes)} attached)")
    header = (f"  {'id':<10} {'name':<16} {'state':<9} {'cap':>3} "
              f"{'exec':>6} {'fail':>5} {'hb_age':>7} {'uptime':>8}")
    print(header)
    for row in nodes:
        node_stats = row.get("stats") or {}
        state = "draining" if row.get("draining") else "live"
        print(f"  {row.get('id', '?'):<10} "
              f"{(row.get('name') or '-'):<16} "
              f"{state:<9} "
              f"{row.get('capacity', 0):>3} "
              f"{node_stats.get('executed', 0):>6} "
              f"{node_stats.get('failed', 0):>5} "
              f"{row.get('heartbeat_age_seconds', 0):>6.1f}s "
              f"{node_stats.get('uptime_seconds', 0):>7.1f}s")
    return 0


def cmd_submit(args) -> int:
    import json

    from .serve.client import BackpressureError, ServiceClient
    from .serve.executors import job_kinds

    # Fail fast client-side: the kind registry the service dispatches
    # from is importable here, so an unknown kind never costs an HTTP
    # round-trip (the server still validates for non-CLI clients).
    valid_kinds = job_kinds()
    if args.kind not in valid_kinds:
        print(f"error: unknown job kind {args.kind!r}; valid kinds: "
              f"{', '.join(valid_kinds)}", file=sys.stderr)
        return 2
    if args.kind == "fuzz":
        # Fuzz jobs need no source program: the seed corpus is generated
        # service-side from the testgen suites (or a trivial seed).
        payload = {"isa": args.isa, "iterations": args.iterations,
                   "seed": args.seed, "seeds": args.fuzz_seeds}
    elif args.kind == "verify":
        # Verify jobs likewise carry no source: the corpus spec names
        # the programs, rebuilt service-side deterministically.
        payload = {"isa": args.isa, "corpus": args.corpus,
                   "matrix": args.matrix, "seed": args.seed}
    else:
        payload = {"source": _read_source(args.source), "isa": args.isa}
    if args.kind in ("vp_run", "fault_campaign", "fuzz") and args.backend:
        # Only when given: the service applies its per-kind default.
        payload["backend"] = args.backend
    if args.kind == "fault_campaign":
        payload.update(mutants=args.mutants, seed=args.seed,
                       checkpoints=not args.no_checkpoints)
        if args.digest_interval is not None:
            payload["digest_interval"] = args.digest_interval
    trace_ctx = None
    if args.trace_out:
        if not args.wait:
            print("error: --trace-out requires --wait (the trace is "
                  "fetched after the job resolves)", file=sys.stderr)
            return 2
        from .observe import TraceContext

        trace_ctx = TraceContext.mint()
    client = ServiceClient(args.url)
    try:
        job = client.submit(args.kind, payload, priority=args.priority,
                            timeout_seconds=args.timeout,
                            max_retries=args.max_retries,
                            trace=trace_ctx.to_dict() if trace_ctx else None,
                            tenant=args.tenant, shards=args.shards)
    except BackpressureError as exc:
        print(f"rejected: {exc.message}", file=sys.stderr)
        return 3
    print(f"submitted {job['id']} ({job['kind']})", file=sys.stderr)
    if not args.wait:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    done = client.wait(job["id"], timeout=args.wait_timeout,
                       poll_interval=args.poll_interval)
    if trace_ctx is not None:
        from .telemetry import export_chrome_trace

        events = client.job_events(job["id"])["events"]
        export_chrome_trace(events, args.trace_out)
        print(f"Chrome trace ({len(events)} events, trace "
              f"{trace_ctx.trace_id[:8]}…) written to {args.trace_out} "
              "(load in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    print(json.dumps(done, indent=2, sort_keys=True))
    return 0 if done["state"] == "succeeded" else 1


def cmd_stats(args) -> int:
    from .telemetry import EventLog, render_report

    log = EventLog.load_jsonl(args.events)
    print(render_report(log.events))
    return 0


def cmd_gen(args) -> int:
    isa = _isa(args)
    if args.kind == "torture":
        from .testgen import TortureConfig, TortureGenerator
        generator = TortureGenerator(
            isa, TortureConfig(length=args.length, seed=args.seed))
        print(generator.generate_source(args.seed))
    elif args.kind == "structured":
        from .testgen import StructuredGenerator
        generated = StructuredGenerator(isa).generate(args.seed)
        print(f"# expected checksum: {generated.expected_checksum:#010x}")
        print(generated.source)
    else:
        from .testgen import ArchSuiteGenerator, UnitSuiteGenerator
        generator = ArchSuiteGenerator(isa) if args.kind == "arch" \
            else UnitSuiteGenerator(isa, seed=args.seed)
        for name, source in generator.generate_sources():
            print(f"### {name}")
            print(source)
            print()
    return 0


def _backend_arg(name: str) -> str:
    """``--backend`` values: the canonical backend ``name`` selects."""
    from .vp.backends import canonical_backend

    try:
        return canonical_backend(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    from .vp.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scale4Edge RISC-V ecosystem tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def telemetry_flags(p):
        group = p.add_argument_group("telemetry")
        group.add_argument("--stats", action="store_true",
                           help="print a metrics summary after the command")
        group.add_argument("--events-out", metavar="FILE.jsonl",
                           help="save the structured event log as JSONL")
        group.add_argument("--trace-out", metavar="FILE.json",
                           help="export a Chrome trace "
                                "(chrome://tracing / Perfetto)")

    def common(p, with_budget=True):
        p.add_argument("source", help="assembly file, or - for stdin")
        p.add_argument("--isa", default="rv32imc_zicsr",
                       help="ISA configuration (default: rv32imc_zicsr)")
        if with_budget:
            p.add_argument("--max-instructions", type=int,
                           default=10_000_000)
        telemetry_flags(p)

    def profile_flag(p):
        p.add_argument("--profile-out", metavar="FILE",
                       help="save a guest sampling profile (.json = "
                            "structured, otherwise collapsed stacks for "
                            "flamegraph tools)")

    def backend_flags(p, default="interp", default_help=None):
        # Campaign commands pass default=None and resolve it to
        # repro.faultsim.CAMPAIGN_BACKEND when they run, so building the
        # parser does not import the fault simulator.
        p.add_argument("--backend", default=default, type=_backend_arg,
                       choices=BACKEND_NAMES,
                       help="execution backend (compiled = tiered "
                            "template JIT; see docs/performance.md; "
                            f"default: {default_help or default})")
        p.add_argument("--jit-threshold", type=int, default=8, metavar="N",
                       help="block executions before the compiled backend "
                            "promotes a block (default: 8)")
        p.add_argument("--jit-trace-threshold", type=int, default=16,
                       metavar="N",
                       help="compiled executions with a hot chain edge "
                            "before a block heads a multi-block trace "
                            "(default: 16)")

    p = sub.add_parser("run", help="assemble and run on the VP")
    common(p)
    p.add_argument("--trace", type=int, default=0, metavar="N",
                   help="print the last N executed instructions")
    profile_flag(p)
    backend_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("profile",
                       help="guest-level sampling profile on the VP")
    common(p)
    backend_flags(p)
    p.add_argument("--limit", type=int, default=10, metavar="N",
                   help="rows in the function / hot-block tables")
    p.add_argument("--annotate", type=int, default=0, metavar="N",
                   nargs="?", const=3,
                   help="print annotated disassembly of the N hottest "
                        "blocks (bare flag: 3)")
    p.add_argument("--collapsed-out", metavar="FILE",
                   help="save collapsed-stack lines (flamegraph input)")
    p.add_argument("--json-out", metavar="FILE.json",
                   help="save the structured profile as JSON")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("disasm", help="objdump-style listing")
    common(p, with_budget=False)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("wcet", help="QTA WCET analysis + co-simulation")
    common(p)
    p.add_argument("--emit-cfg", action="store_true",
                   help="also print the QTA intermediate CFG")
    p.add_argument("--emit-dot", action="store_true",
                   help="also print the annotated CFG as Graphviz DOT")
    p.add_argument("--edge-sensitive", action="store_true",
                   help="outcome-sensitive edge annotation (tighter)")
    p.add_argument("--icache", metavar="SIZE:LINE:WAYS:PENALTY",
                   help="model an instruction cache, e.g. 1024:16:2:10")
    p.add_argument("--cache-analysis", action="store_true",
                   help="loop-persistence cache analysis (needs --icache)")
    p.set_defaults(func=cmd_wcet)

    p = sub.add_parser("coverage", help="instruction/register coverage")
    common(p)
    p.add_argument("--missed", action="store_true",
                   help="list uncovered instruction types and registers")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("faults", aliases=["fault"],
                       help="fault-injection campaign")
    common(p, with_budget=False)
    p.add_argument("--mutants", type=int, default=100)
    p.add_argument("--seed", type=int, default=0,
                   help="campaign PRNG seed; the same seed always draws "
                        "the same fault list")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes forked after the golden run "
                        "(1 = in-process, 0 = every CPU; never more than "
                        "the CPUs; results are identical)")
    p.add_argument("--no-checkpoints", action="store_true",
                   help="disable warm-checkpoint acceleration for "
                        "transient mutants (classification is identical "
                        "either way)")
    p.add_argument("--digest-interval", type=int, default=None, metavar="K",
                   help="golden-trace digest spacing in instructions for "
                        "early mutant classification (default: "
                        "golden_instructions/256, floor 64)")
    profile_flag(p)
    backend_flags(p, default=None,
                  default_help="compiled, the campaign default")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("mutate", help="mutation-test a self-checking binary")
    common(p, with_budget=False)
    p.add_argument("--sample", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("fuzz", help="coverage-guided fuzzing of the VP")
    p.add_argument("--isa", default="rv32imc_zicsr",
                   help="ISA configuration (default: rv32imc_zicsr)")
    p.add_argument("--iterations", "-n", type=int, default=2000,
                   metavar="N", help="mutant executions to run")
    p.add_argument("--seed", type=int, default=0,
                   help="master PRNG seed; iteration-bounded runs with the "
                        "same seed produce identical corpora for any --jobs")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="batch-evaluation worker processes (1 = "
                        "in-process, 0 = every CPU; never more than the "
                        "CPUs; results are identical)")
    p.add_argument("--seeds", choices=("suites", "trivial"),
                   default="suites",
                   help="seed corpus: the three testgen suites, or a "
                        "single trivial instruction (default: suites)")
    p.add_argument("--batch-size", type=int, default=32, metavar="N",
                   help="mutants drawn per scheduling round")
    p.add_argument("--max-instructions", type=int, default=5000,
                   help="per-execution budget; exhaustion triages as hang")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip corpus input minimization")
    p.add_argument("--time-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock stop; trades the --jobs reproducibility "
                        "guarantee for bounded runtime")
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable result")
    profile_flag(p)
    backend_flags(p)
    telemetry_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("verify",
                       help="differential verification campaign "
                            "(corpus x configuration matrix)")
    p.add_argument("--isa", default="rv32imc_zicsr",
                   help="ISA configuration (default: rv32imc_zicsr)")
    p.add_argument("--corpus", default="suites",
                   help="program corpus: 'suites' (the three testgen "
                        "suites), 'torture:N', 'fuzz:N' (mutated suite "
                        "seeds), or 'file:PATH' (JSONL word lists)")
    p.add_argument("--matrix", default="backends",
                   help="comma-separated axes (backends, cache, icache, "
                        "traces, checkpoint) and/or explicit 'a:b' "
                        "configuration pairs, e.g. interp:compiled "
                        "(default: backends)")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus PRNG seed; the same seed always builds "
                        "the same corpus")
    p.add_argument("--max-instructions", type=int, default=20_000,
                   help="per-run instruction budget (default: 20000)")
    p.add_argument("--repeats", type=int, default=4, metavar="N",
                   help="repeat-loop iterations wrapped around each "
                        "program so JIT tiers engage (default: 4)")
    p.add_argument("--checkpoint-split", type=int, default=200,
                   metavar="N",
                   help="checkpoint axis: snapshot/restore point in "
                        "instructions (default: 200)")
    p.add_argument("--minimize-evals", type=int, default=24, metavar="N",
                   help="lockstep re-runs budgeted per divergence "
                        "minimization (default: 24)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes over program ranges (1 = "
                        "in-process, 0 = every CPU; never more than the "
                        "CPUs; results are identical)")
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable report")
    telemetry_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit generated test programs")
    p.add_argument("kind", choices=("torture", "structured", "arch", "unit"))
    p.add_argument("--isa", default="rv32imc_zicsr")
    p.add_argument("--seed", type=int, default=0,
                   help="generator PRNG seed; the same seed emits a "
                        "byte-identical program")
    p.add_argument("--length", type=int, default=300,
                   help="torture: number of instructions")
    telemetry_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("serve", help="run the batch simulation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8972)
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="worker count (0 = every CPU)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="admission queue capacity (full queue -> HTTP 429)")
    p.add_argument("--mode", choices=("thread", "process"),
                   default="thread",
                   help="worker pool backing (process = spawn-safe "
                        "multiprocessing pool)")
    telemetry_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("coordinator",
                       help="run the cluster coordinator (distributed "
                            "simulation fabric)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8973)
    p.add_argument("--store", metavar="FILE.jsonl", default=None,
                   help="persistent JSONL job store; jobs survive "
                        "coordinator restarts")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="admission queue capacity (full queue -> HTTP 429)")
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="work lease expiry for non-heartbeating nodes")
    p.add_argument("--node-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="heartbeat silence before a node is declared dead "
                        "and its leases re-queued")
    p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                   help="dispatch attempts per work item before the "
                        "owning job fails")
    p.add_argument("--tenant-quota", action="append", metavar="[NAME=]N",
                   help="active-job quota: NAME=N per tenant, bare N as "
                        "the default for all tenants (repeatable)")
    telemetry_flags(p)
    p.set_defaults(func=cmd_coordinator)

    p = sub.add_parser("node",
                       help="run a worker node attached to a coordinator")
    p.add_argument("--coordinator", default="http://127.0.0.1:8973",
                   help="coordinator base URL")
    p.add_argument("--name", default=None,
                   help="node display name (default: auto-assigned)")
    p.add_argument("--capacity", type=int, default=1, metavar="N",
                   help="work items leased per pull")
    p.add_argument("--poll-interval", type=float, default=0.2,
                   metavar="SECONDS", help="idle lease-poll period")
    telemetry_flags(p)
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("cluster-status",
                       help="one-shot cluster snapshot (nodes, work, "
                            "quotas)")
    p.add_argument("--url", default="http://127.0.0.1:8973",
                   help="coordinator base URL")
    p.set_defaults(func=cmd_cluster_status, _no_telemetry_flags=True)

    p = sub.add_parser("submit",
                       help="submit a job to a running batch service")
    p.add_argument("source", help="assembly file, or - for stdin")
    p.add_argument("--url", default="http://127.0.0.1:8972",
                   help="service base URL")
    p.add_argument("--kind", default="vp_run",
                   help="job kind (vp_run, fault_campaign, coverage, "
                        "wcet, fuzz, verify, ...); unknown kinds fail "
                        "fast with the registry listing")
    p.add_argument("--isa", default="rv32imc_zicsr")
    p.add_argument("--corpus", default="suites",
                   help="verify: program corpus spec (source arg is "
                        "ignored; pass -)")
    p.add_argument("--matrix", default="backends",
                   help="verify: configuration matrix spec")
    p.add_argument("--mutants", type=int, default=100,
                   help="fault_campaign: mutant count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=2000, metavar="N",
                   help="fuzz: mutant executions (source arg is ignored; "
                        "pass -)")
    p.add_argument("--fuzz-seeds", choices=("suites", "trivial"),
                   default="suites", help="fuzz: seed corpus kind")
    p.add_argument("--no-checkpoints", action="store_true",
                   help="fault_campaign: disable checkpoint acceleration")
    p.add_argument("--digest-interval", type=int, default=None, metavar="K",
                   help="fault_campaign: golden digest spacing")
    p.add_argument("--backend", default=None, type=_backend_arg,
                   choices=BACKEND_NAMES,
                   help="vp_run/fault_campaign/fuzz: execution backend "
                        "(default: the service's per-kind default, "
                        "compiled for fault_campaign, interp otherwise)")
    p.add_argument("--priority", type=int, default=0,
                   help="larger dispatches sooner")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="cooperative run timeout")
    p.add_argument("--max-retries", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="poll until the job resolves and print the result")
    p.add_argument("--wait-timeout", type=float, default=600.0)
    p.add_argument("--poll-interval", type=float, default=0.5)
    p.add_argument("--trace-out", metavar="FILE.json",
                   help="trace the job end-to-end (submit -> queue -> "
                        "worker -> VP) and export the merged Chrome "
                        "trace; requires --wait")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="split a fault_campaign/fuzz/verify job into N "
                        "shards, the service's only parallelism within a "
                        "job (results stay byte-identical)")
    p.add_argument("--tenant", default=None,
                   help="tenant name for coordinator per-tenant quotas")
    p.set_defaults(func=cmd_submit, _no_telemetry_flags=True)

    p = sub.add_parser("top",
                       help="live terminal view of a batch service")
    p.add_argument("--url", default="http://127.0.0.1:8972",
                   help="service base URL")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS", help="refresh period")
    p.add_argument("--frames", type=int, default=0, metavar="N",
                   help="stop after N refreshes (0 = until interrupted)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.set_defaults(func=cmd_top, _no_telemetry_flags=True)

    p = sub.add_parser("stats",
                       help="re-render a saved telemetry event log")
    p.add_argument("events",
                   help="JSONL event log written by --events-out")
    p.set_defaults(func=cmd_stats, _no_telemetry_flags=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    wants_telemetry = (not getattr(args, "_no_telemetry_flags", False)
                       and (getattr(args, "stats", False)
                            or getattr(args, "events_out", None)
                            or getattr(args, "trace_out", None)))
    if not wants_telemetry:
        try:
            return args.func(args)
        except Exception as exc:  # surfaced as a clean CLI error
            print(f"error: {exc}", file=sys.stderr)
            return 2

    from .telemetry import (export_chrome_trace, render_report,
                            telemetry_session)

    with telemetry_session() as session:
        try:
            code = args.func(args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # Snapshot metrics into the event stream first so a saved JSONL
        # log is self-contained for `repro stats`.
        session.snapshot_metrics()
        if args.stats:
            print("\n=== telemetry ===")
            print(render_report(session.events.events,
                                session.metrics.to_dict(),
                                log_stats=session.events.stats()))
        try:
            if args.events_out:
                session.events.save_jsonl(args.events_out)
                print(f"event log written to {args.events_out}",
                      file=sys.stderr)
            if args.trace_out:
                export_chrome_trace(session.events.events, args.trace_out)
                print(f"Chrome trace written to {args.trace_out} "
                      "(load in chrome://tracing or ui.perfetto.dev)",
                      file=sys.stderr)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
