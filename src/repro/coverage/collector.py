"""Coverage collection on the virtual prototype.

:class:`CoveragePlugin` works per translation block, as QEMU's TCG
plugins do, so compiled code keeps running under it.  Per-byte data
addresses need a memory hook, which keeps every block interpreted; only
:func:`measure_coverage` attaches one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..asm import Program
from ..isa.csr import INTERRUPT_BIT
from ..isa.decoder import IsaConfig
from ..telemetry.session import resolve as _resolve_telemetry
from ..vp.cpu import STOP_EXIT
from ..vp.machine import Machine, MachineConfig, STOP_UNHANDLED_TRAP
from ..vp.plugins import Plugin
from .access import access_of
from .report import CoverageReport, empty_report

#: Size of the hashed edge space.  Like AFL's 64 KiB bitmap, hashing
#: (src, dst) block pairs into a fixed space bounds signature size on
#: programs with huge dynamic CFGs while keeping collisions rare for the
#: small programs the fuzzer grows.
EDGE_MAP_SIZE = 1 << 16

#: Blocks whose folded prefix :class:`CoveragePlugin` remembers before it
#: forgets them all, which costs a refold, never a result.
_FOLDED_MAX_BLOCKS = 4096


def edge_id(src_pc: int, dst_pc: int) -> int:
    """Deterministic hash of a translation-block edge into the edge map.

    Uses only the two block start pcs (no process-specific state), so the
    id is stable across runs, processes, and platforms.
    """
    return (((src_pc >> 1) * 33) ^ (dst_pc >> 1)) & (EDGE_MAP_SIZE - 1)


def coverage_signature(report: CoverageReport,
                       tb_edges: Iterable[int] = ()) -> frozenset:
    """A stable, hashable signature of *what* a run covered.

    The signature is a frozenset of tagged tuples — ``("insn", name)`` for
    every executed instruction type, ``("gpr", n)`` / ``("fpr", n)`` /
    ``("csr", addr)`` for every accessed register, and ``("edge", e)`` for
    every translation-block edge id in ``tb_edges`` (see
    :func:`edge_id`).  Two runs with the same signature covered
    the same instruction types, registers, and control-flow edges, so the
    signature is the unit of deduplication shared by the coverage-guided
    fuzzer's corpus and any future coverage dedup.  Set semantics make it
    order-independent and therefore stable across runs and processes.
    """
    elements = set()
    for name in report.insn_types:
        elements.add(("insn", name))
    for reg in report.gprs_accessed:
        elements.add(("gpr", reg))
    for reg in report.fprs_accessed:
        elements.add(("fpr", reg))
    for csr in report.csrs_accessed:
        elements.add(("csr", csr))
    for edge in tb_edges:
        elements.add(("edge", edge))
    return frozenset(elements)


class CoveragePlugin(Plugin):
    """Records executed instruction types, register and CSR accesses and
    translation-block edges, one block at a time.

    ``on_block_exec`` notes the block, its edge from the previous block
    and ``csrs.instret``; the next block, a trap or :meth:`finish`
    closes it.  Each block adds the instruction types and the accesses
    (:mod:`repro.coverage.access`) of the longest prefix it retired; an
    instruction that trapped or ended the run adds its type and what it
    accessed before it stopped.  Call :meth:`finish` with each run's
    result before reading the sets, and :meth:`reset` between programs.
    """

    name = "coverage"
    #: The :class:`CoverageReport` sets this plugin collects.
    _SETS = ("insn_types", "gprs_read", "gprs_written", "fprs_read",
             "fprs_written", "csrs_accessed")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything collected."""
        for name in self._SETS:
            setattr(self, name, set())
        #: Translation-block edge ids (:func:`edge_id`).
        self.edges = set()
        #: block -> instructions of it already folded into the sets.
        self._folded: Dict[object, int] = {}
        self._block = None
        self._instret = 0
        self._prev_pc: Optional[int] = None

    def on_block_exec(self, cpu, block) -> None:
        self._close(cpu, False)
        pc = block.start_pc
        if self._prev_pc is not None:
            self.edges.add(edge_id(self._prev_pc, pc))
        self._prev_pc = pc
        self._block = block
        self._instret = cpu.csrs.instret

    def on_trap(self, cpu, cause, pc) -> None:
        self._close(cpu, not cause & INTERRUPT_BIT)

    def finish(self, cpu, result) -> None:
        """Close the block a run ended in; ``result`` is the run's
        :class:`~repro.vp.cpu.RunResult`.  An exit or an unhandled trap
        stopped the instruction after the block's retired prefix."""
        self._close(cpu, result.stop_reason in (STOP_EXIT,
                                                STOP_UNHANDLED_TRAP))

    def _close(self, cpu, stopped: bool) -> None:
        """Fold the open block's retired prefix in, plus the instruction
        after it when a synchronous trap or an exit ``stopped`` it."""
        block, self._block = self._block, None
        if block is None:
            return
        retired = cpu.csrs.instret - self._instret
        insns = block.insns
        folded = self._folded.get(block, 0)
        if retired > folded:
            if len(self._folded) >= _FOLDED_MAX_BLOCKS:
                self._folded.clear()
            self._folded[block] = retired
            for decoded in insns[folded:retired]:
                self._add(decoded, access_of(decoded)[0])
        if stopped and retired < len(insns):
            self._add(insns[retired], access_of(insns[retired])[1])

    def _add(self, decoded, access) -> None:
        self.insn_types.add(decoded.spec.name)
        self.gprs_read |= access.gpr_reads
        self.gprs_written |= access.gpr_writes
        self.fprs_read |= access.fpr_reads
        self.fprs_written |= access.fpr_writes
        self.csrs_accessed |= access.csr_reads | access.csr_writes

    def fill(self, report: CoverageReport) -> CoverageReport:
        """Set ``report``'s sets to the ones collected; returns it."""
        for name in self._SETS:
            setattr(report, name, getattr(self, name))
        return report


class _AddressCoveragePlugin(CoveragePlugin):
    """:class:`CoveragePlugin` plus the per-byte data addresses."""

    _SETS = CoveragePlugin._SETS + ("mem_read_addrs", "mem_written_addrs")

    def on_mem_access(self, cpu, addr, width, value, is_store) -> None:
        target = self.mem_written_addrs if is_store else self.mem_read_addrs
        for offset in range(width):
            target.add(addr + offset)


def measure_coverage(
    program: Program,
    isa: Optional[IsaConfig] = None,
    max_instructions: int = 1_000_000,
    machine: Optional[Machine] = None,
    telemetry=None,
) -> CoverageReport:
    """Run ``program`` on the VP and return its coverage report.

    A pre-configured ``machine`` may be supplied; otherwise one is
    created from ``isa``.  When the resolved ``telemetry`` session is
    enabled, the collection cost is recorded under
    ``coverage.collector.*`` and a ``coverage.collected`` event is
    emitted.
    """
    telemetry = _resolve_telemetry(telemetry)
    metrics = telemetry.metrics.namespace("coverage.collector")
    isa = isa or (machine.config.isa if machine else
                  IsaConfig.from_string(program.isa_name))
    if machine is None:
        machine = Machine(MachineConfig(isa=isa))
    machine.load(program)
    plugin = _AddressCoveragePlugin()
    machine.add_plugin(plugin)
    run_result = None
    try:
        with metrics.timer("run_seconds"), \
                telemetry.events.span("coverage.collected", isa=isa.name):
            run_result = machine.run(max_instructions=max_instructions)
    finally:
        machine.remove_plugin(plugin)
        metrics.counter("runs").inc()
        if run_result is not None:
            metrics.counter("instructions").inc(run_result.instructions)
    plugin.finish(machine.cpu, run_result)
    return plugin.fill(empty_report(isa))


def measure_suite(
    programs: Iterable[Tuple[str, Program]],
    isa: Optional[IsaConfig] = None,
    max_instructions: int = 1_000_000,
) -> "SuiteCoverage":
    """Measure each program and the union coverage of the whole suite."""
    named = list(programs)
    if not named:
        raise ValueError("suite is empty")
    if isa is None:
        isa = IsaConfig.from_string(named[0][1].isa_name)
    reports: List[Tuple[str, CoverageReport]] = []
    union = empty_report(isa)
    for name, program in named:
        report = measure_coverage(program, isa=isa,
                                  max_instructions=max_instructions)
        reports.append((name, report))
        union = union | report
    return SuiteCoverage(isa_name=isa.name, reports=reports, union=union)


class SuiteCoverage:
    """Per-program coverage plus the suite union, with a table renderer."""

    def __init__(self, isa_name: str,
                 reports: Sequence[Tuple[str, CoverageReport]],
                 union: CoverageReport) -> None:
        self.isa_name = isa_name
        self.reports = list(reports)
        self.union = union

    def table(self) -> str:
        """The suite-comparison table of the coverage paper."""
        header = (f"{'suite':<18} {'insn types':>12} {'GPR':>8} "
                  f"{'FPR':>8} {'CSR':>8}")
        rows = [header, "-" * len(header)]
        entries = self.reports + [("combined", self.union)]
        for name, report in entries:
            rows.append(
                f"{name:<18} {report.insn_coverage:>11.1%} "
                f"{report.gpr_coverage:>7.1%} "
                f"{report.fpr_coverage:>7.1%} "
                f"{report.csr_coverage:>7.1%}"
            )
        return "\n".join(rows)
