"""Guest-level profiler for the virtual prototype.

A :class:`SamplingProfiler` is a VP plugin that attributes every block
execution to that translation block's start pc.  Because a block's
instruction list is known at translate time, block counts convert
directly into retired-instruction attribution — a flat PC/TB profile of
the *guest* program, the moral equivalent of ``perf`` for code running
on the VP.

From the counts, :meth:`SamplingProfiler.profile` builds a
:class:`Profile` against the program image:

* **hot-block ranking** — blocks by estimated instructions,
* **per-function aggregation** — each block attributed to the nearest
  preceding symbol in the program's symbol table,
* **annotated disassembly** — the hot path listed instruction by
  instruction with sample weight,
* **collapsed-stack export** — ``function;block_0xPC count`` lines,
  the folded format every flamegraph renderer ingests.

Exposed as ``repro profile`` and the ``--profile-out`` flag on VP,
fault-campaign, and fuzz runs.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Optional, Tuple

from ..vp.plugins import Plugin

__all__ = ["SamplingProfiler", "Profile"]


def _tier_of(block) -> str:
    """Execution-tier label for a block, as last observed.

    Trace heads and members are labelled ``trace`` (their instructions
    retire inside the multi-block trace function), other compiled
    blocks ``compiled``, everything else ``interp``.
    """
    if block.trace is not None or block.trace_member:
        return "trace"
    if block.compiled is not None:
        return "compiled"
    return "interp"


class SamplingProfiler(Plugin):
    """Counts every block execution, exactly, with no per-block hook.

    Every tier already maintains ``TranslationBlock.exec_count`` on its
    hot path, so the profiler harvests those counters.
    ``Machine.add_plugin`` flushes the translation cache on attach, so
    every block this profiler can observe is retranslated through
    ``on_block_translate``; it tracks the block objects there and folds
    their ``exec_count`` deltas in on demand, and before a cache flush
    discards them.  Fused loops and traces keep running under it.
    """

    name = "profiler"

    def __init__(self) -> None:
        #: start_pc -> block executions.
        self.samples: Dict[int, int] = {}
        #: start_pc -> (pcs, decoded list) captured at translate time.
        self._blocks: Dict[int, Tuple[tuple, tuple]] = {}
        #: start_pc -> execution tier ("interp" / "compiled" / "trace"),
        #: as last observed.  A block can graduate mid-run once the
        #: compiled backend's thresholds trip; the final observation
        #: wins.
        self._tiers: Dict[int, str] = {}
        #: start_pc -> [block, exec_count already folded into samples].
        self._tracked: Dict[int, list] = {}

    # -- hooks ----------------------------------------------------------

    def on_block_translate(self, cpu, block) -> None:
        self._blocks[block.start_pc] = (tuple(block.pcs),
                                        tuple(block.insns))
        stale = self._tracked.get(block.start_pc)
        if stale is not None:
            self._harvest(stale)
        self._tracked[block.start_pc] = [block, block.exec_count]

    def on_tb_flush(self, cpu) -> None:
        # Flushed blocks never execute again; bank their counts.
        self._sync()
        self._tracked.clear()

    def _harvest(self, entry) -> None:
        block, folded = entry
        delta = block.exec_count - folded
        if delta:
            pc = block.start_pc
            self.samples[pc] = self.samples.get(pc, 0) + delta
            entry[1] = block.exec_count
            self._tiers[pc] = _tier_of(block)

    def _sync(self) -> None:
        for entry in self._tracked.values():
            self._harvest(entry)

    # -- results --------------------------------------------------------

    @property
    def total_samples(self) -> int:
        self._sync()
        return sum(self.samples.values())

    def reset(self) -> None:
        self.samples.clear()
        for entry in self._tracked.values():
            entry[1] = entry[0].exec_count

    def profile(self, program=None, isa=None) -> "Profile":
        """Build the :class:`Profile` for the executions counted so far.

        ``program`` (a :class:`repro.asm.Program`) supplies the symbol
        table for per-function aggregation; without it, functions fall
        back to hex block addresses.  ``isa`` enables the annotated
        disassembly listing.
        """
        self._sync()
        blocks = []
        for pc, count in self.samples.items():
            pcs, insns = self._blocks.get(pc, ((), ()))
            blocks.append({
                "start_pc": pc,
                "samples": count,
                "block_insns": len(pcs),
                "est_instructions": count * max(len(pcs), 1),
                "tier": self._tiers.get(pc, "interp"),
            })
        return Profile(blocks=blocks, block_details=self._blocks,
                       program=program, isa=isa)


def _symbol_index(program) -> Tuple[List[int], List[str]]:
    if program is None or not getattr(program, "symbols", None):
        return [], []
    pairs = sorted((addr, name) for name, addr in program.symbols.items())
    return [addr for addr, _ in pairs], [name for _, name in pairs]


class Profile:
    """A finished flat profile: ranked blocks, functions, exports."""

    def __init__(self, blocks: List[Dict],
                 block_details: Optional[Dict] = None,
                 program=None, isa=None) -> None:
        self.blocks = sorted(blocks, key=lambda b: (-b["est_instructions"],
                                                    b["start_pc"]))
        self._details = block_details or {}
        self._program = program
        self._isa = isa
        self._addrs, self._names = _symbol_index(program)

    # -- attribution ----------------------------------------------------

    def function_of(self, pc: int) -> str:
        """The nearest preceding symbol, or the hex address."""
        index = bisect.bisect_right(self._addrs, pc) - 1
        if index < 0:
            return f"{pc:#x}"
        return self._names[index]

    @property
    def total_samples(self) -> int:
        return sum(b["samples"] for b in self.blocks)

    @property
    def total_est_instructions(self) -> int:
        return sum(b["est_instructions"] for b in self.blocks)

    def tier_totals(self) -> Dict[str, int]:
        """Estimated instructions per execution tier.

        Blocks recorded before the tier field existed (or fed in from an
        external source) count as ``interp``.
        """
        totals: Dict[str, int] = {}
        for block in self.blocks:
            tier = block.get("tier", "interp")
            totals[tier] = totals.get(tier, 0) + block["est_instructions"]
        return totals

    def hot_blocks(self, limit: int = 10) -> List[Dict]:
        """The ranking, each entry annotated with its function."""
        total = self.total_est_instructions or 1
        ranked = []
        for block in self.blocks[:limit]:
            entry = dict(block)
            entry["function"] = self.function_of(block["start_pc"])
            entry["fraction"] = block["est_instructions"] / total
            ranked.append(entry)
        return ranked

    def functions(self) -> List[Dict]:
        """Per-function aggregation, sorted hottest first."""
        table: Dict[str, Dict] = {}
        for block in self.blocks:
            name = self.function_of(block["start_pc"])
            entry = table.setdefault(
                name, {"function": name, "samples": 0,
                       "est_instructions": 0, "blocks": 0})
            entry["samples"] += block["samples"]
            entry["est_instructions"] += block["est_instructions"]
            entry["blocks"] += 1
        total = self.total_est_instructions or 1
        rows = sorted(table.values(),
                      key=lambda r: (-r["est_instructions"], r["function"]))
        for row in rows:
            row["fraction"] = row["est_instructions"] / total
        return rows

    # -- renderings -----------------------------------------------------

    def render(self, limit: int = 10) -> str:
        """The ``repro profile`` report: functions, then hot blocks."""
        lines = [f"samples: {self.total_samples:,}  (est. "
                 f"{self.total_est_instructions:,} instructions)"]
        totals = self.tier_totals()
        if totals.get("compiled"):
            grand = self.total_est_instructions or 1
            parts = ", ".join(
                f"{tier} {count:,} ({count / grand:.1%})"
                for tier, count in sorted(totals.items(),
                                          key=lambda item: -item[1]))
            lines.append(f"tiers: {parts}")
        lines.append("")
        header = f"{'function':<24} {'est insns':>12} {'share':>7} {'blocks':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.functions()[:limit]:
            lines.append(f"{row['function']:<24} "
                         f"{row['est_instructions']:>12,} "
                         f"{row['fraction']:>6.1%} {row['blocks']:>7}")
        lines.append("")
        header = (f"{'block':>10} {'function':<20} {'samples':>10} "
                  f"{'est insns':>12} {'share':>7} {'tier':<8}")
        lines.append(header)
        lines.append("-" * len(header))
        for block in self.hot_blocks(limit):
            lines.append(f"{block['start_pc']:>#10x} "
                         f"{block['function']:<20} {block['samples']:>10,} "
                         f"{block['est_instructions']:>12,} "
                         f"{block['fraction']:>6.1%} "
                         f"{block.get('tier', 'interp'):<8}")
        return "\n".join(lines)

    def annotated_disasm(self, limit: int = 3) -> str:
        """The hot path: disassembly of the top blocks, sample-weighted."""
        if self._isa is None:
            return "(no ISA configured — annotated listing unavailable)"
        from ..isa.disasm import disassemble

        sections = []
        for block in self.hot_blocks(limit):
            pc = block["start_pc"]
            pcs, insns = self._details.get(pc, ((), ()))
            lines = [f"block {pc:#010x} <{block['function']}> — "
                     f"{block['samples']:,} samples, "
                     f"{block['fraction']:.1%} of estimated instructions"]
            for insn_pc, decoded in zip(pcs, insns):
                lines.append(f"  {insn_pc:08x}:  "
                             f"{disassemble(decoded, pc=insn_pc)}")
            sections.append("\n".join(lines))
        return "\n\n".join(sections) if sections else "(no samples)"

    def collapsed(self) -> str:
        """Folded-stack lines (``function;block_0xPC weight``), hottest
        first — feed straight into any flamegraph renderer."""
        lines = []
        for block in self.hot_blocks(limit=len(self.blocks)):
            lines.append(f"{block['function']};block_{block['start_pc']:#x} "
                         f"{block['est_instructions']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def save_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed())

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format": "repro-profile-v1",
            "total_samples": self.total_samples,
            "total_est_instructions": self.total_est_instructions,
            "tiers": self.tier_totals(),
            "functions": self.functions(),
            "blocks": self.hot_blocks(limit=len(self.blocks)),
        }

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
