"""Checkpoint engine for transient-fault campaigns.

Three cooperating mechanisms make per-mutant cost proportional to the
*divergent suffix* of the program instead of its whole length:

1. **Trigger-sorted warm checkpoints.**  One golden machine is
   fast-forwarded monotonically through the sorted fault trigger points
   (never restarting from reset); a snapshot is taken at each point, and
   every transient mutant starts from its trigger's snapshot with the bit
   flip applied immediately — the fault-free prefix ``[0, trigger)`` is
   executed once per campaign, not once per mutant.

2. **Dirty-page delta snapshots.**  Checkpoints along the golden timeline
   are RAM deltas chained to their predecessor (see
   :meth:`repro.vp.machine.Machine.snapshot`), and restores rewrite only
   the pages that can differ — O(pages touched), not O(RAM).

3. **Golden-trace early classification.**  During the golden pass the
   engine records a full architectural digest (pc, GPRs, FPRs, CSRs
   including cycle/instret, device state, and a hash of every page
   written since reset) at the first block boundary on or after every
   ``digest_interval`` retired instructions, keyed by the retired count
   at that boundary.  A mutant that reaches a block boundary with the
   same retired count and the same digest has re-converged with the
   golden timeline and is classified ``masked`` on the spot: the
   remainder of its execution is deterministic and identical to the
   golden run, so its final result *is* the golden result.

Equivalence contract: classifications are byte-identical to full-replay
runs.

* Exact budgets position triggers.  A trigger counts retired
  instructions; the sweep stops the golden machine on it with
  ``run(max_instructions=trigger, resume=True)``, which is exact in every
  tier (the block it ends in runs only its prefix), just as a mutant
  without checkpoints runs to its trigger
  (:func:`~repro.faultsim.injector.run_transient`).
* Block-boundary digests keyed by retired instructions detect
  re-convergence.  Both sides go through an instruction-count watch in
  the run loop (:meth:`~repro.vp.backends.ExecutionBackend.set_watch`),
  not a plugin: the loop pauses at the first block boundary at or after
  each digest key, where the golden sweep records a digest and a mutant
  compares with it.  No campaign run attaches a plugin, so the sweep and
  the mutants keep every compiled shape, traces and fused loops
  included.  The digest compares complete architectural state plus
  every page either timeline has written, so a match implies the
  mutant's future equals the golden future wherever the check runs.
* Moving a check changes only speed.  Block boundaries after a resume
  point can differ from the golden sweep's until the next control-flow
  instruction, so a mutant may exit early later or not at all, but a
  match is sound at any block boundary and a miss just runs to the end.

Resumed runs account instructions/cycles exactly like uninterrupted ones
(:meth:`Machine.run` with ``resume=True``).  The engine refuses machines
with an icache — its per-block fetch penalties depend on
translation-block partitioning, which a mid-block resume point perturbs.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..vp.cpu import RunResult, STOP_EXIT, STOP_REQUESTED, StopRun
from ..vp.machine import Machine, MachineSnapshot
from .faults import Fault, TRANSIENT
from .injector import apply_transient_flip

#: Stop recording memory digests once the cumulative written-page set
#: exceeds this many pages: hashing becomes a per-digest cost comparable
#: to just running the instructions, and early exits stop paying off.
DIGEST_PAGE_LIMIT = 1024

#: Next-check sentinel once no golden digest lies ahead.
_NEVER = float("inf")


@dataclass
class Checkpoint:
    """Warm golden-timeline state at one trigger point.

    ``dirty_cum`` is the set of RAM pages written at least once between
    reset and this point — the only pages whose contents can differ from
    the load image, and therefore the only pages a state digest needs to
    hash.
    """

    trigger: int
    snapshot: MachineSnapshot
    dirty_cum: FrozenSet[int]


class CheckpointEngine:
    """Owns the golden machine, its checkpoint chain, and the digests.

    ``stats`` (keys in :data:`STAT_KEYS`) feed the
    ``faultsim.checkpoint.*`` telemetry counters.

    Build it with a freshly loaded machine, call :meth:`prepare` with the
    campaign's distinct transient triggers, then :meth:`run_transient`
    per fault.  The machine is shared — between mutant runs its state is
    whatever the last run left behind, and every positioning restores a
    stored checkpoint (cheap: delta-chain restore).
    """

    STAT_KEYS = ("snapshots", "restores", "pages_copied",
                 "instructions_skipped", "early_exits")

    def __init__(self, machine: Machine, golden_exit_code: int,
                 golden_instructions: int,
                 digest_interval: Optional[int] = None) -> None:
        if machine.cpu.icache is not None:
            raise ValueError(
                "checkpointing is incompatible with an icache model: "
                "fetch penalties depend on translation-block partitioning, "
                "which a mid-block resume point changes"
            )
        self.machine = machine
        self.golden_exit_code = golden_exit_code
        self.golden_instructions = golden_instructions
        if digest_interval is None:
            digest_interval = max(64, golden_instructions // 256)
        if digest_interval < 1:
            raise ValueError(
                f"digest_interval must be >= 1, got {digest_interval}")
        self.digest_interval = digest_interval
        self._checkpoints: Dict[int, Checkpoint] = {}
        self._sorted_triggers: List[int] = []
        #: Golden digests keyed by the retired count at the block
        #: boundary they were taken at, and those keys in ascending order.
        self._digests: Dict[int, tuple] = {}
        self._digest_keys: List[int] = []
        #: Retired count from which the next golden block boundary
        #: records a digest (infinity once recording stopped).  Only ever
        #: grows, so a re-forwarded stretch of the golden timeline is not
        #: hashed twice.
        self._next_digest: float = digest_interval
        #: Retired count the machine currently sits at on the *golden*
        #: timeline, or None when the state is mutant-polluted.
        self._positioned: Optional[int] = None
        self._golden_complete = False
        self.stats = {key: 0 for key in self.STAT_KEYS}
        self._dirty_cum_base: FrozenSet[int] = frozenset()
        # Root of the chain: full snapshot of the freshly loaded machine.
        base = machine.snapshot()
        self._store(Checkpoint(0, base, frozenset()))
        self.base_snapshot = base
        self._positioned = 0

    def invalidate_position(self) -> None:
        """Forget where the machine sits: callers that mutate the shared
        machine outside the engine (e.g. code-fault patches) must call
        this so the next positioning restores instead of trusting state."""
        self._positioned = None

    def _restore_snapshot(self, snapshot, trigger: int) -> None:
        """Restore one stored snapshot with stats + telemetry accounting.

        Emits a ``checkpoint.restore`` span (free when telemetry is
        disabled) so traced service jobs show each warm restore as a
        slice in the exported Chrome trace.
        """
        from ..telemetry.session import current_telemetry

        events = current_telemetry().events
        with events.span("checkpoint.restore", trigger=trigger):
            pages = self.machine.restore(snapshot)
        self.stats["pages_copied"] += pages
        self.stats["restores"] += 1

    # -- golden-side machinery -----------------------------------------

    def _store(self, checkpoint: Checkpoint) -> None:
        self._checkpoints[checkpoint.trigger] = checkpoint
        i = bisect_right(self._sorted_triggers, checkpoint.trigger)
        self._sorted_triggers.insert(i, checkpoint.trigger)
        self.stats["snapshots"] += 1
        if checkpoint.snapshot.ram_pages is not None:
            self.stats["pages_copied"] += len(checkpoint.snapshot.ram_pages)

    def _record_digest(self, key: float) -> float:
        """The golden sweep's watch: record a digest keyed by the retired
        count at this block boundary (at or past ``key``) and return the
        next key."""
        retired = self.machine.cpu.csrs.instret
        cum = self._dirty_cum_base | self.machine.ram.dirty_pages()
        if len(cum) > DIGEST_PAGE_LIMIT:
            self._next_digest = _NEVER
            return _NEVER
        self._digests[retired] = self._state_tuple(tuple(sorted(cum)))
        self._digest_keys.append(retired)
        interval = self.digest_interval
        self._next_digest = (retired // interval + 1) * interval
        return self._next_digest

    def _matches(self, retired: int, cum_base: FrozenSet[int]) -> bool:
        """Whether the machine's state equals the golden digest keyed by
        ``retired``.  The pc and GPRs (the first two fields of
        :meth:`_state_tuple`) are compared first: a diverged mutant
        usually differs there, and they cost no page hashing."""
        expected = self._digests[retired]
        cpu = self.machine.cpu
        if cpu.pc != expected[0] or cpu.regs.snapshot() != expected[1]:
            return False
        cum = cum_base | self.machine.ram.dirty_pages()
        return self._state_tuple(tuple(sorted(cum))) == expected

    def _digest_after(self, retired: int) -> float:
        """The smallest digest key above ``retired`` (infinity if none)."""
        keys = self._digest_keys
        i = bisect_right(keys, retired)
        return keys[i] if i < len(keys) else _NEVER

    def _state_tuple(self, cum_sorted: Tuple[int, ...]) -> tuple:
        """Complete architectural state, with memory reduced to a hash of
        the pages either timeline has written (all other pages still hold
        the load image in both, by construction)."""
        machine = self.machine
        cpu = machine.cpu
        csrs = cpu.csrs
        digest = hashlib.blake2b(digest_size=16)
        page_bytes = machine.ram.page_bytes
        for index in cum_sorted:
            digest.update(page_bytes(index))
        return (
            cpu.pc,
            cpu.regs.snapshot(),
            cpu.fregs.snapshot(),
            tuple(sorted(csrs._regs.items())),
            csrs.cycle,
            csrs.instret,
            csrs.instret_offset,
            (machine.clint.mtime, machine.clint.mtimecmp, machine.clint.msip),
            (bytes(machine.uart.tx_log), tuple(machine.uart._rx_queue),
             machine.uart.interrupt_enable),
            (machine.gpio.out, machine.gpio.inputs,
             tuple(machine.gpio.out_history)),
            machine.exit_device.value,
            cum_sorted,
            digest.digest(),
        )

    def _nearest_at_or_below(self, trigger: int) -> Checkpoint:
        i = bisect_right(self._sorted_triggers, trigger) - 1
        return self._checkpoints[self._sorted_triggers[i]]

    def _position(self, trigger: int
                  ) -> Tuple[Optional[FrozenSet[int]], int]:
        """Put the machine at golden retired count ``trigger``.

        Returns ``(cumulative written-page set, instructions executed to
        get there)`` — zero when a stored checkpoint restored warm; the
        set is ``None`` when the golden run exits first.  Stores a
        checkpoint at new triggers so duplicates restore warm.  The
        golden machine runs on an exact budget and records digests
        through the run-loop watch.
        """
        checkpoint = self._checkpoints.get(trigger)
        if checkpoint is not None:
            if self._positioned != trigger:
                self._restore_snapshot(checkpoint.snapshot, trigger)
                self._positioned = trigger
            return checkpoint.dirty_cum, 0
        if self._golden_complete and trigger > self.golden_instructions:
            return None, 0
        ancestor = self._nearest_at_or_below(trigger)
        if self._positioned != ancestor.trigger:
            self._restore_snapshot(ancestor.snapshot, ancestor.trigger)
        self._dirty_cum_base = ancestor.dirty_cum
        machine = self.machine
        instret_before = machine.cpu.csrs.instret
        backend = machine.cpu.backend
        backend.set_watch(self._record_digest, self._next_digest)
        try:
            result = machine.run(max_instructions=trigger, resume=True)
        finally:
            backend.set_watch()
        forwarded = machine.cpu.csrs.instret - instret_before
        if result.stop_reason == STOP_EXIT:
            # Golden exited before the trigger: the whole run is now
            # digest-covered and the trigger is unreachable.
            self._golden_complete = True
            self._positioned = None
            return None, forwarded
        cum = frozenset(ancestor.dirty_cum | machine.ram.dirty_pages())
        snap = machine.snapshot(parent=ancestor.snapshot)
        self._store(Checkpoint(trigger, snap, cum))
        self._positioned = trigger
        return cum, forwarded

    def prepare(self, triggers: Sequence[int], budget: int) -> None:
        """Sweep the golden machine once through ``triggers`` (sorted),
        snapshotting each, then on to program exit recording digests.

        Incremental: later calls with new triggers restore the nearest
        stored checkpoint at or below each and fast-forward the gap; the
        monotonic digest threshold keeps already-recorded ranges
        hash-free.  A trigger past the golden run's instruction count
        never fires and gets no checkpoint.
        """
        for trigger in sorted(set(triggers)):
            if (trigger not in self._checkpoints
                    and trigger <= self.golden_instructions):
                self._position(trigger)
        if not self._golden_complete:
            # Tail: run the golden timeline to exit so digests cover the
            # whole program (needed for early classification anywhere).
            if self._position(budget)[0] is not None:
                raise ValueError("golden replay did not terminate normally")

    # -- mutant-side machinery -----------------------------------------

    def run_transient(self, fault: Fault, budget: int
                      ) -> Tuple[Optional[RunResult], bool]:
        """Simulate one transient mutant from its trigger's checkpoint.

        Returns ``(run_result, early)``.  ``early`` means the mutant
        re-converged with the golden timeline (or its trigger lies beyond
        program exit): the caller classifies it masked with the golden
        exit code and instruction count, no further simulation needed.
        """
        if fault.kind != TRANSIENT:
            raise ValueError("checkpoint engine only runs transient faults")
        if not self._golden_complete:
            self.prepare([fault.trigger], budget)
        cum_base, forwarded = self._position(fault.trigger)
        if cum_base is None:
            # The flip would fire after the program exited: it never
            # fires, so the mutant *is* the golden run.
            self.stats["early_exits"] += 1
            self.stats["instructions_skipped"] += self.golden_instructions
            return None, True
        machine = self.machine
        # Prefix instructions this mutant did NOT re-execute thanks to the
        # warm start (minus any fast-forward gap just filled).
        self.stats["instructions_skipped"] += max(
            0, machine.cpu.csrs.instret - forwarded)
        self._positioned = None  # the flip pollutes the golden timeline
        cpu = machine.cpu
        apply_transient_flip(cpu, fault)

        def check(key):
            """Stop on a match with the golden digest keyed ``key``;
            otherwise wait for the next key."""
            retired = cpu.csrs.instret
            if retired == key and self._matches(retired, cum_base):
                raise StopRun
            return self._digest_after(retired)

        backend = cpu.backend
        backend.set_watch(check, self._digest_after(cpu.csrs.instret))
        try:
            result = machine.run(max_instructions=budget, resume=True)
        finally:
            backend.set_watch()
        if result.stop_reason == STOP_REQUESTED:
            self.stats["early_exits"] += 1
            self.stats["instructions_skipped"] += max(
                0, self.golden_instructions - cpu.csrs.instret)
            return None, True
        return result, False
