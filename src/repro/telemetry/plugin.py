"""VP instrumentation plugin feeding the telemetry layer.

Built on the version-independent plugin API (``repro.vp.plugins``), the
same interface QTA and the coverage collector use — telemetry is just
another observer and costs nothing when not attached.  Collects:

* retired instructions, cycles, wall time, and MIPS,
* translation-cache behaviour (hits, misses, flushes, hit rate,
  blocks translated),
* trap and interrupt counts (split by the mcause interrupt bit),
* guest load and store counts.

Counts the CPU keeps (instructions, cycles, TB hits and misses, loads
and stores) are read as deltas when a run finishes: the plugin hooks no
block and no memory access, so compiled code keeps running under it.

All instruments live under the ``vp.`` namespace of the session's
metrics registry; a ``vp.run`` summary event is emitted on machine exit.
"""

from __future__ import annotations

import time

from ..isa.csr import INTERRUPT_BIT
from ..vp.plugins import Plugin
from .session import resolve

__all__ = ["TelemetryPlugin"]


def _counters(cpu) -> tuple:
    """Retired instructions, cycles, TB hits and misses, loads, stores."""
    return (cpu.csrs.instret, cpu.csrs.cycle, cpu.tb_hits, cpu.tb_misses,
            cpu.mem_fast_loads + cpu.mem_bus_loads,
            cpu.mem_fast_stores + cpu.mem_bus_stores)


class TelemetryPlugin(Plugin):
    """Collects emulator throughput and cache statistics into telemetry."""

    name = "telemetry"

    def __init__(self, telemetry=None) -> None:
        self.telemetry = resolve(telemetry)
        metrics = self.telemetry.metrics.namespace("vp")
        self._blocks_translated = metrics.counter("tb.translated")
        self._flushes = metrics.counter("tb.flushes")
        self._traps = metrics.counter("cpu.traps")
        self._interrupts = metrics.counter("cpu.interrupts")
        self._loads = metrics.counter("mem.loads")
        self._stores = metrics.counter("mem.stores")
        self._metrics = metrics
        self._cpu = None
        self._start_wall = None
        self._start: tuple = ()
        self._finished = False

    # -- hook implementations ------------------------------------------

    def on_attach(self, machine) -> None:
        self._cpu = machine.cpu
        self._start_wall = time.perf_counter()
        self._start = _counters(machine.cpu)
        self._finished = False

    def on_block_translate(self, cpu, block) -> None:
        self._blocks_translated.inc()

    def on_trap(self, cpu, cause, pc) -> None:
        if cause & INTERRUPT_BIT:
            self._interrupts.inc()
        else:
            self._traps.inc()

    def on_tb_flush(self, cpu) -> None:
        self._flushes.inc()

    def on_exit(self, code) -> None:
        self.finish(exit_code=code)

    # -- summary --------------------------------------------------------

    def finish(self, exit_code=None) -> dict:
        """Fold final CPU counters into metrics; emit a ``vp.run`` event.

        Called automatically when a machine run ends (every stop reason
        fires the exit hooks); idempotent until the plugin is re-attached.
        """
        cpu = self._cpu
        if cpu is None or self._finished:
            return {}
        self._finished = True
        wall = time.perf_counter() - (self._start_wall or time.perf_counter())
        instructions, cycles, tb_hits, tb_misses, loads, stores = (
            now - start for now, start in zip(_counters(cpu), self._start))
        mips = instructions / wall / 1e6 if wall > 0 else 0.0
        metrics = self._metrics
        metrics.counter("cpu.insns_retired").inc(instructions)
        metrics.counter("cpu.cycles").inc(cycles)
        metrics.gauge("cpu.mips").set(mips)
        metrics.counter("tb.hits").inc(tb_hits)
        metrics.counter("tb.misses").inc(tb_misses)
        lookups = tb_hits + tb_misses
        hit_rate = tb_hits / lookups if lookups else 0.0
        metrics.gauge("tb.hit_rate").set(hit_rate)
        self._loads.inc(loads)
        self._stores.inc(stores)
        summary = {
            "instructions": instructions,
            "cycles": cycles,
            "wall_seconds": round(wall, 6),
            "mips": round(mips, 3),
            "tb_hits": tb_hits,
            "tb_misses": tb_misses,
            "tb_hit_rate": round(hit_rate, 4),
            "tb_flushes": getattr(cpu, "tb_flushes", 0),
            "traps": self._traps.value,
            "interrupts": self._interrupts.value,
            "loads": self._loads.value,
            "stores": self._stores.value,
        }
        if exit_code is not None:
            summary["exit_code"] = exit_code
        self.telemetry.events.emit("vp.run", **summary)
        return summary
