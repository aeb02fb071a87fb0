"""Version-independent plugin API for the virtual prototype.

This mirrors the role of QEMU's TCG plugin interface (the API the QEMU
Timing Analyzer is built on): tools observe translation and execution
without touching the emulator core, by overriding any subset of the hook
methods below.  Unimplemented hooks cost nothing — the CPU collects only
the callbacks a plugin actually overrides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..isa.spec import Decoded
    from .cpu import Cpu, TranslationBlock


class Plugin:
    """Base class for VP instrumentation plugins.

    Hooks (override any subset):

    * ``on_attach(machine)`` — plugin registered with a machine.
    * ``on_block_translate(cpu, block)`` — a translation block was built
      (once per block until the cache is flushed).
    * ``on_block_exec(cpu, block)`` — a block is about to execute.
    * ``on_insn_exec(cpu, decoded, pc)`` — an instruction is about to
      execute.
    * ``on_mem_access(cpu, addr, width, value, is_store)`` — a data access
      completed (loads report the loaded value).
    * ``on_trap(cpu, cause, pc)`` — a trap is being taken.
    * ``on_tb_flush(cpu)`` — the translation cache was invalidated
      (``fence.i``, code patching, reset).
    * ``on_exit(code)`` — the machine terminated.
    """

    name = "plugin"

    def on_attach(self, machine) -> None:
        """Called when the plugin is registered."""

    def on_block_translate(self, cpu: "Cpu", block: "TranslationBlock") -> None:
        pass

    def on_block_exec(self, cpu: "Cpu", block: "TranslationBlock") -> None:
        pass

    def on_insn_exec(self, cpu: "Cpu", decoded: "Decoded", pc: int) -> None:
        pass

    def on_mem_access(self, cpu: "Cpu", addr: int, width: int, value: int,
                      is_store: bool) -> None:
        pass

    def on_trap(self, cpu: "Cpu", cause: int, pc: int) -> None:
        pass

    def on_tb_flush(self, cpu: "Cpu") -> None:
        pass

    def on_exit(self, code: int) -> None:
        pass


#: Hook-table lists, each fed by the plugin method ``on_<name>``.
_HOOKS = ("block_translate", "block_exec", "insn_exec", "mem_access",
          "trap", "tb_flush", "exit")


class HookTable:
    """Callback lists compiled from a set of plugins.

    The CPU consults the per-hook lists directly; empty lists make the
    corresponding fast path branch-free in practice.  A plugin's hook
    joins its list only when the plugin's class overrides it.
    """

    def __init__(self) -> None:
        self.plugins: List[Plugin] = []
        for name in _HOOKS:
            setattr(self, name, [])
        #: Bumped on every register/unregister so the run loop can
        #: re-specialize the backend (the compiled tier's token).
        self.version = 0

    def register(self, plugin: Plugin) -> None:
        self.plugins.append(plugin)
        self.version += 1
        for name in _HOOKS:
            method = "on_" + name
            if getattr(type(plugin), method) is not getattr(Plugin, method):
                getattr(self, name).append(getattr(plugin, method))

    def unregister(self, plugin: Plugin) -> None:
        if plugin not in self.plugins:
            raise ValueError(f"plugin {plugin.name!r} is not registered")
        self.plugins.remove(plugin)
        self.version += 1
        for name in _HOOKS:
            hooks = getattr(self, name)
            bound = getattr(plugin, "on_" + name)
            if bound in hooks:
                hooks.remove(bound)
