"""Virtual prototype: CPU, memory system, peripherals, and plugin API."""

from .cpu import (
    MAX_BLOCK_INSNS,
    Cpu,
    RunResult,
    STOP_EXIT,
    STOP_MAX_INSNS,
    STOP_REQUESTED,
    STOP_WFI,
    StopRun,
    TranslationBlock,
)
from .machine import (
    CLINT_BASE,
    DEFAULT_RAM_SIZE,
    EXIT_BASE,
    GPIO_BASE,
    Machine,
    MachineConfig,
    MachineSnapshot,
    RAM_BASE,
    STOP_UNHANDLED_TRAP,
    UART_BASE,
)
from .backends import (BACKEND_NAMES, ExecutionBackend, canonical_backend,
                       create_backend)
from .icache import ICache, ICacheConfig
from .lockstep import LockstepDivergence, LockstepResult, run_lockstep
from .memory import Device, Ram, SystemBus
from .plugins import HookTable, Plugin
from .timing import TimingModel, classify
from .tracer import ExecutionTracer, RegisterWatch, TraceEntry
from .trap import (
    BusError,
    MachineExit,
    Trap,
    UnhandledTrap,
    cause_name,
)

__all__ = [
    "BACKEND_NAMES",
    "BusError",
    "CLINT_BASE",
    "Cpu",
    "ExecutionBackend",
    "canonical_backend",
    "create_backend",
    "DEFAULT_RAM_SIZE",
    "Device",
    "EXIT_BASE",
    "ExecutionTracer",
    "GPIO_BASE",
    "HookTable",
    "ICache",
    "ICacheConfig",
    "MachineSnapshot",
    "LockstepDivergence",
    "LockstepResult",
    "RegisterWatch",
    "TraceEntry",
    "run_lockstep",
    "MAX_BLOCK_INSNS",
    "Machine",
    "MachineConfig",
    "MachineExit",
    "Plugin",
    "RAM_BASE",
    "Ram",
    "RunResult",
    "STOP_EXIT",
    "STOP_MAX_INSNS",
    "STOP_REQUESTED",
    "STOP_UNHANDLED_TRAP",
    "STOP_WFI",
    "StopRun",
    "SystemBus",
    "TimingModel",
    "Trap",
    "TranslationBlock",
    "UART_BASE",
    "UnhandledTrap",
    "cause_name",
    "classify",
]
