"""Benchmark-side tracing: spans around the program's layer entry points.

The program is not modified.  :class:`Instrumentation` replaces each
layer's public entry point with a wrapper that records a span — name,
start, end, parent span, request id — into a :class:`SpanRecorder`, and
puts every original back on :meth:`~Instrumentation.uninstall`.  Methods
are patched on their class; a module-level function is patched in every
``repro`` module that binds it, because that binding is the one its
callers look up.

A span's *self time* is its duration minus the time its direct children
cover.  Spans nest per thread, so the children of a span lie inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Declared spans: name -> the workloads on which the span must record
#: at least one call during a traced run (set-up included).  All but
#: ``service.poll_sleep``, which the service clients record around their
#: sleeps between two polls, wrap an entry point in :data:`TARGETS`.
SPANS: Dict[str, Tuple[str, ...]] = {
    "asm.assemble": ("vp-hot", "fault-campaign", "verify-cold"),
    "isa.decode": ("vp-hot", "fault-campaign", "verify-cold"),
    "vp.build": ("vp-hot", "fault-campaign", "verify-cold"),
    "vp.run": ("vp-hot", "fault-campaign", "verify-cold"),
    "vp.bus": ("vp-hot", "fault-campaign", "verify-cold"),
    "vp.snapshot": ("fault-campaign", "verify-cold"),
    "vp.restore": ("fault-campaign", "verify-cold"),
    "vp.jit.compile": ("vp-hot", "verify-cold"),
    "vp.jit.trace": ("vp-hot",),
    "coverage.measure": ("fault-campaign",),
    "faultsim.generate": ("fault-campaign",),
    "faultsim.golden": ("fault-campaign",),
    "faultsim.run": ("fault-campaign",),
    "faultsim.prepare": ("fault-campaign",),
    "faultsim.mutant": ("fault-campaign",),
    "faultsim.inject": ("fault-campaign",),
    "verify.corpus": ("verify-cold",),
    "verify.run": ("verify-cold",),
    "verify.side.interp": ("verify-cold",),
    "verify.side.compiled": ("verify-cold",),
    "verify.digest": ("verify-cold",),
    "service.submit": ("serve-mix", "cluster-mix"),
    "service.result": ("serve-mix", "cluster-mix"),
    "service.poll_sleep": ("serve-mix", "cluster-mix"),
}

_ORIGINAL = "_bench_original"


class SpanRecorder:
    """In-memory span store, one list per thread.

    A span is ``[name, start, end, parent, request]``; ``parent`` is an
    index into the same thread's list (``-1`` for a top-level span) and
    ``request`` the id the workload set with :meth:`set_request`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.threads: List[List[list]] = []
        #: Counters probes add to while :attr:`counting` is true.
        self.counters: Dict[str, float] = {}
        self.counting = False

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.request = None
            with self._lock:
                self.threads.append(local.spans)
        return local

    def set_request(self, request: Optional[str]) -> None:
        self._state().request = request

    def open(self, name: str) -> list:
        local = self._state()
        stack = local.stack
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else -1, local.request]
        local.spans.append(record)
        stack.append(len(local.spans) - 1)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- analysis ---------------------------------------------------------

    def totals(self, start: float, end: float
               ) -> Tuple[Dict[str, List[float]], float]:
        """Per-name ``[calls, self seconds]`` and the time top-level
        spans cover, over spans that started inside ``[start, end]``."""
        totals: Dict[str, List[float]] = {}
        covered = 0.0
        for spans in list(self.threads):
            children = [0.0] * len(spans)
            for record in spans:
                parent = record[3]
                if parent >= 0:
                    children[parent] += record[2] - record[1]
            for index, (name, begin, finish, parent, _request) in \
                    enumerate(spans):
                if not start <= begin <= end:
                    continue
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += finish - begin - children[index]
                if parent < 0:
                    covered += finish - begin
        return totals, covered

    def calls(self) -> Dict[str, int]:
        """Calls per span name over the whole recording."""
        counts: Dict[str, int] = {}
        for spans in list(self.threads):
            for record in spans:
                counts[record[0]] = counts.get(record[0], 0) + 1
        return counts

    def write(self, path: str, origin: float) -> int:
        """Write every span as one JSON line; returns the span count.

        Times are seconds since ``origin``; ``parent`` is the global
        ``id`` of the parent span, or ``null``."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in enumerate(list(self.threads)):
                base = written
                for index, (name, begin, finish, parent, request) in \
                        enumerate(spans):
                    handle.write(json.dumps({
                        "id": base + index,
                        "name": name,
                        "start": round(begin - origin, 9),
                        "end": round(finish - origin, 9),
                        "parent": base + parent if parent >= 0 else None,
                        "request": request,
                        "thread": thread,
                    }) + "\n")
                written += len(spans)
        return written


def _wrap(recorder: SpanRecorder, name, fn: Callable,
          probe: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span.  ``name`` is a string or a function of the
    call's positional arguments; ``probe(args, kwargs)`` may return a
    callback that receives the result once the span has closed."""
    named = callable(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        after = probe(args, kwargs) if probe is not None else None
        record = recorder.open(name(args) if named else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(record)
        if after is not None:
            after(result)
        return result

    setattr(traced, _ORIGINAL, fn)
    return traced


def _run_probe(recorder: SpanRecorder):
    """Counter deltas of one ``Machine.run`` (while counting is on)."""
    def probe(args, kwargs):
        if not recorder.counting:
            return None
        machine = args[0]
        cpu = machine.cpu
        before = (cpu.tb_hits, cpu.tb_misses, machine.mem_stats(),
                  machine.jit_stats())

        def after(result):
            hits, misses, mem, jit = before
            add = recorder.add
            add("sim.instructions", result.instructions)
            add("sim.cycles", result.cycles)
            add("tb.hits", cpu.tb_hits - hits)
            add("tb.misses", cpu.tb_misses - misses)
            now = machine.mem_stats()
            for key in ("fastpath_loads", "fastpath_stores",
                        "fastpath_fallback_loads",
                        "fastpath_fallback_stores"):
                add(f"mem.{key}", now[key] - mem[key])
            if jit is not None:
                for key, value in machine.jit_stats().items():
                    add(f"jit.{key}", value - jit[key])
        return after
    return probe


def _restore_probe(recorder: SpanRecorder):
    def probe(args, kwargs):
        if not recorder.counting:
            return None

        def after(pages):
            recorder.add("restore.calls", 1)
            recorder.add("restore.pages", pages)
        return after
    return probe


def _side_name(args) -> str:
    return f"verify.side.{args[0].config.name}"


#: (owner, attribute, span name, probe factory).  An owner is
#: ``module:Class`` for a method and ``module`` for a function.
TARGETS = (
    ("repro.asm", "assemble", "asm.assemble", None),
    ("repro.isa.decoder:Decoder", "decode", "isa.decode", None),
    ("repro.vp.machine:Machine", "__init__", "vp.build", None),
    ("repro.vp.machine:Machine", "load", "vp.build", None),
    ("repro.vp.machine:Machine", "run", "vp.run", _run_probe),
    ("repro.vp.memory:SystemBus", "load", "vp.bus", None),
    ("repro.vp.memory:SystemBus", "store", "vp.bus", None),
    ("repro.vp.machine:Machine", "snapshot", "vp.snapshot", None),
    ("repro.vp.machine:Machine", "restore", "vp.restore", _restore_probe),
    ("repro.vp.jit.compiler:BlockCompiler", "compile", "vp.jit.compile",
     None),
    ("repro.vp.jit.compiler:BlockCompiler", "compile_trace", "vp.jit.trace",
     None),
    ("repro.coverage", "measure_coverage", "coverage.measure", None),
    ("repro.faultsim", "default_campaign_mutants", "faultsim.generate",
     None),
    ("repro.faultsim.campaign:FaultCampaign", "golden", "faultsim.golden",
     None),
    ("repro.faultsim.campaign:FaultCampaign", "run", "faultsim.run", None),
    ("repro.faultsim.campaign:FaultCampaign", "prepare_checkpoints",
     "faultsim.prepare", None),
    ("repro.faultsim.campaign:FaultCampaign", "run_one", "faultsim.mutant",
     None),
    ("repro.faultsim.injector", "inject", "faultsim.inject", None),
    ("repro.verify.campaign", "build_corpus", "verify.corpus", None),
    ("repro.verify.campaign:DiffCampaign", "run", "verify.run", None),
    ("repro.verify.campaign:ConfigRunner", "run", _side_name, None),
    ("repro.verify.digest", "capture_state", "verify.digest", None),
    ("repro.serve.client:ServiceClient", "submit", "service.submit", None),
    ("repro.serve.client:ServiceClient", "result", "service.result", None),
)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Installs and removes the span wrappers of :data:`TARGETS`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        for owner, attr, name, probe in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            cls = getattr(module, class_name) if class_name else None
            original = (cls.__dict__[attr] if cls is not None
                        else getattr(module, attr))
            wrapper = _wrap(self.recorder, name, original,
                            probe(self.recorder) if probe else None)
            if cls is not None:
                setattr(cls, attr, wrapper)
                self._patches.append((cls, attr, original))
                continue
            for binder in _repro_modules():
                for key, value in list(vars(binder).items()):
                    if value is original:
                        setattr(binder, key, wrapper)
                        self._patches.append((binder, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        # A module imported while the wrappers were live may have bound
        # a wrapper under its own name: put the original back there too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                original = getattr(value, _ORIGINAL, None)
                if original is not None:
                    setattr(module, key, original)


def leftovers() -> List[str]:
    """Every place a span wrapper is still bound (should be empty)."""
    found = []
    for owner, attr, _name, _probe in TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = sys.modules.get(module_name)
        if module is not None and class_name:
            value = getattr(module, class_name).__dict__.get(attr)
            if hasattr(value, _ORIGINAL):
                found.append(f"{owner}.{attr}")
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, _ORIGINAL):
                found.append(f"{module.__name__}.{key}")
    return found
