"""Template JIT: compiled translation blocks for the VP's ``compiled`` tier.

At translate time each hot :class:`~repro.vp.cpu.TranslationBlock` is
turned into one specialized straight-line Python function — registers as
list indexing on the raw register array, immediates and PCs folded into
the source as constants, memory accesses inlined to direct bus calls,
hook invocations compiled in only when the hook table is non-empty —
compiled with :func:`compile`/``exec`` and cached on the block.

Layout:

* :mod:`~repro.vp.jit.templates` — per-instruction source emitters keyed
  by the :mod:`repro.isa.semantics` execute functions (compressed
  instructions reuse the base execute callbacks, so RVC is covered for
  free),
* :mod:`~repro.vp.jit.compiler`  — assembles whole-block functions in
  three shapes: a direct-register fast shape, a bookkeeping shape that
  preserves per-instruction hook ordering, and a fused self-loop
  superblock for single-block spin loops,
* :mod:`~repro.vp.jit.backend`   — the ``compiled``
  :class:`~repro.vp.backends.ExecutionBackend` with hot-block tiering.

Compiled code objects are shared across machines through a process-wide
cache keyed by the generated source; :func:`code_cache_stats` reports
its counters.

The determinism contract — identical architectural results to the
interpreter, bit for bit — is documented in ``docs/performance.md`` and
enforced by ``tests/vp/test_backend_parity.py``.
"""

from .backend import DEFAULT_THRESHOLD, CompiledBackend, JitStats
from .compiler import code_cache_stats

__all__ = ["CompiledBackend", "JitStats", "DEFAULT_THRESHOLD",
           "code_cache_stats"]
