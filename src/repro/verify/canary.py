"""Seeded-bug canary: prove the campaign catches a real bug class.

The bug this injects is exactly the one :mod:`repro.isa.semantics` warns
about in its docstring: an instruction's ``execute`` function changes
but its JIT emitter does not.  :func:`perturbed_semantics` patches the
named instruction's semantics globally (interpreted tiers — the interp
backend and the compiled backend's cold tier — all run the perturbed
function) while aliasing the original emitter onto the perturbed
function, so the compiled backend's *hot* tier keeps emitting faithful
code.  Any ``interp~compiled`` pair must then report a genuine
cross-tier divergence — detected by digest, pinpointed by lockstep to
the perturbed instruction, and minimized.

Pairs that never reach the JIT tier (``interp~nocache``) agree on the
perturbed semantics and stay silent: the canary specifically exercises
the tier boundary, which is where this bug class lives.

:func:`perturbed_branch` is the mirror image: a branch comparison off by
one in compiled code only, with faithful semantics.

Used by the CI ``verify-smoke`` job and the escalation tests; never
imported by production campaign code.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..isa.decoder import Decoder, IsaConfig

__all__ = ["perturbed_semantics", "perturbed_branch"]

#: Branch mnemonic -> (comparison operator, its off-by-one replacement).
_BRANCH_SLIPS = {"bge": (">=", ">"), "bgeu": (">=", ">"),
                 "blt": ("<", "<="), "bltu": ("<", "<=")}


@contextmanager
def perturbed_semantics(isa: IsaConfig, mnemonic: str = "add",
                        delta: int = 1):
    """Globally perturb ``mnemonic``'s semantics by ``+delta`` on the
    result register, keeping the JIT emitter faithful.  Restores the
    original semantics (and removes the emitter alias) on exit.

    Mutates shared spec tables — strictly a test/CI context manager.
    """
    from ..vp.jit import templates

    spec = Decoder(isa).spec_by_name.get(mnemonic)
    if spec is None:
        raise ValueError(f"{mnemonic!r} is not decodable under {isa.name}")
    original = spec.execute
    if original not in templates.EMITTERS:
        raise ValueError(
            f"{mnemonic!r} has no JIT emitter; the canary needs an "
            f"instruction the compiled tier specializes")

    def buggy(cpu, d, _original=original, _delta=delta):
        _original(cpu, d)
        cpu.regs.write(d.rd, cpu.regs.read(d.rd) + _delta)

    # InstructionSpec is frozen by design; the canary deliberately
    # reaches around that to model an in-place semantics change.
    object.__setattr__(spec, "execute", buggy)
    templates.EMITTERS[buggy] = templates.EMITTERS[original]
    try:
        yield spec
    finally:
        object.__setattr__(spec, "execute", original)
        del templates.EMITTERS[buggy]


@contextmanager
def perturbed_branch(isa: IsaConfig, mnemonic: str = "bge"):
    """Render ``mnemonic``'s comparison in compiled code off by one
    (``>=`` as ``>``, ``<`` as ``<=``).  The JIT gets a fresh code cache
    on entry and on exit: the cache keys on execute functions, not on the
    conditions that render them.  Strictly a test/CI context manager."""
    from ..vp.jit import compiler, templates

    if mnemonic not in _BRANCH_SLIPS:
        raise ValueError(f"{mnemonic!r} is not one of {sorted(_BRANCH_SLIPS)}")
    spec = Decoder(isa).spec_by_name[mnemonic]
    original = templates.BRANCH_CONDS[spec.execute]
    old, new = _BRANCH_SLIPS[mnemonic]

    def slipped(ctx, d):
        return original(ctx, d).replace(f" {old} ", f" {new} ", 1)

    templates.BRANCH_CONDS[spec.execute] = slipped
    compiler._CODE_CACHE = compiler.CodeCache()
    try:
        yield spec
    finally:
        templates.BRANCH_CONDS[spec.execute] = original
        compiler._CODE_CACHE = compiler.CodeCache()
