"""Coverage feedback for the fuzzer: the signal that guides mutation.

The feedback map combines the coverage metric this repo already measures
(instruction types, GPR/FPR/CSR accesses — see :mod:`repro.coverage`)
with a **translation-block edge bitmap** that the same block-level
collector (:class:`repro.coverage.CoveragePlugin`) records.  Edges
capture *control-flow novelty* that the per-run register and
instruction-type sets cannot: two runs touching the same registers via a
different branch structure produce different edge sets.

Everything is expressed in terms of the stable
:func:`repro.coverage.coverage_signature` frozenset, so the fuzzer's
notion of "covered" is byte-for-byte the coverage metric's notion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set


class FeedbackMap:
    """The global, monotonically growing set of covered signature elements.

    ``observe`` folds one execution's signature in and returns the
    elements never seen before — the AFL "new coverage" predicate.  The
    map also tracks, per element, how many corpus entries contain it
    (maintained by the corpus), which the energy schedule turns into a
    rarity weight.
    """

    def __init__(self) -> None:
        self.seen: Set[tuple] = set()
        #: element -> number of corpus entries whose signature contains it.
        self.corpus_freq: Dict[tuple, int] = {}
        #: Bumped whenever ``seen`` or ``corpus_freq`` changes, so energy
        #: caches know when to recompute.
        self.version = 0

    def observe(self, signature: FrozenSet[tuple]) -> FrozenSet[tuple]:
        """Fold ``signature`` in; returns the globally new elements."""
        new = signature - self.seen
        if new:
            self.seen |= new
            self.version += 1
        return frozenset(new)

    def count_corpus_entry(self, signature: FrozenSet[tuple]) -> None:
        """Register one corpus entry's signature in the frequency table."""
        freq = self.corpus_freq
        for element in signature:
            freq[element] = freq.get(element, 0) + 1
        self.version += 1

    def rarity(self, signature: FrozenSet[tuple]) -> float:
        """Energy weight of a signature: rare elements count for more.

        Iterates in sorted order so the floating-point sum is identical
        across processes regardless of set iteration order (hash
        randomization must not perturb scheduling decisions).
        """
        freq = self.corpus_freq
        total = 0.0
        for element in sorted(signature):
            total += 1.0 / freq.get(element, 1)
        return total

    def counts_by_tag(self) -> Dict[str, int]:
        """Covered element counts per tag (``insn``/``gpr``/``csr``/...)."""
        counts: Dict[str, int] = {}
        for tag, _value in self.seen:
            counts[tag] = counts.get(tag, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self.seen)
