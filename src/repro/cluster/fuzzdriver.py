"""Distributed fuzzing: the engine loop on the coordinator, batch
evaluation on the nodes.

Fuzzing is feedback-driven — each batch's mutants depend on the corpus
built from every earlier batch — so the *loop* cannot shard.  What can
is batch evaluation: PR 5's engine already draws a whole batch before
folding any result back, and executions are independent (each node's
evaluator restores a pristine snapshot between inputs).  So the
coordinator runs a :class:`DistributedFuzzEngine` — a stock
:class:`~repro.fuzz.engine.FuzzEngine` whose ``_evaluate_batch`` ships
the batch to the cluster as ``fuzz_eval`` work items, one per shard,
and restores submission order before the corpus sees anything.

Determinism contract: the corpus trajectory is a pure function of
``(seeds, seed, iterations)`` exactly as in-process, because the only
thing that changed is *where* the pure evaluations ran.  Minimization
evaluates single inputs on the coordinator's own evaluator —
deterministic, so identical to node-side evaluation, and free of
per-input network round trips.  The service rejects a ``jobs``
payload field other than 1, so ``FuzzResult.jobs`` stays 1 and the
result envelope matches a ``jobs=1`` single-process run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..fuzz.engine import FuzzConfig, FuzzEngine
from ..fuzz.executor import EvalResult
from ..isa.decoder import IsaConfig
from ..pool import split

__all__ = ["DistributedFuzzEngine", "split_batch"]

#: Evaluates one list of word-lists remotely, preserving order.
BatchEvaluator = Callable[[List[Tuple[int, ...]]], List[EvalResult]]


def split_batch(batch: List[Tuple[int, ...]], shard_count: int
                ) -> List[Tuple[int, List[Tuple[int, ...]]]]:
    """Contiguous ``(shard_index, inputs)`` chunks of one batch.

    The balanced :func:`~repro.pool.split` that campaign sharding and
    local ``jobs`` use too; empty chunks, only ever the trailing ones,
    are dropped (small final batches may not fill every shard).
    """
    return [(index, batch[lo:hi])
            for index, (lo, hi) in enumerate(split(len(batch), shard_count))]


class DistributedFuzzEngine(FuzzEngine):
    """A fuzz engine whose batch evaluations run on cluster nodes."""

    def __init__(self, isa: IsaConfig, config: FuzzConfig,
                 evaluate_remote: BatchEvaluator,
                 telemetry=None) -> None:
        super().__init__(isa, config, telemetry=telemetry)
        self._evaluate_remote = evaluate_remote

    def _evaluate_batch(self, batch: List[Tuple[int, ...]]
                        ) -> List[EvalResult]:
        if len(batch) <= 1:
            # Single evaluations (and 1-input batches) run locally —
            # deterministic, so identical to a node-side run, without a
            # network round trip.
            return [self._evaluate_one(words) for words in batch]
        results = self._evaluate_remote(list(batch))
        if len(results) != len(batch):
            raise RuntimeError(
                f"remote batch returned {len(results)} results for "
                f"{len(batch)} inputs")
        self.executions += len(batch)
        return results
