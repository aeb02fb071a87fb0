"""The simulation service and its distributed fabric.

:class:`ClusterCoordinator` is the one service: it owns the job queue,
the client API and the scheduling point.  ``repro serve`` runs it with
in-process workers; worker nodes (:class:`WorkerNode`) attach over the
stdlib HTTP/JSON pull protocol, lease sharded work, execute it with the
stock executor registry, and stream results back under
heartbeat-renewed leases.  The design invariant — shard planning is a
pure function of the job spec, with an order-restoring merge on the
coordinator — makes any mix of workers byte-identical to single-process
execution for a fixed seed, including across node death and lease
re-dispatch.  See docs/serving.md.
"""

from .coordinator import ClusterCoordinator, ServiceClosed
from .fuzzdriver import DistributedFuzzEngine, split_batch
from .leases import LeaseTable, NodeInfo, NodeRegistry, WorkItem
from .node import WorkerNode
from .quotas import QuotaExceeded, TenantQuotas
from .shards import merge_campaign_shards, plan_shards, shard_count_for
from .store import JobStore

__all__ = [
    "ClusterCoordinator",
    "DistributedFuzzEngine",
    "JobStore",
    "LeaseTable",
    "NodeInfo",
    "NodeRegistry",
    "QuotaExceeded",
    "ServiceClosed",
    "TenantQuotas",
    "WorkItem",
    "WorkerNode",
    "merge_campaign_shards",
    "plan_shards",
    "shard_count_for",
    "split_batch",
]
