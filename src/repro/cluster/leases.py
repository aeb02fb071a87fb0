"""Work items, leases, and the node registry.

The coordinator's unit of dispatch is a :class:`WorkItem` — one shard of
one job.  Workers *pull*: a lease marks the item as owned by a worker
(an attached node or an in-process worker) until it completes or, for a
node, the lease expires.  Work survives node death by
re-queueing: heartbeat loss or lease expiry returns the item to the
pending pool and another node picks it up.  Because every work item is a
pure function of the job spec (see :mod:`repro.cluster.shards`), a
re-dispatched item produces the same bytes the dead node would have —
retry is invisible in the merged result.

:class:`LeaseTable` and :class:`NodeRegistry` are plain thread-safe
state machines; the coordinator owns the policy (timeouts, finalize).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["LeaseTable", "NodeInfo", "NodeRegistry", "WorkItem",
           "WORK_DONE", "WORK_FAILED", "WORK_LEASED", "WORK_PENDING"]

WORK_PENDING = "pending"
WORK_LEASED = "leased"
WORK_DONE = "done"
WORK_FAILED = "failed"

#: States a work item never leaves.
WORK_FINAL = frozenset({WORK_DONE, WORK_FAILED})


@dataclass
class WorkItem:
    """One shard of one job, tracked through lease/retry/completion."""

    id: str
    job_id: str
    kind: str
    payload: Dict[str, Any]
    shard_index: int = 0
    shard_count: int = 1
    state: str = WORK_PENDING
    attempts: int = 0
    node: Optional[str] = None
    leased_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    trace: Optional[Dict[str, Any]] = None
    reruns: int = 0

    def to_dict(self, with_payload: bool = False) -> Dict[str, Any]:
        view = {
            "id": self.id,
            "job_id": self.job_id,
            "kind": self.kind,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "state": self.state,
            "attempts": self.attempts,
            "node": self.node,
            "error": self.error,
        }
        if with_payload:
            view["payload"] = self.payload
        return view

    def wire_dict(self) -> Dict[str, Any]:
        """What a worker needs to execute the item."""
        view = {"id": self.id, "kind": self.kind, "payload": self.payload,
                "job_id": self.job_id, "shard_index": self.shard_index}
        if self.trace is not None:
            view["trace"] = self.trace
        return view


class LeaseTable:
    """Pending/leased/done work with lease-based retry.

    ``max_attempts`` bounds the dispatches per item that end without an
    answer (lost node, expired lease, retryable failure); a :meth:`rerun`
    grants one more.  An item whose budget is exhausted (or that failed
    non-retryably) lands in ``failed`` and the owning job fails.

    ``feed`` makes :meth:`lease` the scheduling point: when no item is
    pending it is called, under the table's lock, to add the next job's
    items, and returns False once there is nothing left to start.  Every
    change notifies one condition, so job finalizers, the fuzz driver and
    in-process workers block in :meth:`wait` / :meth:`lease_blocking`
    without polling.
    """

    def __init__(self, max_attempts: int = 3,
                 clock=time.monotonic, feed=None) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self._clock = clock
        self._feed = feed
        self._items: Dict[str, WorkItem] = {}
        self._pending: deque = deque()
        self._tally = {WORK_PENDING: 0, WORK_LEASED: 0, WORK_DONE: 0,
                       WORK_FAILED: 0}
        # Re-entrant: ``feed`` runs under the lock and adds items.
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self.requeued_total = 0
        self.completed_total = 0

    def _set(self, item: WorkItem, state: str) -> None:
        self._tally[item.state] -= 1
        self._tally[state] += 1
        item.state = state

    # -- intake ---------------------------------------------------------

    def add(self, job_id: str, plans: List[Dict[str, Any]]
            ) -> List[WorkItem]:
        """Mint and enqueue one work item per plan entry."""
        items = []
        with self._lock:
            for plan in plans:
                item = WorkItem(
                    id=f"work-{next(self._ids)}",
                    job_id=job_id,
                    kind=plan["kind"],
                    payload=plan["payload"],
                    shard_index=plan.get("shard_index", 0),
                    shard_count=plan.get("shard_count", 1),
                    trace=plan.get("trace"),
                )
                self._items[item.id] = item
                self._tally[WORK_PENDING] += 1
                self._pending.append(item.id)
                items.append(item)
            self._changed.notify_all()
        return items

    # -- worker side ----------------------------------------------------

    def lease(self, node_id: str, max_items: int = 1,
              expires: bool = True) -> List[WorkItem]:
        """Hand up to ``max_items`` items to ``node_id``.

        Pending items go first; when none is left, ``feed`` starts the
        next job.  A lease with ``expires=False`` has no clock, so
        :meth:`expire` never reclaims it.
        """
        leased = []
        now = self._clock() if expires else None
        with self._lock:
            while len(leased) < max_items:
                if not self._pending:
                    if self._feed is None or not self._feed():
                        break
                    continue
                item = self._items[self._pending.popleft()]
                if item.state != WORK_PENDING:
                    continue
                self._set(item, WORK_LEASED)
                item.node = node_id
                item.leased_at = now
                item.attempts += 1
                leased.append(item)
        return leased

    def lease_blocking(self, node_id: str, stopped) -> Optional[WorkItem]:
        """Lease one never-expiring item for an in-process worker,
        waiting until there is one; ``None`` once ``stopped()``.

        The check and the wait happen under the table's lock, so an
        :meth:`add` or :meth:`wake` between them is never lost.
        """
        with self._changed:
            while not stopped():
                leased = self.lease(node_id, expires=False)
                if leased:
                    return leased[0]
                self._changed.wait()
        return None

    def wake(self) -> None:
        """Wake blocked workers: a job was queued, or they should stop."""
        with self._changed:
            self._changed.notify_all()

    def complete(self, item_id: str,
                 result: Dict[str, Any]) -> Optional[WorkItem]:
        """Record a successful result; idempotent.

        A late completion (lease expired, item re-dispatched or already
        finished elsewhere) is accepted when the item is still open —
        work is deterministic, so first-result-wins is safe — and
        ignored once the item resolved.
        """
        with self._lock:
            item = self._items.get(item_id)
            if item is None or item.state in WORK_FINAL:
                return None
            self._set(item, WORK_DONE)
            item.result = result
            item.error = None
            self.completed_total += 1
            self._changed.notify_all()
            return item

    def fail(self, item_id: str, error: str,
             retryable: bool = True) -> Optional[WorkItem]:
        """Record a failed attempt; re-queue while budget remains."""
        with self._lock:
            item = self._items.get(item_id)
            if item is None or item.state in WORK_FINAL:
                return None
            item.error = error
            item.node = None
            item.leased_at = None
            if retryable and self._budget_left(item):
                self._requeue(item)
            else:
                self._set(item, WORK_FAILED)
            self._changed.notify_all()
            return item

    def rerun(self, item_id: str, error: str) -> Optional[WorkItem]:
        """Re-queue an item whose run failed for one more run that the
        owning job's retry budget granted; not a lost dispatch."""
        with self._lock:
            item = self._items.get(item_id)
            if item is None or item.state in WORK_FINAL:
                return None
            item.error = error
            item.node = None
            item.leased_at = None
            item.reruns += 1
            self._requeue(item)
            self._changed.notify_all()
            return item

    def renew(self, node_id: str) -> int:
        """Refresh the lease clock on everything ``node_id`` holds.

        Called on every heartbeat: a live node keeps its leases however
        long a shard takes, so ``expire`` only reclaims work from nodes
        that stopped heartbeating (the registry usually notices first).
        """
        now = self._clock()
        renewed = 0
        with self._lock:
            for item in self._items.values():
                if item.state == WORK_LEASED and item.node == node_id:
                    item.leased_at = now
                    renewed += 1
        return renewed

    # -- failure recovery -----------------------------------------------

    def release_node(self, node_id: str) -> List[WorkItem]:
        """Re-queue everything a dead node held (its heartbeats stopped)."""
        released = []
        with self._lock:
            for item in self._items.values():
                if item.state == WORK_LEASED and item.node == node_id:
                    released.append(self._requeue_locked(
                        item, f"node {node_id} lost"))
            if released:
                self._changed.notify_all()
        return released

    def expire(self, lease_timeout: float) -> List[WorkItem]:
        """Re-queue items whose lease outlived ``lease_timeout``."""
        now = self._clock()
        expired = []
        with self._lock:
            for item in self._items.values():
                if item.state == WORK_LEASED \
                        and item.leased_at is not None \
                        and now - item.leased_at >= lease_timeout:
                    expired.append(self._requeue_locked(
                        item, f"lease expired on {item.node}"))
            if expired:
                self._changed.notify_all()
        return expired

    def _requeue_locked(self, item: WorkItem, reason: str) -> WorkItem:
        item.node = None
        item.leased_at = None
        item.error = reason
        if self._budget_left(item):
            self._requeue(item)
        else:
            self._set(item, WORK_FAILED)
            item.error = f"{reason}; attempts exhausted " \
                         f"({self.max_attempts})"
        return item

    def _budget_left(self, item: WorkItem) -> bool:
        return item.attempts - item.reruns < self.max_attempts

    def _requeue(self, item: WorkItem) -> None:
        self._set(item, WORK_PENDING)
        self._pending.append(item.id)
        self.requeued_total += 1

    # -- inspection / waiting -------------------------------------------

    def get(self, item_id: str) -> Optional[WorkItem]:
        with self._lock:
            return self._items.get(item_id)

    def items_for_job(self, job_id: str) -> List[WorkItem]:
        with self._lock:
            return [item for item in self._items.values()
                    if item.job_id == job_id]

    def drop_job(self, job_id: str, reason: str = "job cancelled") -> int:
        """Resolve a stopped job's open items (they stop dispatching)."""
        dropped = 0
        with self._lock:
            for item in self._items.values():
                if item.job_id == job_id and item.state not in WORK_FINAL:
                    self._set(item, WORK_FAILED)
                    item.error = reason
                    dropped += 1
            if dropped:
                self._changed.notify_all()
        return dropped

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._tally)

    def wait(self, item_ids: List[str], timeout: Optional[float] = None,
             poll: float = 0.2, should_abort=None) -> bool:
        """Block until every item resolved; False on timeout/abort.

        ``should_abort`` is polled between condition wakeups so a
        cancelled job stops its waiter promptly.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._changed:
            while True:
                open_items = [item_id for item_id in item_ids
                              if self._items[item_id].state
                              not in WORK_FINAL]
                if not open_items:
                    return True
                if should_abort is not None and should_abort():
                    return False
                remaining = poll
                if deadline is not None:
                    remaining = min(poll, deadline - self._clock())
                    if remaining <= 0:
                        return False
                self._changed.wait(remaining)


@dataclass
class NodeInfo:
    """One attached worker node, as seen from the coordinator."""

    id: str
    name: str
    capacity: int
    registered_at: float
    last_heartbeat: float
    draining: bool = False
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        view = {
            "id": self.id,
            "name": self.name,
            "capacity": self.capacity,
            "draining": self.draining,
            "stats": self.stats,
        }
        if now is not None:
            view["heartbeat_age_seconds"] = round(
                max(0.0, now - self.last_heartbeat), 3)
            view["uptime_seconds"] = round(
                max(0.0, now - self.registered_at), 3)
        return view


class NodeRegistry:
    """Known nodes + heartbeat liveness."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._nodes: Dict[str, NodeInfo] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.lost_total = 0

    def register(self, name: Optional[str] = None,
                 capacity: int = 1) -> NodeInfo:
        now = self._clock()
        with self._lock:
            node_id = f"node-{next(self._ids)}"
            info = NodeInfo(id=node_id, name=name or node_id,
                            capacity=max(1, int(capacity)),
                            registered_at=now, last_heartbeat=now)
            self._nodes[node_id] = info
            return info

    def heartbeat(self, node_id: str,
                  stats: Optional[Dict[str, Any]] = None) -> bool:
        """Renew a node's liveness; False when the node is unknown
        (coordinator restarted — the node should re-register)."""
        with self._lock:
            info = self._nodes.get(node_id)
            if info is None:
                return False
            info.last_heartbeat = self._clock()
            if stats is not None:
                info.stats = stats
            return True

    def get(self, node_id: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._nodes.get(node_id)

    def set_draining(self, node_id: str) -> bool:
        with self._lock:
            info = self._nodes.get(node_id)
            if info is None:
                return False
            info.draining = True
            return True

    def expire(self, node_timeout: float) -> List[NodeInfo]:
        """Drop nodes whose heartbeats stopped; returns the casualties."""
        now = self._clock()
        with self._lock:
            dead = [info for info in self._nodes.values()
                    if now - info.last_heartbeat >= node_timeout]
            for info in dead:
                del self._nodes[info.id]
            self.lost_total += len(dead)
            return dead

    def remove(self, node_id: str) -> bool:
        with self._lock:
            return self._nodes.pop(node_id, None) is not None

    def rows(self) -> List[Dict[str, Any]]:
        now = self._clock()
        with self._lock:
            return [info.to_dict(now) for info in
                    sorted(self._nodes.values(), key=lambda n: n.id)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)
