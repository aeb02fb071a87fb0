"""Coordinator behavior: admission, quotas, persistence, recovery."""

import re
import threading
import time

import pytest

from repro.cluster import ClusterCoordinator, TenantQuotas, WorkerNode
from repro.cluster.store import JobStore
from repro.serve import register_executor
from repro.serve.client import (BackpressureError, ServiceClient,
                                ServiceError)
from repro.serve.executors import _EXECUTORS
from repro.serve.jobs import JobSpec

EXIT_OK = """
_start:
    li a0, 5
    li a7, 93
    ecall
"""


@pytest.fixture
def scratch_kinds():
    added = []

    def add(name, fn):
        register_executor(name)(fn)
        added.append(name)

    yield add
    for name in added:
        _EXECUTORS.pop(name, None)


@pytest.fixture
def coordinator():
    coord = ClusterCoordinator(port=0, node_timeout=2.0,
                               lease_timeout=5.0).start()
    yield coord
    coord.shutdown(drain=False)


def _client(coord):
    return ServiceClient(coord.url, timeout=10)


def _node(coord, **kwargs):
    kwargs.setdefault("poll_interval", 0.02)
    return WorkerNode(coord.url, **kwargs).start()


class TestAdmission:
    def test_submit_and_result_over_http(self, coordinator):
        node = _node(coordinator)
        try:
            done = _client(coordinator).submit_and_wait(
                "vp_run", {"source": EXIT_OK}, timeout=60)
            assert done["state"] == "succeeded"
            assert done["result"]["exit_code"] == 5
            assert done["worker"] == "cluster"
        finally:
            node.stop()

    def test_unknown_kind_400(self, coordinator):
        with pytest.raises(ServiceError) as excinfo:
            _client(coordinator).submit("nope", {})
        assert excinfo.value.status == 400

    def test_shards_on_non_shardable_kind_400(self, coordinator):
        with pytest.raises(ServiceError) as excinfo:
            _client(coordinator).submit("vp_run", {"source": EXIT_OK},
                                        shards=3)
        assert excinfo.value.status == 400
        assert "cannot shard" in excinfo.value.message

    def test_result_409_while_running(self, coordinator, scratch_kinds):
        release = threading.Event()
        scratch_kinds("block", lambda payload, ctx:
                      {"ok": release.wait(30)})
        node = _node(coordinator)
        try:
            client = _client(coordinator)
            job = client.submit("block", {})
            deadline = time.monotonic() + 10
            while client.status(job["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409
            release.set()
            assert client.wait(job["id"], timeout=30)["state"] \
                == "succeeded"
        finally:
            release.set()
            node.stop()

    def test_executor_error_fails_without_retry_elsewhere(
            self, coordinator):
        node = _node(coordinator)
        try:
            client = _client(coordinator)
            job = client.submit("vp_run", {"source": ""})
            done = client.wait(job["id"], timeout=30)
            assert done["state"] == "failed"
            # Deterministic payload failure: exactly one attempt.
            work = client.cluster_work()
            assert work["requeued_total"] == 0
        finally:
            node.stop()


class TestQuotas:
    def test_quota_429_with_retry_after(self, scratch_kinds):
        release = threading.Event()
        scratch_kinds("block", lambda payload, ctx:
                      {"ok": release.wait(30)})
        coord = ClusterCoordinator(
            port=0, quotas=TenantQuotas(limits={"acme": 1})).start()
        node = _node(coord)
        try:
            client = _client(coord)
            first = client.submit("block", {}, tenant="acme")
            with pytest.raises(BackpressureError) as excinfo:
                client.submit("block", {}, tenant="acme")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2.0
            assert "quota" in excinfo.value.message
            # Another tenant is unaffected.
            other = client.submit("block", {}, tenant="beta")
            release.set()
            assert client.wait(first["id"], timeout=30)["state"] \
                == "succeeded"
            assert client.wait(other["id"], timeout=30)["state"] \
                == "succeeded"
            # Resolution released the quota.
            client.submit("block", {}, tenant="acme")
        finally:
            release.set()
            node.stop()
            coord.shutdown(drain=False)

    def test_cancel_releases_quota(self, coordinator, scratch_kinds):
        release = threading.Event()
        scratch_kinds("block", lambda payload, ctx:
                      {"ok": release.wait(30)})
        coordinator.quotas = TenantQuotas(limits={"acme": 1})
        node = _node(coordinator)
        try:
            client = _client(coordinator)
            job = client.submit("block", {}, tenant="acme")
            reply = client.cancel(job["id"])
            assert reply["cancelled"] is True
            done = client.wait(job["id"], timeout=30)
            assert done["state"] == "cancelled"
            # Quota slot is free again.
            client.submit("block", {}, tenant="acme")
        finally:
            release.set()
            node.stop()


class TestPersistence:
    def test_resolved_jobs_survive_restart(self, tmp_path):
        store = str(tmp_path / "jobs.jsonl")
        coord = ClusterCoordinator(port=0, store_path=store).start()
        node = _node(coord)
        done = _client(coord).submit_and_wait(
            "vp_run", {"source": EXIT_OK}, timeout=60)
        node.stop()
        coord.shutdown(drain=True, timeout=30)

        revived = ClusterCoordinator(port=0, store_path=store).start()
        try:
            fetched = _client(revived).result(done["id"])
            assert fetched["state"] == "succeeded"
            assert fetched["result"] == done["result"]
        finally:
            revived.shutdown(drain=False)

    def test_unresolved_jobs_requeue_on_restart(self, tmp_path):
        store = str(tmp_path / "jobs.jsonl")
        # Seed the log by hand: one job submitted, never resolved — the
        # shape an abrupt coordinator death leaves behind.
        with JobStore(store) as log:
            log.append_job("job-7", {"kind": "vp_run",
                                     "payload": {"source": EXIT_OK}})
        coord = ClusterCoordinator(port=0, store_path=store).start()
        node = _node(coord)
        try:
            client = _client(coord)
            # The replayed job keeps its original ID and completes once
            # a node attaches.
            done = client.wait("job-7", timeout=60)
            assert done["state"] == "succeeded"
            assert done["result"]["exit_code"] == 5
            # New IDs continue past the replayed numbering.
            fresh = client.submit("vp_run", {"source": EXIT_OK})
            assert fresh["id"] == "job-8"
        finally:
            node.stop()
            coord.shutdown(drain=False)

    def test_replayed_specs_with_retired_names_run(self, tmp_path):
        # Logs written before the fastpath backend and the fuzz lockstep
        # oracle were retired still name them.
        from repro.serve.executors import execute_job

        store = str(tmp_path / "jobs.jsonl")
        fuzz = {"iterations": 20, "seed": 1, "seeds": "trivial",
                "max_instructions": 300}
        with JobStore(store) as log:
            log.append_job("job-1", {"kind": "vp_run", "payload": {
                "source": EXIT_OK, "backend": "fastpath"}})
            log.append_job("job-2", {"kind": "fuzz", "payload": dict(
                fuzz, backend="fastpath", lockstep=False)})
        coord = ClusterCoordinator(port=0, store_path=store).start()
        node = _node(coord)
        try:
            client = _client(coord)
            run = client.wait("job-1", timeout=60)
            assert run["state"] == "succeeded"
            assert run["result"] == execute_job(
                "vp_run", {"source": EXIT_OK, "backend": "interp"})
            assert client.wait("job-2", timeout=60)["state"] == "succeeded"
        finally:
            node.stop()
            coord.shutdown(drain=False)

    def test_restart_resumes_after_abrupt_death(self, tmp_path):
        store = str(tmp_path / "jobs.jsonl")
        coord = ClusterCoordinator(port=0, store_path=store).start()
        client = _client(coord)
        pending = client.submit("vp_run", {"source": EXIT_OK})
        # Abrupt death: close the frontend and log mid-flight — no
        # drain, no resolution record.
        coord.frontend.close()
        coord.store.close()

        revived = ClusterCoordinator(port=0, store_path=store).start()
        node = _node(revived)
        try:
            done = _client(revived).wait(pending["id"], timeout=60)
            assert done["state"] == "succeeded"
        finally:
            node.stop()
            revived.shutdown(drain=False)


class TestNodeProtocol:
    def test_heartbeat_loss_requeues_lease(self, coordinator):
        client = _client(coordinator)
        reply = client.register_node(name="ghost")
        node_id = reply["id"]
        job = client.submit("vp_run", {"source": EXIT_OK})
        deadline = time.monotonic() + 10
        leased = []
        while not leased:
            assert time.monotonic() < deadline
            leased = client.lease(node_id).get("work") or []
            time.sleep(0.02)
        # The ghost never heartbeats again; within node_timeout the
        # reaper re-queues its lease and a live node finishes the job.
        node = _node(coordinator)
        try:
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "succeeded"
            stats = client.stats()["service"]["cluster"]
            assert stats["nodes_lost"] >= 1
            assert stats["work_requeued"] >= 1
        finally:
            node.stop()

    def test_unknown_node_lease_404(self, coordinator):
        with pytest.raises(ServiceError) as excinfo:
            _client(coordinator).lease("node-404")
        assert excinfo.value.status == 404

    def test_stale_completion_flagged(self, coordinator):
        client = _client(coordinator)
        node_id = client.register_node(name="a")["id"]
        client.submit("vp_run", {"source": EXIT_OK})
        deadline = time.monotonic() + 10
        leased = []
        while not leased:
            assert time.monotonic() < deadline
            leased = client.lease(node_id).get("work") or []
            time.sleep(0.02)
        item_id = leased[0]["id"]
        first = client.complete_work(item_id, result={"ok": 1})
        assert first["stale"] is False
        second = client.complete_work(item_id, result={"ok": 2})
        assert second["stale"] is True

    def test_run_timeout_resolves_job_on_a_node(self, coordinator,
                                                scratch_kinds):
        def slow(payload, ctx):
            for _ in range(75):
                time.sleep(0.02)
                ctx.check()
            return {}

        scratch_kinds("slow", slow)
        node = _node(coordinator)
        try:
            client = _client(coordinator)
            job = client.submit("slow", {}, timeout_seconds=0.1)
            done = client.wait(job["id"], timeout=30, poll_interval=0.05)
            assert done["state"] == "timeout"
            assert "run timeout" in done["error"]
            # The node's completion of the dropped item comes too late.
            (item,) = coordinator.work.items_for_job(job["id"])
            assert client.complete_work(item.id, result={})["stale"] is True
        finally:
            node.stop()

    def test_drain_node_stops_leasing(self, coordinator):
        client = _client(coordinator)
        node_id = client.register_node(name="a")["id"]
        client.drain_node(node_id)
        client.submit("vp_run", {"source": EXIT_OK})
        assert client.lease(node_id)["drain"] is True

    def test_node_reregisters_after_coordinator_restart(self, tmp_path):
        coord = ClusterCoordinator(port=0).start()
        port = coord.frontend.port
        node = _node(coord)
        try:
            deadline = time.monotonic() + 10
            while len(coord.nodes) == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            coord.shutdown(drain=False)
            # Same port, fresh coordinator: the node re-attaches by
            # itself once its old ID answers 404.
            revived = ClusterCoordinator(port=port).start()
            try:
                done = _client(revived).submit_and_wait(
                    "vp_run", {"source": EXIT_OK}, timeout=60)
                assert done["state"] == "succeeded"
            finally:
                revived.shutdown(drain=False)
        finally:
            node.kill()


class TestObservability:
    def test_stats_cluster_section(self, coordinator):
        node = _node(coordinator, name="alpha", capacity=2)
        try:
            client = _client(coordinator)
            deadline = time.monotonic() + 10
            while not client.nodes():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            service = client.stats()["service"]
            assert service["mode"] == "cluster"
            assert service["workers"] == 2
            cluster = service["cluster"]
            assert cluster["nodes"][0]["name"] == "alpha"
            assert cluster["node_timeout"] == 2.0
        finally:
            node.stop()

    def test_metrics_exposition(self, coordinator):
        node = _node(coordinator)
        try:
            client = _client(coordinator)
            client.submit_and_wait("vp_run", {"source": EXIT_OK},
                                   timeout=60)
            text = client.metrics_text()
            assert "repro_cluster_nodes_live" in text
            assert "repro_cluster_work_done_live" in text
            assert "repro_cluster_node_executed_total" in text
        finally:
            node.stop()

    def test_top_sees_jobs_run_on_a_node(self, coordinator):
        from repro.observe import fetch_status, render_top

        node = _node(coordinator)
        try:
            client = _client(coordinator)
            for _ in range(3):
                client.submit_and_wait("vp_run", {"source": EXIT_OK},
                                       timeout=60)
            text = render_top(fetch_status(coordinator.url))
        finally:
            node.stop()
        assert "submitted:3" in text
        match = re.search(r"queue wait p50/p99  (\S+)/(\S+)\s+"
                          r"job time p50/p99  (\S+)/(\S+)", text)
        assert match and "-" not in match.groups(), text

    def test_health_and_kinds_match_serve_surface(self, coordinator):
        client = _client(coordinator)
        health = client.health()
        assert health["status"] == "ok"
        assert health["mode"] == "cluster"
        assert "fault_campaign" in client.kinds()

    def test_shutdown_endpoint_drains(self):
        coord = ClusterCoordinator(port=0).start()
        node = _node(coord)
        try:
            client = _client(coord)
            client.shutdown(drain=True)
            deadline = time.monotonic() + 15
            while not coord._stopped:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            node.stop()
            coord.shutdown(drain=False)


class TestShutdown:
    def test_second_shutdown_waits_for_the_first(self):
        # A queued job holds a drained shutdown open.  A second caller
        # (serve_forever's cleanup after POST /v1/shutdown) must not
        # return, and let the process exit, before the first finished.
        coord = ClusterCoordinator(port=0).start()
        job = coord.submit(JobSpec(kind="vp_run",
                                   payload={"source": EXIT_OK}))
        first = threading.Thread(target=coord.shutdown, daemon=True)
        first.start()
        deadline = time.monotonic() + 10
        while coord.stats()["accepting"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stopped = []
        second = threading.Thread(target=lambda: (
            coord.shutdown(),
            stopped.append(coord.telemetry.events.last("serve.stopped"))),
            daemon=True)
        second.start()
        second.join(0.3)
        assert second.is_alive()
        coord.cancel(job.id)
        first.join(10)
        second.join(10)
        assert stopped and stopped[0] is not None
