"""The cluster determinism contract, pinned end-to-end over real HTTP.

A job submitted with a fixed seed and sharded across N nodes must
produce a result **byte-identical** to the single-process run of the
same spec — including when a node dies mid-run and its leases are
re-dispatched.  Wall-clock fields (``elapsed_seconds``,
``execs_per_second``) are the only permitted difference and are
stripped before comparison.
"""

import json
import time

import pytest

from repro.cluster import ClusterCoordinator, WorkerNode
from repro.serve.client import ServiceClient
from repro.serve.executors import execute_job
from repro.serve.jobs import null_context

CAMPAIGN_SRC = """
_start:
    li s0, 40
    li s1, 0
loop:
    add s1, s1, s0
    slli t0, s1, 1
    xor s1, s1, t0
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
"""

# Heavier body for the node-kill test: each shard must run long enough
# that a kill lands mid-item (the loop dominates every mutant run).
SLOW_CAMPAIGN_SRC = CAMPAIGN_SRC.replace("li s0, 40", "li s0, 20000")


def canon_campaign(result):
    view = json.loads(json.dumps(result))
    view.pop("elapsed_seconds", None)
    if isinstance(view.get("campaign"), dict):
        view["campaign"].pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


def canon_fuzz(result):
    view = json.loads(json.dumps(result))
    view.pop("elapsed_seconds", None)
    view.pop("execs_per_second", None)
    return json.dumps(view, sort_keys=True)


@pytest.fixture
def coordinator():
    coord = ClusterCoordinator(port=0, node_timeout=2.0,
                               lease_timeout=5.0).start()
    yield coord
    coord.shutdown(drain=False)


def _attach(coordinator, count, **kwargs):
    nodes = [WorkerNode(coordinator.url, name=f"n{i}", poll_interval=0.02,
                        **kwargs).start()
             for i in range(count)]
    return nodes


def _stop_all(nodes):
    for node in nodes:
        node.stop()


class TestCampaignParity:
    PAYLOAD = {"source": CAMPAIGN_SRC, "mutants": 18, "seed": 9}

    def _direct(self):
        return execute_job("fault_campaign", dict(self.PAYLOAD),
                           null_context())

    def test_one_node_sharded(self, coordinator):
        nodes = _attach(coordinator, 1)
        try:
            client = ServiceClient(coordinator.url, timeout=10)
            done = client.submit_and_wait("fault_campaign",
                                          dict(self.PAYLOAD),
                                          shards=4, timeout=120)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) \
                == canon_campaign(self._direct())
        finally:
            _stop_all(nodes)

    def test_two_nodes_sharded(self, coordinator):
        nodes = _attach(coordinator, 2)
        try:
            client = ServiceClient(coordinator.url, timeout=10)
            done = client.submit_and_wait("fault_campaign",
                                          dict(self.PAYLOAD),
                                          shards=5, timeout=120)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) \
                == canon_campaign(self._direct())
            # Both nodes actually participated.
            executed = [node.executed for node in nodes]
            assert sum(executed) == 5
        finally:
            _stop_all(nodes)

    def test_unsharded_job_passthrough(self, coordinator):
        nodes = _attach(coordinator, 1)
        try:
            client = ServiceClient(coordinator.url, timeout=10)
            done = client.submit_and_wait("fault_campaign",
                                          dict(self.PAYLOAD), timeout=120)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) \
                == canon_campaign(self._direct())
        finally:
            _stop_all(nodes)


class TestNodeDeathParity:
    def test_killed_node_leases_redispatch_byte_identical(self):
        payload = {"source": SLOW_CAMPAIGN_SRC, "mutants": 12, "seed": 4}
        direct = execute_job("fault_campaign", dict(payload),
                             null_context())
        coord = ClusterCoordinator(port=0, node_timeout=1.0,
                                   lease_timeout=3.0).start()
        survivor = victim = None
        try:
            client = ServiceClient(coord.url, timeout=10)
            survivor = WorkerNode(coord.url, name="survivor",
                                  poll_interval=0.02).start()
            victim = WorkerNode(coord.url, name="victim",
                                poll_interval=0.02).start()
            job = client.submit("fault_campaign", dict(payload), shards=6)
            # Wait until the victim holds a lease mid-item, then crash
            # it: no completion report, no more heartbeats.
            deadline = time.monotonic() + 30
            while victim.current_item is None:
                assert time.monotonic() < deadline, \
                    "victim never picked up work"
                time.sleep(0.005)
            victim.kill()
            done = client.wait(job["id"], timeout=180)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) == \
                canon_campaign(direct)
            stats = client.stats()["service"]["cluster"]
            assert stats["nodes_lost"] >= 1
            assert stats["work_requeued"] >= 1
        finally:
            if survivor is not None:
                survivor.stop()
            coord.shutdown(drain=False)


class TestMixedDeployment:
    def test_local_worker_and_node_share_a_sharded_campaign(self):
        payload = {"source": SLOW_CAMPAIGN_SRC, "mutants": 12, "seed": 4}
        direct = execute_job("fault_campaign", dict(payload),
                             null_context())
        coord = ClusterCoordinator(port=0, workers=1, node_timeout=2.0,
                                   lease_timeout=5.0).start()
        node = WorkerNode(coord.url, name="remote",
                          poll_interval=0.02).start()
        try:
            deadline = time.monotonic() + 10
            while len(coord.nodes) == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client = ServiceClient(coord.url, timeout=10)
            done = client.submit_and_wait("fault_campaign", dict(payload),
                                          shards=4, timeout=180)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) == canon_campaign(direct)
            items = coord.work.items_for_job(done["id"])
            assert [item.state for item in items] == ["done"] * 4
            # Each worker, local and remote, executed at least one shard.
            assert {item.node for item in items} == {"worker-0",
                                                     node.node_id}
        finally:
            node.stop()
            coord.shutdown(drain=False)


class TestVerifyParity:
    PAYLOAD = {"corpus": "torture:4", "matrix": "interp:nocache",
               "seed": 3, "max_instructions": 2000}

    def test_sharded_verify_matches_single_process(self, coordinator):
        direct = execute_job("verify", dict(self.PAYLOAD), null_context())
        nodes = _attach(coordinator, 2)
        try:
            client = ServiceClient(coordinator.url, timeout=10)
            done = client.submit_and_wait("verify", dict(self.PAYLOAD),
                                          shards=4, timeout=300)
            assert done["state"] == "succeeded"
            assert canon_campaign(done["result"]) == \
                canon_campaign(direct)
            assert sum(node.executed for node in nodes) == 4
        finally:
            _stop_all(nodes)


class TestFuzzParity:
    PAYLOAD = {
        "iterations": 1000,
        "seed": 11,
        "seeds": "trivial",
        "batch_size": 64,
        "max_instructions": 150,
        "minimize": False,
    }

    def test_sharded_fuzz_matches_single_process(self, coordinator):
        direct = execute_job("fuzz", dict(self.PAYLOAD), null_context())
        nodes = _attach(coordinator, 2)
        try:
            client = ServiceClient(coordinator.url, timeout=10)
            done = client.submit_and_wait("fuzz", dict(self.PAYLOAD),
                                          shards=2, timeout=300)
            assert done["state"] == "succeeded"
            assert canon_fuzz(done["result"]) == canon_fuzz(direct)
        finally:
            _stop_all(nodes)
