"""Service/cluster wiring: the verify executor, shard merge parity, and
the client-side job-kind validation."""

import json

import pytest

from repro.isa import RV32IMC_ZICSR
from repro.serve.executors import ExecutorError, execute_job, job_kinds
from repro.serve.jobs import null_context
from repro.verify import DiffCampaign, VerifyCampaignConfig

PAYLOAD = {"corpus": "torture:3", "matrix": "interp:nocache",
           "seed": 0, "max_instructions": 2000}


def canon(report):
    view = json.loads(json.dumps(report))
    view.pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


def direct_report():
    config = VerifyCampaignConfig(corpus=PAYLOAD["corpus"],
                                  matrix=PAYLOAD["matrix"],
                                  seed=PAYLOAD["seed"],
                                  max_instructions=2000)
    return DiffCampaign(RV32IMC_ZICSR, config).run().to_dict()


class TestVerifyExecutor:
    def test_job_kind_registered(self):
        assert "verify" in job_kinds()
        assert "verify_shard" in job_kinds()

    def test_verify_job_matches_direct_campaign(self):
        result = execute_job("verify", dict(PAYLOAD), null_context())
        assert canon(result) == canon(direct_report())

    def test_bad_corpus_is_executor_error(self):
        with pytest.raises(ExecutorError, match="corpus"):
            execute_job("verify", {**PAYLOAD, "corpus": "bogus"},
                        null_context())

    def test_bad_matrix_is_executor_error(self):
        with pytest.raises(ExecutorError, match="axis"):
            execute_job("verify", {**PAYLOAD, "matrix": "warp9"},
                        null_context())

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(ExecutorError, match="out of range"):
            execute_job("verify_shard",
                        {**PAYLOAD, "shard_count": 2, "shard_index": 2},
                        null_context())


class TestShardMergeParity:
    def test_merged_shards_byte_identical_to_direct(self):
        from repro.cluster.shards import merge_job_shards

        shards = [
            execute_job("verify_shard",
                        {**PAYLOAD, "shard_count": 3,
                         "shard_index": index},
                        null_context())
            for index in range(3)
        ]
        merged = merge_job_shards("verify", shards)
        assert canon(merged) == canon(direct_report())

    def test_merge_restores_shard_order(self):
        from repro.cluster.shards import merge_verify_shards

        shards = [
            execute_job("verify_shard",
                        {**PAYLOAD, "shard_count": 2,
                         "shard_index": index},
                        null_context())
            for index in range(2)
        ]
        assert canon(merge_verify_shards(list(reversed(shards)))) == \
            canon(merge_verify_shards(shards))

    def test_plan_shards_covers_corpus(self):
        from repro.cluster.shards import plan_shards, shard_count_for
        from repro.serve.jobs import JobSpec

        spec = JobSpec(kind="verify", payload=dict(PAYLOAD), shards=8)
        # torture:3 caps the effective shard count at 3.
        assert shard_count_for(spec) == 3
        items = plan_shards(spec)
        assert [item["kind"] for item in items] == ["verify_shard"] * 3
        assert [item["payload"]["shard_index"] for item in items] \
            == [0, 1, 2]


class TestSubmitKindValidation:
    def test_unknown_kind_fails_fast_without_network(self, capsys):
        from repro.cli import main

        # No service is listening on this port: an unknown kind must be
        # rejected client-side before any HTTP request is attempted.
        code = main(["submit", "-", "--url", "http://127.0.0.1:1",
                     "--kind", "warp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown job kind" in err
        for kind in ("vp_run", "fault_campaign", "fuzz", "verify"):
            assert kind in err
