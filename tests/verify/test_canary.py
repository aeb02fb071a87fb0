"""Seeded-bug canary: the campaign must catch, pinpoint, and minimize a
genuine cross-tier semantics divergence."""

import pytest

from repro.isa import RV32IMC_ZICSR
from repro.isa.decoder import Decoder
from repro.verify import DiffCampaign, VerifyCampaignConfig
from repro.verify.canary import perturbed_branch, perturbed_semantics

CONFIG = VerifyCampaignConfig(corpus="torture:2", matrix="interp:compiled",
                              max_instructions=3000)


@pytest.fixture(scope="module")
def canary_result():
    with perturbed_semantics(RV32IMC_ZICSR, mnemonic="add"):
        return DiffCampaign(RV32IMC_ZICSR, CONFIG).run()


class TestCanaryDetection:
    def test_divergence_detected(self, canary_result):
        assert canary_result.divergences > 0

    def test_lockstep_pinpoints_the_perturbed_instruction(
            self, canary_result):
        record = canary_result.escalations[0]
        assert record["lockstep_clean"] is False
        assert record["kind"] == "registers"
        assert record["disasm"].split()[0] == "add"
        assert record["reg_delta"]          # the +1 shows as a reg diff

    def test_signature_names_the_bug_class(self, canary_result):
        record = canary_result.escalations[0]
        assert record["signature"].startswith("registers:")
        assert record["signature"].endswith(":add")

    def test_witness_minimized(self, canary_result):
        record = canary_result.escalations[0]
        assert 0 < len(record["words"]) < record["minimized_from"]
        assert record["minimize_evals_used"] > 0

    def test_report_dedupes_by_signature(self, canary_result):
        report = canary_result.to_dict()
        assert report["divergences"] == canary_result.divergences
        signatures = [finding["signature"]
                      for finding in report["findings"]]
        assert len(signatures) == len(set(signatures))
        assert report["classes"] == len(signatures)

    def test_findings_carry_the_repro(self, canary_result):
        finding = canary_result.to_dict()["findings"][0]
        assert finding["count"] >= 1
        assert finding["code_hex"]
        assert finding["pair"] == "interp~compiled"


class TestCanaryHygiene:
    def test_semantics_restored_after_context(self):
        spec = Decoder(RV32IMC_ZICSR).spec_by_name["add"]
        original = spec.execute
        with perturbed_semantics(RV32IMC_ZICSR, mnemonic="add"):
            assert spec.execute is not original
        assert spec.execute is original

    def test_clean_after_canary(self):
        # The previous campaigns must not leak the perturbation.
        result = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            corpus="torture:1", matrix="interp:compiled",
            max_instructions=2000)).run()
        assert result.divergences == 0

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="not decodable"):
            with perturbed_semantics(RV32IMC_ZICSR, mnemonic="warp"):
                pass

    def test_interp_pair_blind_to_tier_bug(self):
        # Both interpreted sides run the same perturbed semantics, so an
        # interp~nocache pair must stay silent: the canary specifically
        # exercises the JIT tier boundary.
        with perturbed_semantics(RV32IMC_ZICSR, mnemonic="add"):
            result = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
                corpus="torture:1", matrix="interp:nocache",
                max_instructions=2000)).run()
        assert result.divergences == 0


class TestBranchCanary:
    """A compiled branch comparison off by one: code only the direct,
    fused and trace shapes render, so lockstep must replay the block in
    the shape the compiled side ran it in to pinpoint it."""

    @pytest.mark.parametrize("mnemonic", ["bge", "bltu"])
    def test_caught_pinpointed_and_minimized(self, mnemonic):
        with perturbed_branch(RV32IMC_ZICSR, mnemonic=mnemonic):
            result = DiffCampaign(RV32IMC_ZICSR, CONFIG).run()
        assert result.divergences > 0
        for record in result.escalations:
            assert record["lockstep_clean"] is False
            assert record["kind"] == "control-flow"
            assert record["signature"] == f"control-flow:{mnemonic}"
            assert record["disasm"].split()[0] == mnemonic
            assert 0 < len(record["words"]) < record["minimized_from"]

    def test_code_cache_is_fresh_on_both_sides(self):
        from repro.vp.jit import compiler

        before = compiler._CODE_CACHE
        with perturbed_branch(RV32IMC_ZICSR):
            inside = compiler._CODE_CACHE
            assert inside is not before
        assert compiler._CODE_CACHE is not inside
        assert compiler._CODE_CACHE is not before

    def test_clean_after_branch_canary(self):
        with perturbed_branch(RV32IMC_ZICSR, mnemonic="bge"):
            DiffCampaign(RV32IMC_ZICSR, CONFIG).run()
        assert DiffCampaign(RV32IMC_ZICSR, CONFIG).run().divergences == 0

    def test_unordered_branch_rejected(self):
        with pytest.raises(ValueError, match="is not one of"):
            with perturbed_branch(RV32IMC_ZICSR, mnemonic="beq"):
                pass
