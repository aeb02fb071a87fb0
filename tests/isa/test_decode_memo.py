"""The decode memo every :class:`Decoder` of one module set shares.

Decoding is pure in the word, so a word one decoder of the process has
decoded is a dict lookup for all the others.  These tests pin what that
sharing rests on: a memo hit equals a fresh decode, nothing changes a
shared ``Decoded``, module sets and registry generations never feed each
other, the memo stays bounded, and results do not depend on what the
process decoded before.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.bmi import RV32IMC_ZICSR_ZBB
from repro.isa import (RV32I, RV32IMC, RV32IMC_ZICSR, RV32IMCF_ZICSR,
                       Decoder, IllegalInstructionError, decode_cache_stats,
                       encode)
from repro.isa import decoder as decoder_module
from repro.verify import DiffCampaign, VerifyCampaignConfig
from repro.verify.campaign import build_corpus

CORPORA = ("suites", "torture:150", "fuzz:100")


def _fields(decoded):
    return (decoded.spec, decoded.word, decoded.rd, decoded.rs1,
            decoded.rs2, decoded.imm, decoded.csr)


def _memo_key(word):
    return word if word & 0x3 == 0x3 else word & 0xFFFF


@pytest.mark.parametrize("isa", [RV32IMC_ZICSR, RV32IMCF_ZICSR,
                                 RV32IMC_ZICSR_ZBB],
                         ids=lambda isa: isa.name)
def test_memo_hits_equal_fresh_decodes_and_survive_a_run(isa):
    corpora = {spec: build_corpus(isa, spec, 0) for spec in CORPORA}
    decoder = Decoder(isa)
    memo = decoder._memo
    words = {word for corpus in corpora.values()
             for _name, program in corpus for word in program}
    hits = 0
    for word in sorted(words):
        key = _memo_key(word)
        cached = memo.get(key)
        try:
            fresh = decoder._decode_uncached(key, None)
        except IllegalInstructionError:
            assert cached is None  # illegal words are never memoized
            continue
        if cached is not None:
            hits += 1
            assert _fields(cached) == _fields(fresh)
        assert _fields(decoder.decode(word)) == _fields(fresh)
    assert hits > 0

    entries = {key: (decoded, _fields(decoded))
               for key, decoded in list(memo.items())}
    for spec, corpus in corpora.items():
        campaign = DiffCampaign(isa, VerifyCampaignConfig(
            corpus=spec, matrix="interp:compiled", max_instructions=2000))
        campaign._corpus = corpus
        assert campaign.run().divergences == 0
    changed = [key for key, (decoded, fields) in entries.items()
               if _fields(decoded) != fields]
    assert not changed


def test_compressed_word_stays_illegal_without_c():
    word = 0x1575  # c.addi a0, -3
    rv32i = Decoder(RV32I)
    assert Decoder(RV32IMC).decode(word).spec.name == "c.addi"
    for pc in (0x80000000, 0x80000010):
        with pytest.raises(IllegalInstructionError) as info:
            rv32i.decode(word, pc)
        assert info.value.pc == pc  # uncached: each raise has its own pc
    assert _memo_key(word) not in rv32i._memo


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(decoder_module, "DECODE_MEMO_MAX_ENTRIES", 8)
    decoder = Decoder(RV32I)
    evictions = decode_cache_stats()["evictions"]
    for imm in range(20):
        word = encode(decoder, "addi", 1, 0, imm)
        assert decoder.decode(word).imm == imm
        assert len(decoder._memo) <= 8
    assert decode_cache_stats()["evictions"] > evictions


def test_racing_threads_decode_correctly_through_clears(monkeypatch):
    """More threads than cores decode one word list in different orders
    with a tiny switch interval and a small bound, so inserts race with
    each other and with overflow clears."""
    import threading

    bound = 64
    monkeypatch.setattr(decoder_module, "DECODE_MEMO_MAX_ENTRIES", bound)
    reference = Decoder(RV32I)
    words = [encode(reference, "addi", rd, rd, imm)
             for rd in range(1, 5) for imm in range(-250, 250)]
    expected = [_fields(reference._decode_uncached(word, None))
                for word in words]
    sizes = []
    results = {}

    def worker(index):
        decoder = Decoder(RV32I)
        order = list(range(len(words)))
        random.Random(index).shuffle(order)
        got = {}
        for i in order:
            got[i] = _fields(decoder.decode(words[i]))
            sizes.append(len(decoder._memo))
        results[index] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results.values():
        assert [got[i] for i in range(len(words))] == expected
    # A clear can race with inserts of the other threads only.
    assert max(sizes) <= bound + len(threads)


FAULT_PROGRAM = """
_start:
    li a0, 0
    li t0, 1
loop:
    add a0, a0, t0
    addi t0, t0, 1
    li t1, 30
    blt t0, t1, loop
    li t2, 435
    sub a0, a0, t2
    li a7, 93
    ecall
"""


def campaign_results() -> str:
    """Verify and fault-campaign results as JSON, wall clock zeroed."""
    from repro.asm import assemble
    from repro.faultsim import FaultCampaign, default_campaign_mutants

    verify = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
        corpus="torture:20", matrix="interp:compiled")).run()
    verify.elapsed_seconds = 0.0
    program = assemble(FAULT_PROGRAM, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
    faults = default_campaign_mutants(
        program, isa=RV32IMC_ZICSR, mutants=40,
        golden_instructions=campaign.golden().instructions)
    faults_result = campaign.run(faults)
    faults_result.elapsed_seconds = 0.0
    return json.dumps({"verify": verify.to_dict(),
                       "campaign": faults_result.to_dict()}, sort_keys=True)


def test_results_do_not_depend_on_warm_caches():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fresh = subprocess.run(
        [sys.executable, "-c",
         "from tests.isa.test_decode_memo import campaign_results; "
         "print(campaign_results())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout.strip()
    campaign_results()  # warm both caches with exactly this work
    assert decode_cache_stats()["entries"] > 0
    assert campaign_results() == fresh
