"""Tests of the end-to-end benchmark harness.

    python -m pytest benchmarks/e2e -q

Workloads run in this process at a small fraction of their work; the
service workloads still start real ``repro serve`` / ``repro
coordinator`` / ``repro node`` processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import guest  # noqa: E402
import ledger  # noqa: E402
import run as harness  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads(harness.SPEC_PATH.read_text())
WORK = 0.05
SECONDS = 0.4
NAMES = list(worker.WORKLOADS)


def small_run(name: str, mode: str, **kwargs) -> dict:
    return worker.run(name, seed=0, seconds=SECONDS, mode=mode, work=WORK,
                      **kwargs)


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert units({m["name"]: m for m in SPEC["per_layer"]}) \
        == worker.layer_units()
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == {"setup_s": "s", **worker.END_TO_END_UNITS}


@pytest.mark.parametrize("name", NAMES)
def test_scaled_down_run_reports_every_metric(name):
    out = small_run(name, "measure")
    assert out["correct"], out["errors"]
    assert out["attempted"] > 0 and out["failed"] == 0
    assert out["setup_s"] > 0
    assert units(out["metrics"]) == worker.END_TO_END_UNITS
    assert all(metric["value"] > 0 and metric["n"] > 0
               for metric in out["metrics"].values()), out["metrics"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_fires_every_declared_span(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = small_run(name, "trace", spans_out=str(spans))
    # correct also covers "every declared span recorded a call" and
    # "no wrapper is left installed".
    assert out["correct"], out["errors"]
    assert units(out["metrics"]) == worker.layer_units()
    assert ledger.leftovers() == []
    assert out["metrics"]["trace.coverage_frac"]["value"] >= 0.95
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(rows) == out["spans"]
    declared = {span for span, on in ledger.SPANS.items() if name in on}
    assert declared <= {row["name"] for row in rows}
    ids = {row["id"] for row in rows}
    assert all(row["parent"] is None or row["parent"] in ids
               for row in rows)


def test_instrumentation_patches_every_binding_and_restores_it():
    import repro.faultsim.campaign as campaign
    from repro import asm
    from repro.vp.machine import Machine

    originals = (asm.assemble, campaign.inject, Machine.run)
    instrumentation = ledger.Instrumentation(ledger.SpanRecorder())
    instrumentation.install()
    try:
        assert asm.assemble is not originals[0]
        assert campaign.inject is not originals[1]
        assert Machine.run is not originals[2]
        assert ledger.leftovers()
    finally:
        instrumentation.uninstall()
    assert (asm.assemble, campaign.inject, Machine.run) == originals
    assert ledger.leftovers() == []


def test_corrupted_kernel_reference_counts_as_failure(monkeypatch):
    generate = guest.alu_loop

    def corrupted(seed, work=1.0):
        source, reference = generate(seed, work)
        return source, lambda: reference() ^ 1

    monkeypatch.setitem(guest.KERNELS, "alu-loop", corrupted)
    out = small_run("vp-hot", "measure")
    assert not out["correct"]
    assert out["failed"] >= 1


def test_corrupted_fault_reference_counts_as_failure(monkeypatch):
    generate = guest.fault_program

    def corrupted(seed):
        source, reference = generate(seed)
        return source, lambda: (reference()[0], "00000000")

    monkeypatch.setattr(guest, "fault_program", corrupted)
    out = small_run("fault-campaign", "measure")
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


def test_corrupted_job_result_counts_as_failure(monkeypatch):
    prepare = worker.ServeMix.prepare_checks

    def corrupted(self):
        prepare(self)
        self.expected = [{"corrupted": True} for _ in self.expected]

    monkeypatch.setattr(worker.ServeMix, "prepare_checks", corrupted)
    out = small_run("serve-mix", "measure")
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_job_results_are_compared_without_timing_fields():
    result = {"elapsed_seconds": 0.1, "counts": {"masked": 3},
              "rows": [{"execs_per_second": 9.0, "pc": 4}]}
    assert worker.canonical(result) == {"counts": {"masked": 3},
                                        "rows": [{"pc": 4}]}


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    def digests(seed):
        workload = worker.WORKLOADS[name](seed, WORK)
        workload.inputs()
        return workload.digests()

    first, again, other = digests(0), digests(0), digests(1)
    assert first == again
    # fault-campaign samples its mutants by campaign index, so only its
    # program (and the faults placed on it) follow the seed.
    assert first != other


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "vp-hot",
         "--seed", "0", "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_run_length_is_fixed_by_the_spec():
    with pytest.raises(SystemExit) as exit_info:
        harness.main(["--workload", "vp-hot",
                      "--seconds", str(SPEC["run_seconds"] + 1)])
    assert exit_info.value.code != 0
