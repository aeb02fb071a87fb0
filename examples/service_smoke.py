#!/usr/bin/env python3
"""End-to-end smoke test for the batch simulation service.

Starts ``repro serve`` as a real subprocess, once with thread workers
and once with process workers.  Each time it submits a fault-injection
campaign over HTTP, whole and split into two shards, polls both to
completion, and asserts that each result is byte-identical to running
the same campaign directly through :class:`repro.faultsim.FaultCampaign`.
It then sends a request body that is not UTF-8, requires a 400 and a
healthy server afterwards, and asserts that the server exits 0 after a
drained shutdown.  Used by CI (service-smoke job) and runnable by hand:

    python examples/service_smoke.py

Exits 0 on success, non-zero on any mismatch or timeout.  The whole run
is bounded by HARD_TIMEOUT so a wedged server cannot hang CI.
"""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

HARD_TIMEOUT = 180.0          # seconds for the entire smoke run
PORT = int(os.environ.get("SMOKE_PORT", "18972"))
MUTANTS = 30
SEED = 7
WORKLOAD_SEED = 21


def direct_counts(source):
    """Reference classification: the library path, no service involved."""
    from repro.asm import assemble
    from repro.faultsim import FaultCampaign, default_campaign_mutants
    from repro.isa import RV32IMC_ZICSR

    program = assemble(source, isa=RV32IMC_ZICSR)
    campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
    golden = campaign.golden()
    faults = default_campaign_mutants(
        program, isa=RV32IMC_ZICSR, mutants=MUTANTS, seed=SEED,
        golden_instructions=golden.instructions)
    result = campaign.run(faults)
    data = result.to_dict()
    data.pop("elapsed_seconds")
    return result.counts, json.dumps(data, sort_keys=True)


def wait_for_health(client, deadline):
    while time.monotonic() < deadline:
        try:
            if client.health()["status"] == "ok":
                return True
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    return False


def check_campaign(client, mode, source, shards, expected_counts,
                   expected_json, deadline):
    """Submit the campaign with ``shards`` and require the direct run's
    counts and byte-identical campaign JSON."""
    job = client.submit(
        "fault_campaign",
        {"source": source, "mutants": MUTANTS, "seed": SEED},
        shards=shards)
    print(f"{mode}: submitted job {job['id']} (shards={shards})")

    remaining = deadline - time.monotonic()
    done = client.wait(job["id"], timeout=max(1.0, remaining),
                       poll_interval=0.5)
    if done["state"] != "succeeded":
        raise SystemExit(f"{mode}: shards={shards} job finished in state "
                         f"{done['state']}: {done.get('error')}")

    counts = done["result"]["counts"]
    print(f"{mode}: service run (shards={shards}): {counts}")
    if counts != expected_counts:
        raise SystemExit(f"{mode}: shards={shards} classification "
                         f"mismatch: {counts} != {expected_counts}")

    campaign = dict(done["result"]["campaign"])
    campaign.pop("elapsed_seconds")
    if json.dumps(campaign, sort_keys=True) != expected_json:
        raise SystemExit(f"{mode}: shards={shards} campaign result not "
                         "byte-identical to direct run")


def check_bad_body(client, mode):
    """A body that is not UTF-8 gets a 400; the server keeps answering."""
    request = urllib.request.Request(
        f"{client.base_url}/v1/jobs", data=b"\x80", method="POST",
        headers={"Content-Type": "application/json"})
    try:
        urllib.request.urlopen(request, timeout=10)
        raise SystemExit(f"{mode}: a non-UTF-8 body was accepted")
    except urllib.error.HTTPError as exc:
        if exc.code != 400:
            raise SystemExit(f"{mode}: a non-UTF-8 body got HTTP "
                             f"{exc.code}, expected 400") from None
    if client.health()["status"] != "ok":
        raise SystemExit(f"{mode}: unhealthy after a non-UTF-8 body")
    print(f"{mode}: non-UTF-8 body -> 400, health ok")


def check_mode(mode, source, expected_counts, expected_json, deadline):
    """One ``repro serve --mode MODE`` run: campaign parity whole and
    sharded, a bad body survived, clean exit."""
    from repro.serve.client import ServiceClient

    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(PORT), "--workers", "2", "--mode", mode],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=10)
    try:
        if not wait_for_health(client, deadline):
            raise SystemExit(f"{mode}: server never became healthy")

        for shards in (1, 2):
            check_campaign(client, mode, source, shards, expected_counts,
                           expected_json, deadline)
        check_bad_body(client, mode)

        client.shutdown(drain=True)
        server.wait(timeout=max(1.0, deadline - time.monotonic()))
        if server.returncode != 0:
            raise SystemExit(f"{mode}: server exited {server.returncode} "
                             "after the drained shutdown")
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.testgen import StructuredGenerator

    deadline = time.monotonic() + HARD_TIMEOUT
    source = StructuredGenerator(statements=5).generate(WORKLOAD_SEED).source
    expected_counts, expected_json = direct_counts(source)
    print(f"direct run: {expected_counts}")
    for mode in ("thread", "process"):
        check_mode(mode, source, expected_counts, expected_json, deadline)
    print("smoke test passed: thread and process service results, whole "
          "and sharded, byte-identical to direct run; bad body survived; "
          "clean drained exits")


if __name__ == "__main__":
    main()
