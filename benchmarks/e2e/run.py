"""End-to-end benchmark of the Scale4Edge reproduction (see README.md).

    python benchmarks/e2e/run.py                          # all workloads
    python benchmarks/e2e/run.py --workload vp-hot --seed 3
    python benchmarks/e2e/run.py --trace 1 --spans-out spans.jsonl
    python benchmarks/e2e/run.py --check-repeat 5 --out spread.json

Each run of a workload happens in fresh processes (worker.py): set-up
runs SETUP_RUNS times and ``setup_s`` is their median; the last process
goes on to measure.  Every metric is printed with its unit and sample
count; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every operation succeeded and every output was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is timed in this many processes per run; setup_s is the median.
SETUP_RUNS = 3
#: Hard wall-clock limit for all processes of one workload run.
WORKLOAD_LIMIT_S = 170.0


def _stop_group(process: subprocess.Popen) -> None:
    """Kill a worker and everything it started, then wait for them."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _worker(workload: str, seed: int, seconds: float, mode: str,
            deadline: float, spans_out: Optional[str] = None) -> dict:
    """One worker process; its result, or a failure record."""
    args = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
            "--t0", repr(time.monotonic())]
    if spans_out:
        args += ["--spans-out", spans_out]
    # Its own process group, so the servers and nodes it starts can be
    # stopped with it if it overruns.
    process = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(process)
        return {"correct": False, "attempted": 0, "failed": 0,
                "errors": [f"{workload} {mode} run exceeded the "
                           f"{WORKLOAD_LIMIT_S:.0f} s limit"]}
    except BaseException:
        _stop_group(process)
        raise
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0,
                "errors": [f"{workload} {mode} worker exited "
                           f"{process.returncode} without a result"]}


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, spans_out: Optional[str] = None) -> dict:
    """One benchmark run of ``workload``: metrics (with sample counts),
    operation counts and errors."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    setups: List[float] = []
    errors: List[str] = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            result = _worker(workload, seed, seconds, "setup", deadline)
            errors.extend(result.get("errors", []))
            if "setup_s" in result:
                setups.append(result["setup_s"])
    result = _worker(workload, seed, seconds,
                     "trace" if trace else "measure", deadline, spans_out)
    errors.extend(result.get("errors", []))
    metrics = dict(result.get("metrics", {}))
    if not trace and "setup_s" in result:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s", "n": len(setups)}
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in metrics.items()}
    if metrics and emitted != declared:
        differing = sorted(set(emitted.items()) ^ set(declared.items()))
        errors.append(f"metrics differ from BENCHMARK.json: {differing}")
    return {
        "workload": workload,
        "seed": seed,
        "correct": bool(result.get("correct") and metrics) and not errors,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {name: metrics[name] for name in declared
                    if name in metrics},
        "errors": errors,
        "digests": result.get("digests", {}),
        "details": result.get("details", {}),
    }


def print_run(run: dict, seconds: float, trace: bool) -> None:
    kind = "traced" if trace else "untraced"
    print(f"== {run['workload']} (seed {run['seed']}, {seconds:g} s, "
          f"{kind}) ==")
    for name, metric in run["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"n={metric['n']}")
    for name, value in run["details"].items():
        print(f"  detail {name:33s} {value:14.6g}")
    if run["digests"]:
        print("  inputs " + " ".join(f"{key}={value}" for key, value
                                     in run["digests"].items()))
    print(f"  attempted {run['attempted']}  failed {run['failed']}  "
          f"correct {run['correct']}")
    for error in run["errors"]:
        print(f"  error: {error.strip()}")
    sys.stdout.flush()


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_repeat(spec: dict, workloads: List[str], runs: int,
                 seconds: float, out: Optional[str]) -> int:
    """Two sets of ``runs`` untraced runs per workload (seeds 0..runs-1,
    then runs..2*runs-1): per metric, each set's median and spread
    (q3-q1 over the median) and whether the second median is within the
    metric's bound of the first."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"host": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "run_seconds": seconds, "runs_per_set": runs,
              "workloads": {}}
    healthy = True
    for workload in workloads:
        sets = []
        for first_seed in (0, runs):
            results = [run_workload(spec, workload, seed, seconds, False)
                       for seed in range(first_seed, first_seed + runs)]
            for result in results:
                if not result["correct"] or result["failed"]:
                    healthy = False
                    print(f"{workload} seed {result['seed']}: "
                          f"failed {result['failed']} {result['errors']}")
            sets.append(results)
        print(f"== {workload}: {runs} + {runs} runs of {seconds:g} s ==")
        print(f"  {'metric':22s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} "
              f"{'bound':>6s}")
        entry = report["workloads"][workload] = {}
        for name, declared in bounds.items():
            stats = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                q1, median, q3 = _quartiles(values) if values else (0, 0, 0)
                stats.append({"median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0,
                              "values": values})
            a, b = stats[0]["median"], stats[1]["median"]
            sign = 1 if declared["better"] == "lower" else -1
            worse = sign * (b - a) / a if a else 0.0
            bound = declared["bound"]
            spread_ok = name == "setup_s" or all(
                s["spread"] < bound for s in stats)
            agree = worse <= bound
            healthy = healthy and spread_ok and agree
            flag = "" if spread_ok and agree else "  <-- outside bound"
            print(f"  {name:22s} {a:12.5g} {b:12.5g} "
                  f"{stats[0]['spread']:9.2%} {stats[1]['spread']:9.2%} "
                  f"{worse:8.2%} {bound:6.0%}{flag}")
            entry[name] = {"unit": declared["unit"], "bound": bound,
                           "sets": stats, "second_worse_frac": worse}
        sys.stdout.flush()
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if healthy else 1


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run; must equal "
                             "run_seconds of BENCHMARK.json "
                             f"({spec['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer ledger instead of "
                             "the end-to-end metrics")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="with --trace, write every span as JSON lines "
                             "(one file per workload: FILE.<workload>)")
    parser.add_argument("--check-repeat", type=int, nargs="?", const=5,
                        metavar="N",
                        help="two sets of N (default 5) untraced runs per "
                             "workload; report medians, spreads and "
                             "agreement")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g}: every run measures "
                     f"run_seconds = {seconds} s of BENCHMARK.json")
    workloads = [args.workload] if args.workload else names
    if args.check_repeat:
        return check_repeat(spec, workloads, args.check_repeat, seconds,
                            args.out)
    trace = bool(args.trace)
    runs = []
    for workload in workloads:
        spans_out = None
        if trace and args.spans_out:
            spans_out = (args.spans_out if args.workload
                         else f"{args.spans_out}.{workload}")
        run = run_workload(spec, workload, args.seed, seconds, trace,
                           spans_out)
        print_run(run, seconds, trace)
        runs.append(run)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    correct = all(run["correct"] and not run["failed"] for run in runs)
    if len(runs) == 1:
        metrics = {name: {"value": metric["value"], "unit": metric["unit"]}
                   for name, metric in runs[0]["metrics"].items()}
    else:
        metrics = {f"{run['workload']}/{name}":
                   {"value": metric["value"], "unit": metric["unit"]}
                   for run in runs for name, metric in run["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": max(1, sum(r["attempted"] for r in runs)),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
