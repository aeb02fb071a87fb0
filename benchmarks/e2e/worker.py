"""One workload run in a fresh process: set-up, measurement, checks.

``run.py`` starts this script once per run and reads the JSON object it
prints as its last line of standard output::

    python benchmarks/e2e/worker.py --workload vp-hot --seed 0 \\
        --seconds 15 --mode measure

``--mode setup`` sets the workload up, tears it down and reports
``setup_s``.  ``measure`` then measures untraced for ``--seconds`` and
reports the end-to-end metrics.  ``trace`` measures half the time
untraced and half with span wrappers installed, and reports the
per-layer ledger.  Every run checks the program's outputs; a wrong
output counts as a failed operation.

Times are scaled to a reference host speed (see :class:`SpeedClock` and
:class:`SpeedTimeline`).
"""

from __future__ import annotations

import time

#: Process start as seen by this script: ``setup_s`` runs from here (or
#: from ``--t0``, the moment run.py started the process) to the first
#: timed operation, so it includes ``import repro``.
T_START = time.monotonic()


def _calibration_loop(n: int = 2000) -> int:
    """Fixed pure-Python work shaped like the simulator's own: list
    indexing, masked integer arithmetic, dict traffic."""
    regs = [0] * 32
    table = {}
    acc = 0
    for i in range(n):
        value = (regs[i & 31] + i * 2654435761) & 0xFFFFFFFF
        regs[(i * 7) & 31] = value ^ (value >> 3)
        table[value & 63] = i
        acc += table.get(i & 63, 0)
    return acc


def calibrate() -> float:
    """CPU seconds the calibration loop takes on this thread's CPU right
    now.  Thread CPU time leaves out waiting for a busy CPU, so it
    measures the host's speed, not how loaded the host is."""
    started = time.thread_time()
    _calibration_loop()
    return time.thread_time() - started


_calibration_loop()  # let the interpreter specialise the loop first
#: Host speed when the process started (for ``setup_s``).
T_CALIBRATION = calibrate()

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import queue  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# The program under test is always the one in this checkout.
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import guest  # noqa: E402
import ledger  # noqa: E402

#: The calibration loop's duration at the reference speed every
#: reported time is scaled to (the fast state of the 2-vCPU host the
#: baseline was measured on).
CAL_REFERENCE_S = 0.0007
#: Span name of the calibrations in a traced run; they are benchmark
#: time, not program time, and are left out of every share.
CALIBRATION_SPAN = "harness.calibrate"

ISA_NAME = "rv32imc_zicsr"
OUTCOMES = ("masked", "sdc", "trap", "hang")
SERVICE_KINDS = ("vp_run", "coverage", "wcet", "fault_campaign", "fuzz",
                 "verify")

#: vp-hot: instruction budget per kernel run (kernels exit far below it).
KERNEL_BUDGET = 20_000_000
#: fault-campaign: mutants requested per campaign, and every
#: CHECK_EVERY-th mutant is classified again by the oracle.
CAMPAIGN_MUTANTS = 100
CHECK_EVERY = 10
#: verify-cold: torture programs in the corpus one pass compares.
CORPUS_PROGRAMS = 150
#: Service workloads: closed-loop clients, the client's and the nodes'
#: poll period, plan length, and the limits after which an operation
#: counts as failed.
CLIENTS = 2
POLL_INTERVAL = 0.005
PLAN_LENGTH = 1500
#: Service workloads: seconds between two host-speed samples of the
#: timing thread (see SpeedTimeline).
SAMPLE_PERIOD = 0.05
#: Span name of a client's sleep between two polls in a traced run.
POLL_SPAN = "service.poll_sleep"
JOB_TIMEOUT = 30.0
HTTP_TIMEOUT = 30.0
START_TIMEOUT = 60.0
URL_PATTERN = re.compile(r"http://[\w.\-]+:\d+")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric this harness reports, with its unit."""
    units = {}
    for span in ledger.SPANS:
        units[f"{span}.share"] = "frac"
        units[f"{span}.calls_per_op"] = "count"
    units.update({
        "vp.tb.miss_ratio": "frac",
        "vp.mem.fastpath_hit_rate": "frac",
        "vp.jit.insns_per_compile": "count",
        "vp.jit.interp_insn_frac": "frac",
        "vp.jit.trace_insn_frac": "frac",
        "vp.jit.failures": "count",
        "vp.restore.pages_per_call": "count",
    })
    units.update({f"vp.kernel.{name}.mips": "MIPS" for name in guest.KERNELS})
    units.update({"sim.instructions": "count", "sim.cycles": "count",
                  "faultsim.ckpt.early_exit_frac": "frac",
                  "faultsim.ckpt.skipped_insn_frac": "frac"})
    units.update({f"faultsim.outcome.{name}": "count" for name in OUTCOMES})
    units.update({f"service.{part}.share": "frac"
                  for part in ("queue", "run", "overhead", "direct")})
    units.update({f"service.kind.{kind}.slowdown": "x"
                  for kind in SERVICE_KINDS})
    units.update({"telemetry.events_per_job": "count",
                  "trace.coverage_frac": "frac",
                  "trace.overhead_frac": "frac"})
    return units


def scale(seconds: float, calibration: float) -> float:
    """Wall seconds at the speed ``calibration`` measured, expressed at
    the reference speed."""
    return seconds * CAL_REFERENCE_S / calibration


class SpeedClock:
    """Times work in laps, each scaled to the reference speed.

    The host's speed drifts by up to 2x, for half a second to tens of
    seconds (other tenants share its cores), and the program is
    CPU-bound Python, so raw wall times of two runs are not comparable.
    A lap's wall time is scaled by the mean of the calibration times the
    measuring thread took just before and just after it.  The calibrations fall
    between laps and count in none.  The in-process workloads use it:
    their operations never sleep, so all of a lap follows the host.
    """

    def __init__(self, recorder: Optional[ledger.SpanRecorder] = None
                 ) -> None:
        self.recorder = recorder
        self._calibration = self._calibrate()
        self._mark = time.perf_counter()

    def _calibrate(self) -> float:
        if self.recorder is None:
            return calibrate()
        record = self.recorder.open(CALIBRATION_SPAN)
        try:
            return calibrate()
        finally:
            self.recorder.close(record)

    def lap(self) -> float:
        """Scaled seconds since the previous lap (or since the start)."""
        ended = time.perf_counter()
        calibration = self._calibrate()
        scaled = scale(ended - self._mark,
                       (self._calibration + calibration) / 2)
        self._calibration = calibration
        self._mark = time.perf_counter()
        return scaled


class SpeedTimeline:
    """Host speed over a measured phase, sampled by a thread of its own.

    The service workloads' client threads share one interpreter, so a
    calibration on one client thread would hold the GIL inside the other
    client's job.  This thread calibrates every SAMPLE_PERIOD seconds
    instead, at a rate that does not follow the jobs.  The work runs in
    several processes on every CPU, and each CPU changes speed on its
    own, so a sample is the mean of one calibration on each CPU (the
    thread pins itself to each in turn).  An interval is scaled by the
    mean of the samples taken while it ran and the nearest one on each
    side.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        self._ready.wait()

    def _sample(self) -> None:
        started = time.perf_counter()
        values = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})  # pins this thread only
            values.append(calibrate())
        value = statistics.fmean(values) if values else calibrate()
        self.times.append((started + time.perf_counter()) / 2)
        self.values.append(value)

    def _loop(self) -> None:
        self._sample()
        self._ready.set()
        while not self._stop.wait(SAMPLE_PERIOD):
            self._sample()
        self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of work done between ``start`` and ``end``
        (:func:`time.perf_counter` readings), at the reference speed."""
        first = max(bisect.bisect_left(self.times, start) - 1, 0)
        last = bisect.bisect_right(self.times, end) + 1
        return scale(seconds, statistics.fmean(self.values[first:last]))


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(pid="self") -> float:
    """A process's peak resident memory (``VmHWM``), 0.0 once it is
    gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ...": comm may hold spaces.
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, pending = [], [pid]
    while pending:
        current = pending.pop()
        tree.append(current)
        pending.extend(children.get(current, []))
    return tree


def canonical(value):
    """A job result without its wall-clock fields (``*_seconds``,
    ``*_per_second``), which differ from run to run."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()
                if not key.endswith(("_seconds", "_per_second"))}
    if isinstance(value, list):
        return [canonical(item) for item in value]
    return value


class Tally:
    """Operations, latencies and failures of one measured phase.

    ``latencies`` and ``busy`` are scaled seconds; ``start``/``end`` are
    raw :func:`time.perf_counter` readings."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: List[float] = []
        self.busy = 0.0  # scaled seconds of measured work, all threads
        self.attempted = 0
        self.done = 0
        self.failed = 0
        self.errors: List[str] = []
        self.start = 0.0
        self.end = 0.0
        #: Raw seconds the client threads were running, summed (0.0 for
        #: single-threaded workloads, whose figure is ``wall``).
        self.thread_seconds = 0.0
        #: Peak resident memory under the phase's load, MB (see
        #: :class:`Workload` for when it is read).
        self.rss_mb = 0.0
        #: Workload-specific samples read by the per-layer ledger and
        #: the post-measurement checks.
        self.samples: Dict[str, object] = {}

    def fail(self, message: str, count: int = 1) -> None:
        with self.lock:
            self.failed += count
            if len(self.errors) < 10:
                self.errors.append(message)

    @property
    def wall(self) -> float:
        return max(self.end - self.start, 1e-9)


class Workload:
    """Set-up, measurement loop and output checks of one workload.

    ``measure`` always starts from operation 0, so the first operation
    group of a phase has the same inputs on every run with one seed; the
    per-layer counters are taken over that group and repeat run to run.

    An in-process workload reads its peak memory after ``memory_groups``
    operation groups, a count every run reaches even on a slow host:
    the peak steps up at each full garbage collection, so a reading at
    the end of the phase would follow how many operations the host's
    speed allowed.  The others read it at the end of the phase.
    """

    name = ""
    threads = 1
    memory_groups = 0

    def __init__(self, seed: int, work: float = 1.0) -> None:
        self.seed = seed
        self.work = work

    def inputs(self) -> None:
        """Generate the seeded inputs; starts no process."""
        raise NotImplementedError

    def setup(self) -> None:
        self.inputs()

    def prepare_checks(self) -> None:
        """Compute expected outputs (an oracle: not part of set-up)."""

    def measure(self, seconds: float, tally: Tally,
                recorder: Optional[ledger.SpanRecorder] = None) -> None:
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        """Checks that run after the measurement, untimed."""

    def digests(self) -> Dict[str, str]:
        """Short hashes of the inputs :meth:`inputs` generated."""
        raise NotImplementedError

    def layer_metrics(self, traced: Tally, untraced: Tally
                      ) -> Dict[str, float]:
        return {}

    def details(self, tally: Tally) -> Dict[str, float]:
        return {}

    def memory_mb(self) -> float:
        """Peak resident memory of the processes doing the work, MB."""
        return peak_rss_mb()

    def close(self) -> None:
        pass


def _isa():
    from repro.isa.decoder import IsaConfig

    return IsaConfig.from_string(ISA_NAME)


def _start_group(recorder, request: Optional[str], first: bool) -> None:
    """Tag the spans that follow with ``request``; count the probes'
    counters only in a phase's first operation group."""
    if recorder is not None:
        recorder.set_request(request)
        recorder.counting = first


class VpHot(Workload):
    """Benchmark-owned kernels, round-robin, each on a fresh machine."""

    name = "vp-hot"
    # 105 kernel runs: 13 s at half the reference speed.
    memory_groups = 35

    def inputs(self) -> None:
        from repro import asm

        self.isa = _isa()
        self.sources = []
        self.kernels = []
        for name, generate in guest.KERNELS.items():
            source, reference = generate(self.seed, self.work)
            self.sources.append(source)
            self.kernels.append(
                [name, asm.assemble(source, isa=self.isa), reference, None])

    def prepare_checks(self) -> None:
        for kernel in self.kernels:
            kernel[3] = kernel[2]()

    def measure(self, seconds, tally, recorder=None):
        from repro import vp

        mips = {name: [] for name, *_ in self.kernels}
        retired = run_time = 0.0
        count = len(self.kernels)
        tally.start = time.perf_counter()
        clock = SpeedClock(recorder)
        for index in itertools.count():
            name, program, _reference, expected = self.kernels[index % count]
            _start_group(recorder, f"kernel-run:{index}", index < count)
            tally.attempted += 1
            started = time.perf_counter()
            machine = vp.Machine(vp.MachineConfig(isa=self.isa,
                                                  backend="compiled"))
            machine.load(program)
            run_started = time.perf_counter()
            result = machine.run(max_instructions=KERNEL_BUDGET)
            ended = time.perf_counter()
            lap = clock.lap()
            tally.done += 1
            tally.busy += lap
            tally.latencies.append(lap)
            run_scaled = (ended - run_started) * lap / (ended - started)
            mips[name].append(result.instructions / run_scaled / 1e6)
            retired += result.instructions
            run_time += run_scaled
            if result.stop_reason != "exit" or result.exit_code != expected:
                tally.fail(f"{name}: {result.stop_reason} exit "
                           f"{result.exit_code}, expected {expected}")
            if index + 1 == count * self.memory_groups:
                tally.rss_mb = peak_rss_mb()
            if (index + 1) % count == 0 and ended - tally.start >= seconds:
                break
        tally.end = time.perf_counter()
        _start_group(recorder, None, False)
        tally.samples["mips"] = mips
        tally.samples["guest_mips"] = retired / run_time / 1e6

    def digests(self):
        return {"kernels": _digest(self.sources)}

    def layer_metrics(self, traced, untraced):
        return {f"vp.kernel.{name}.mips": statistics.median(values)
                for name, values in untraced.samples["mips"].items()}

    def details(self, tally):
        out = {"guest_mips": tally.samples["guest_mips"]}
        out.update({f"{name}.mips": statistics.median(values)
                    for name, values in tally.samples["mips"].items()})
        return out


class FaultCampaignWorkload(Workload):
    """Coverage-guided fault campaigns on one seeded program."""

    name = "fault-campaign"
    # 400 mutants: 11 s at half the reference speed.
    memory_groups = 4

    def inputs(self) -> None:
        from repro import asm

        self.isa = _isa()
        self.source, self.reference = guest.fault_program(self.seed)
        self.program = asm.assemble(self.source, isa=self.isa)
        self.mutants = max(5, int(CAMPAIGN_MUTANTS * self.work))

    def prepare_checks(self) -> None:
        self.expected = self.reference()

    def measure(self, seconds, tally, recorder=None):
        from repro import faultsim

        code, text = self.expected
        pending = tally.samples.setdefault("pending", [])
        tally.start = time.perf_counter()
        clock = SpeedClock(recorder)
        for index in itertools.count():
            _start_group(recorder, f"campaign:{index}", index == 0)
            laps: List[float] = []
            campaign = faultsim.FaultCampaign(self.program, isa=self.isa)
            golden = campaign.golden()
            # Campaign i samples with seed i in every run, so runs with
            # different seeds classify the same mix of fault kinds on
            # different program data.
            faults = faultsim.default_campaign_mutants(
                self.program, isa=self.isa, mutants=self.mutants,
                seed=index, golden_instructions=golden.instructions)
            tally.attempted += len(faults)
            # One progress call per classified mutant, then a final one:
            # lap k (k >= 1) is mutant k+1; lap 0 also holds the golden
            # run, the mutant generation and the checkpoint sweep.
            result = campaign.run(
                faults, jobs=1, progress_interval=0.0,
                on_progress=lambda _: laps.append(clock.lap()))
            laps.append(clock.lap())
            tally.done += result.total
            tally.busy += sum(laps)
            tally.latencies.extend(laps[1:len(faults)])
            if golden.exit_code != code or golden.uart_output != text:
                tally.fail(f"campaign {index}: golden run exit "
                           f"{golden.exit_code} {golden.uart_output!r}, "
                           f"expected {code} {text!r}", len(faults))
            pending.append((faults[::CHECK_EVERY],
                            [r.outcome for r in
                             result.results[::CHECK_EVERY]]))
            if index == 0:
                tally.samples["first"] = {
                    "counts": result.counts,
                    "ckpt": campaign.checkpoint_stats(),
                    "transient": sum(fault.kind == faultsim.TRANSIENT
                                     for fault in faults),
                    "golden_instructions": golden.instructions,
                }
            if index + 1 == self.memory_groups:
                tally.rss_mb = peak_rss_mb()
            if time.perf_counter() - tally.start >= seconds:
                break
        tally.end = time.perf_counter()
        _start_group(recorder, None, False)

    def check(self, tally):
        """Re-classify every CHECK_EVERY-th mutant on a campaign that
        uses neither checkpoints nor machine reuse."""
        from repro import faultsim

        for faults, outcomes in tally.samples.get("pending", []):
            oracle = faultsim.FaultCampaign(
                self.program, isa=self.isa, checkpoints=False,
                reuse_machine=False)
            for fault, outcome in zip(faults, outcomes):
                again = oracle.run_one(fault).outcome
                if again != outcome:
                    tally.fail(f"{fault.describe()}: {outcome}, oracle "
                               f"says {again}")

    def digests(self):
        from repro import faultsim

        campaign = faultsim.FaultCampaign(self.program, isa=self.isa)
        faults = faultsim.default_campaign_mutants(
            self.program, isa=self.isa, mutants=self.mutants, seed=0,
            golden_instructions=campaign.golden().instructions)
        return {"program": _digest(self.source),
                "faults": _digest([fault.describe() for fault in faults])}

    def layer_metrics(self, traced, untraced):
        first = traced.samples["first"]
        ckpt, transient = first["ckpt"], first["transient"]
        out = {f"faultsim.outcome.{name}": first["counts"][name]
               for name in OUTCOMES}
        out["faultsim.ckpt.early_exit_frac"] = _ratio(ckpt["early_exits"],
                                                      transient)
        out["faultsim.ckpt.skipped_insn_frac"] = _ratio(
            ckpt["instructions_skipped"],
            transient * first["golden_instructions"])
        return out


class VerifyCold(Workload):
    """Differential verification of a seeded torture corpus, each pass
    on freshly built machines."""

    name = "verify-cold"
    # 600 programs: 13 s at half the reference speed.
    memory_groups = 4

    def inputs(self) -> None:
        from repro import verify

        programs = max(4, int(CORPUS_PROGRAMS * self.work))
        self.campaign = verify.DiffCampaign(
            _isa(), verify.VerifyCampaignConfig(
                corpus=f"torture:{programs}", matrix="interp:compiled",
                seed=self.seed))
        self.campaign.corpus()

    def measure(self, seconds, tally, recorder=None):
        tally.start = time.perf_counter()
        clock = SpeedClock(recorder)
        for index in itertools.count():
            _start_group(recorder, f"pass:{index}", index == 0)
            laps: List[float] = []
            result = self.campaign.run(
                progress_interval=0.0,
                on_progress=lambda _: laps.append(clock.lap()))
            laps.append(clock.lap())
            programs = result.meta["programs"]
            tally.attempted += programs
            tally.done += programs
            tally.busy += sum(laps)
            tally.latencies.extend(laps[:programs])
            if result.divergences:
                escalated = {record["program_index"]
                             for record in result.escalations}
                tally.fail(f"pass {index}: {result.divergences} "
                           "divergence(s)", len(escalated))
            if index + 1 == self.memory_groups:
                tally.rss_mb = peak_rss_mb()
            if time.perf_counter() - tally.start >= seconds:
                break
        tally.end = time.perf_counter()
        _start_group(recorder, None, False)

    def digests(self):
        return {"corpus": self.campaign.meta()["corpus_digest"]}


class _Child:
    """A ``python -m repro`` subprocess; a thread drains its stderr and
    picks out the URL it listens on."""

    def __init__(self, args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.args = args
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.tail: collections.deque = collections.deque(maxlen=20)
        self._urls: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.tail.append(line.rstrip())
            match = URL_PATTERN.search(line)
            if match:
                self._urls.put(match.group(0))

    def url(self, timeout: float) -> str:
        try:
            return self._urls.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(
                f"repro {self.args[0]} printed no URL within {timeout} s: "
                f"{list(self.tail)}") from None

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=5)


class ServeMix(Workload):
    """A closed loop of CLIENTS threads submitting a seeded job plan to
    ``repro serve`` and waiting for each result."""

    name = "serve-mix"
    threads = CLIENTS
    nodes = 0

    def server_args(self) -> List[str]:
        # In thread mode the jobs share one interpreter with the HTTP
        # threads, and the GIL hand-offs between them slow down more
        # than the host does: scaled jobs/s still fell with host speed
        # (correlation -0.94, 18% spread over 12 runs).  Process mode
        # runs the jobs in a forked pool and follows the calibration.
        return ["serve", "--port", "0", "--workers", "2",
                "--mode", "process"]

    def inputs(self) -> None:
        self.payloads = guest.service_payloads()
        self.plan = guest.service_plan(self.seed, len(self.payloads),
                                       PLAN_LENGTH)

    def setup(self) -> None:
        from repro.serve.client import ServiceClient

        self.inputs()
        self.children: List[_Child] = []
        server = _Child(self.server_args())
        self.children.append(server)
        self.url = server.url(START_TIMEOUT)
        self.client = ServiceClient(self.url, timeout=HTTP_TIMEOUT)
        deadline = time.monotonic() + START_TIMEOUT
        for index in range(self.nodes):
            self.children.append(_Child(
                ["node", "--coordinator", self.url, "--name",
                 f"bench-{index}", "--poll-interval", str(POLL_INTERVAL)]))
        while True:
            try:
                service = self.client.health()
            except OSError:  # not accepting connections yet
                service = {}
            nodes = service.get("cluster", {}).get("nodes", [])
            if service.get("status") == "ok" and len(nodes) >= self.nodes:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name}: service not ready: "
                                   f"{[list(c.tail) for c in self.children]}")
            time.sleep(0.01)
        for kind, payload in self.payloads:  # untimed warm-up, one each
            job = self.client.submit(kind, payload)
            view = self.client.wait(job["id"], timeout=JOB_TIMEOUT,
                                    poll_interval=POLL_INTERVAL)
            if view["state"] != "succeeded":
                raise RuntimeError(f"warm-up {kind} job {view['state']}: "
                                   f"{view.get('error')}")

    def prepare_checks(self) -> None:
        """Each payload's direct ``execute_job`` result (the oracle) and
        the scaled time of its second direct run."""
        from repro.serve import executors

        self.expected = []
        self.direct_s = []
        clock = SpeedClock()
        for kind, payload in self.payloads:
            result = executors.execute_job(kind, payload)
            clock.lap()
            executors.execute_job(kind, payload)
            self.direct_s.append(clock.lap())
            self.expected.append(canonical(result))

    def _events(self) -> int:
        return self.client.stats()["service"]["events"]["total_appended"]

    @staticmethod
    def _wait(client, job_id: str, recorder):
        """What ``client.wait(job_id, poll_interval=POLL_INTERVAL)``
        does, request for request; also returns the ``(start, end)`` of
        every sleep between two polls."""
        from repro.serve.client import ServiceError

        deadline = time.monotonic() + JOB_TIMEOUT
        sleeps = []
        while True:
            try:
                return client.result(job_id), sleeps
            except ServiceError as exc:
                if exc.status != 409:
                    raise
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} unresolved after {JOB_TIMEOUT}s")
            record = recorder.open(POLL_SPAN) if recorder else None
            slept = time.perf_counter()
            time.sleep(POLL_INTERVAL)
            sleeps.append((slept, time.perf_counter()))
            if record is not None:
                recorder.close(record)

    def measure(self, seconds, tally, recorder=None):
        from repro.serve.client import ServiceClient

        lock = threading.Lock()
        cursor = itertools.count()
        jobs = []
        events = self._events() if recorder is not None else 0
        timeline = SpeedTimeline()
        tally.start = time.perf_counter()
        deadline = tally.start + seconds

        def client_loop() -> None:
            started_thread = time.perf_counter()
            client = ServiceClient(self.url, timeout=HTTP_TIMEOUT)
            while time.perf_counter() < deadline:
                with lock:
                    index = next(cursor)
                    tally.attempted += 1
                slot = self.plan[index % len(self.plan)]
                kind, payload = self.payloads[slot]
                if recorder is not None:
                    recorder.set_request(f"job:{index}")
                started = time.perf_counter()
                try:
                    job = client.submit(kind, payload)
                    submitted = time.perf_counter()
                    view, sleeps = self._wait(client, job["id"], recorder)
                except Exception as exc:  # noqa: BLE001 - a failed op
                    tally.fail(f"{kind} job {index}: {exc!r}")
                    continue
                ended = time.perf_counter()
                queued = view.get("queue_seconds") or 0.0
                ran = view.get("run_seconds") or 0.0
                # Sleeping after the job finished is waiting for the
                # next poll, which takes as long on a fast host as on a
                # slow one: it is left out of the scaling.
                finished = submitted + queued + ran
                idle = sum(max(0.0, end - max(begin, finished))
                           for begin, end in sleeps)
                with lock:
                    tally.done += 1
                    jobs.append((slot, started, ended, idle, queued, ran))
                if view.get("state") != "succeeded":
                    tally.fail(f"{kind} job {index} {view.get('state')}: "
                               f"{view.get('error')}")
                elif canonical(view.get("result")) != self.expected[slot]:
                    tally.fail(f"{kind} job {index}: result differs from "
                               "the direct execute_job result")
            with lock:
                tally.thread_seconds += time.perf_counter() - started_thread

        clients = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(self.threads)]
        for thread in clients:
            thread.start()
        hard_limit = deadline + JOB_TIMEOUT + 2 * HTTP_TIMEOUT
        for thread in clients:
            thread.join(timeout=max(0.0, hard_limit - time.perf_counter()))
        tally.end = time.perf_counter()
        timeline.stop()
        stuck = sum(thread.is_alive() for thread in clients)
        if stuck:
            tally.fail(f"{stuck} client(s) still waiting at the hard limit",
                       stuck)
        with lock:
            finished_jobs = list(jobs)
        scaled_jobs = []
        for slot, started, ended, idle, queued, ran in finished_jobs:
            raw = ended - started
            lap = timeline.scale(started, ended, raw - idle) + idle
            tally.busy += lap
            tally.latencies.append(lap)
            scaled_jobs.append((slot, raw, lap, queued, ran))
        tally.samples["jobs"] = scaled_jobs
        if recorder is not None:
            tally.samples["events"] = self._events() - events

    def memory_mb(self) -> float:
        """The peak resident memory of the server, the nodes and the
        processes they started, summed."""
        return sum(peak_rss_mb(pid) for child in self.children
                   for pid in process_tree(child.process.pid))

    def digests(self):
        return {"plan": _digest(self.payloads, self.plan)}

    def layer_metrics(self, traced, untraced):
        jobs = traced.samples["jobs"]
        raw = sum(job[1] for job in jobs)
        scaled = sum(job[2] for job in jobs)
        queued = sum(job[3] for job in jobs)
        ran = sum(job[4] for job in jobs)
        out = {
            # Server-reported times against raw latency; the direct run
            # against scaled latency (both were scaled).
            "service.queue.share": _ratio(queued, raw),
            "service.run.share": _ratio(ran, raw),
            "service.overhead.share": _ratio(raw - queued - ran, raw),
            "service.direct.share": _ratio(
                sum(self.direct_s[job[0]] for job in jobs), scaled),
            "telemetry.events_per_job": _ratio(traced.samples["events"],
                                               len(jobs)),
        }
        for kind in SERVICE_KINDS:
            mine = [(job[2], self.direct_s[job[0]]) for job in jobs
                    if self.payloads[job[0]][0] == kind]
            out[f"service.kind.{kind}.slowdown"] = _ratio(
                statistics.median(latency for latency, _ in mine),
                statistics.median(direct for _, direct in mine)) \
                if mine else 0.0
        return out

    def close(self) -> None:
        # Nodes first, so none is left polling a stopped coordinator.
        for child in reversed(getattr(self, "children", [])):
            child.stop()


class ClusterMix(ServeMix):
    """The serve-mix plan against ``repro coordinator`` and two
    ``repro node`` processes."""

    name = "cluster-mix"
    nodes = 2

    def server_args(self) -> List[str]:
        return ["coordinator", "--port", "0"]


WORKLOADS = {cls.name: cls for cls in (VpHot, FaultCampaignWorkload,
                                        VerifyCold, ServeMix, ClusterMix)}


def end_to_end(tally: Tally, threads: int) -> Dict[str, dict]:
    latencies = tally.latencies
    values = {
        "ops_per_s": (tally.done * threads / max(tally.busy, 1e-9),
                      tally.done),
        "op_latency_p50_ms": (percentile(latencies, 50) * 1000,
                              len(latencies)),
        "op_latency_p90_ms": (percentile(latencies, 90) * 1000,
                              len(latencies)),
        "peak_rss_mb": (tally.rss_mb, 1),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name], "n": n}
            for name, (value, n) in values.items()}


def per_layer(workload: Workload, recorder: ledger.SpanRecorder,
              untraced: Tally, traced: Tally) -> Dict[str, dict]:
    units = layer_units()
    totals, covered = recorder.totals(traced.start, traced.end)
    calibrating = totals.get(CALIBRATION_SPAN, (0, 0.0))[1]
    busy = (traced.thread_seconds or traced.wall) - calibrating
    ops = max(traced.done, 1)
    values: Dict[str, tuple] = {}
    for span in ledger.SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        values[f"{span}.share"] = (self_s / busy, calls)
        values[f"{span}.calls_per_op"] = (calls / ops, ops)
    count = recorder.counters.get
    tb = count("tb.hits", 0) + count("tb.misses", 0)
    fast = count("mem.fastpath_loads", 0) + count("mem.fastpath_stores", 0)
    slow = (count("mem.fastpath_fallback_loads", 0)
            + count("mem.fastpath_fallback_stores", 0))
    compiled = (count("jit.compiled_instructions", 0)
                + count("jit.trace_instructions", 0))
    retired = compiled + count("jit.interp_instructions", 0)
    group = {  # exact counts over the first operation group
        "vp.tb.miss_ratio": _ratio(count("tb.misses", 0), tb),
        "vp.mem.fastpath_hit_rate": _ratio(fast, fast + slow),
        "vp.jit.insns_per_compile": _ratio(
            compiled, count("jit.blocks_compiled", 0)),
        "vp.jit.interp_insn_frac": _ratio(
            count("jit.interp_instructions", 0), retired),
        "vp.jit.trace_insn_frac": _ratio(
            count("jit.trace_instructions", 0), retired),
        "vp.jit.failures": (count("jit.compile_failures", 0)
                            + count("jit.trace_failures", 0)),
        "vp.restore.pages_per_call": _ratio(count("restore.pages", 0),
                                            count("restore.calls", 0)),
        "sim.instructions": count("sim.instructions", 0),
        "sim.cycles": count("sim.cycles", 0),
    }
    values.update({name: (value, 1) for name, value in group.items()})
    values.update({name: (value, traced.done) for name, value in
                   workload.layer_metrics(traced, untraced).items()})
    # Calibrations are spans too: top-level between operations, nested
    # inside a campaign's progress callback.
    values["trace.coverage_frac"] = ((covered - calibrating) / busy,
                                     traced.done)
    values["trace.overhead_frac"] = (
        (untraced.done / max(untraced.busy, 1e-9))
        / max(traced.done / max(traced.busy, 1e-9), 1e-12) - 1.0,
        traced.done)
    return {name: {"value": float(values.get(name, (0.0, 0))[0]),
                   "unit": unit, "n": values.get(name, (0.0, 0))[1]}
            for name, unit in units.items()}


def _program_origin_error() -> Optional[str]:
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"repro was imported from {origin}, not from {SRC}"
    return None


def _measure(workload: Workload, mode: str, seconds: float,
             recorder: ledger.SpanRecorder,
             instrumentation: ledger.Instrumentation,
             phases: List[Tally], out: dict) -> None:
    workload.prepare_checks()
    phases.append(Tally())
    # Each phase starts without the garbage of what came before it.
    gc.collect()
    workload.measure(seconds if mode == "measure" else seconds / 2,
                     phases[0])
    phases[0].rss_mb = phases[0].rss_mb or workload.memory_mb()
    if mode == "trace":
        instrumentation.install()
        phases.append(Tally())
        gc.collect()
        workload.measure(seconds / 2, phases[1], recorder)
        instrumentation.uninstall()
    for tally in phases:
        workload.check(tally)
    out["digests"] = workload.digests()
    if mode == "measure":
        out["metrics"] = end_to_end(phases[0], workload.threads)
        out["details"] = workload.details(phases[0])
    else:
        out["metrics"] = per_layer(workload, recorder, *phases)


def run(name: str, seed: int, seconds: float, mode: str,
        t0: Optional[float] = None, calibration: Optional[float] = None,
        work: float = 1.0, spans_out: Optional[str] = None) -> dict:
    """Run one workload in this process; the result ``run.py`` reads.

    ``setup_s`` counts from ``t0`` (default: now), at the host speed
    ``calibration`` measured then (default: now); ``work`` scales every
    workload's fixed work (tests use less)."""
    if mode not in ("setup", "measure", "trace"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.monotonic() if t0 is None else t0
    started_calibration = calibration or calibrate()
    workload = WORKLOADS[name](seed, work)
    out: dict = {"workload": name, "seed": seed, "mode": mode,
                 "errors": [], "attempted": 0, "failed": 0}
    recorder = ledger.SpanRecorder()
    instrumentation = ledger.Instrumentation(recorder)
    origin = time.perf_counter()
    phases: List[Tally] = []
    try:
        if mode == "trace":
            instrumentation.install()
        workload.setup()
        setup_wall = time.monotonic() - t0
        instrumentation.uninstall()
        out["setup_s"] = scale(setup_wall,
                               (started_calibration + calibrate()) / 2)
        problem = _program_origin_error()
        if problem:
            out["errors"].append(problem)
        if mode != "setup":
            _measure(workload, mode, seconds, recorder, instrumentation,
                     phases, out)
    finally:
        instrumentation.uninstall()
        workload.close()
        for tally in phases:
            out["attempted"] += tally.attempted
            out["failed"] += tally.failed
            out["errors"].extend(tally.errors)
    if mode == "trace":
        calls = recorder.calls()
        out["errors"].extend(
            f"span {span} recorded no call"
            for span, workloads in ledger.SPANS.items()
            if name in workloads and not calls.get(span))
        out["errors"].extend(f"span wrapper still installed: {where}"
                             for where in ledger.leftovers())
        if spans_out:
            out["spans"] = recorder.write(spans_out, origin)
    out["correct"] = not out["errors"] and out["failed"] == 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the process started")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.mode,
                  t0=args.t0 or T_START, calibration=T_CALIBRATION,
                  spans_out=args.spans_out)
    except Exception:  # noqa: BLE001 - reported to run.py, not swallowed
        import traceback

        out = {"workload": args.workload, "seed": args.seed,
               "mode": args.mode, "correct": False, "attempted": 0,
               "failed": 0, "errors": [traceback.format_exc()]}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
