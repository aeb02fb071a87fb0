"""The job model, kinds and client of the simulation service.

The service turns every one-shot workload in the reproduction — VP runs,
fault-injection campaigns, coverage collection, QTA/WCET analyses — into
a submittable **job** executed by a long-lived process.  This package
holds what every part of the service shares:

* :mod:`repro.serve.jobs` — the job model: specs, states, priorities,
  deadlines, retry/timeout policy,
* :mod:`repro.serve.queue` — an admission-controlled bounded priority
  queue with backpressure (:class:`QueueFull` maps to HTTP 429),
* :mod:`repro.serve.executors` — the job-kind registry mapping JSON
  payloads onto the existing library entry points,
* :mod:`repro.serve.client` — a thin :mod:`urllib`-based client used by
  ``python -m repro submit``, ``repro cluster-status`` and worker nodes.

The service itself is :class:`repro.cluster.ClusterCoordinator`:
``repro serve`` runs it with in-process workers, ``repro coordinator``
with none, and worker nodes attach to either.  A job executed through
it produces results identical to the direct library call
(byte-identical ``CampaignResult.to_json()`` for fault campaigns).
Job telemetry flows through the shared :mod:`repro.telemetry` registry
under the ``serve.*`` namespace, so ``repro serve --stats`` /
``--events-out`` / ``--trace-out`` work exactly like the one-shot
commands.
"""

from .executors import ExecutorError, execute_job, job_kinds, register_executor
from .jobs import (
    FINAL_STATES,
    Job,
    JobCancelled,
    JobContext,
    JobSpec,
    JobTimeout,
    STATES,
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_RUNNING,
    STATE_SUCCEEDED,
    STATE_TIMEOUT,
)
from .queue import AdmissionQueue, QueueClosed, QueueFull

__all__ = [
    "AdmissionQueue",
    "ExecutorError",
    "FINAL_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobSpec",
    "JobTimeout",
    "QueueClosed",
    "QueueFull",
    "STATES",
    "STATE_CANCELLED",
    "STATE_FAILED",
    "STATE_PENDING",
    "STATE_RUNNING",
    "STATE_SUCCEEDED",
    "STATE_TIMEOUT",
    "execute_job",
    "job_kinds",
    "register_executor",
]
