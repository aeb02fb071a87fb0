"""``repro top`` — a live terminal view of a running batch service.

Polls the service's observability surface — ``GET /v1/health``,
``GET /metrics`` (Prometheus text), ``GET /v1/events?since=`` and
``GET /v1/fuzz/frontier`` — and renders a refreshing status screen:
worker/queue occupancy, job-state tallies, queue-wait and job-duration
percentiles (estimated client-side from the scraped histogram buckets),
the live fuzz coverage frontier, and the most recent events.  Pure
stdlib; the rendering is a pure function of the fetched snapshots so it
is directly testable without a terminal.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from ..telemetry.prometheus import parse_prometheus
from .frontier import render_frontier

__all__ = ["ServiceStatus", "fetch_status", "render_top", "run_top",
           "quantile_from_buckets"]


def quantile_from_buckets(buckets: Dict[Tuple, float],
                          q: float) -> Optional[float]:
    """Estimate a quantile from Prometheus cumulative ``_bucket`` samples.

    ``buckets`` is the ``{(("le", bound),): cumulative_count}`` mapping
    :func:`parse_prometheus` produces for one ``*_bucket`` series.
    """
    bounds: List[Tuple[float, float]] = []
    for labels, cumulative in buckets.items():
        le = dict(labels).get("le")
        if le is None:
            continue
        bound = math.inf if le in ("+Inf", "Inf") else float(le)
        bounds.append((bound, cumulative))
    if not bounds:
        return None
    bounds.sort(key=lambda pair: pair[0])
    total = bounds[-1][1]
    if total <= 0:
        return None
    target = q * total
    previous_bound, previous_cum = 0.0, 0.0
    for bound, cumulative in bounds:
        if cumulative >= target:
            if math.isinf(bound):
                return previous_bound
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:
                return bound
            fraction = (target - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cumulative
    return previous_bound


class ServiceStatus:
    """One polled snapshot of a service's observability surface."""

    def __init__(self, health: Dict, metrics: Dict[str, Dict],
                 frontier: Dict, events: List[Dict],
                 events_cursor: int = 0, error: Optional[str] = None) -> None:
        self.health = health
        self.metrics = metrics
        self.frontier = frontier
        self.events = events
        self.events_cursor = events_cursor
        self.error = error


def _get(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def fetch_status(base_url: str, since: int = 0,
                 timeout: float = 5.0) -> ServiceStatus:
    """Poll all observability endpoints once (errors become a status)."""
    base = base_url.rstrip("/")
    try:
        health = json.loads(_get(f"{base}/v1/health", timeout))
        metrics = parse_prometheus(
            _get(f"{base}/metrics", timeout).decode("utf-8"))
        frontier = json.loads(_get(f"{base}/v1/fuzz/frontier", timeout))
        tail = json.loads(_get(f"{base}/v1/events?since={since}", timeout))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return ServiceStatus({}, {}, {}, [], since,
                             error=f"{base}: {exc}")
    return ServiceStatus(health, metrics, frontier,
                         tail.get("events", []), tail.get("next", since))


def _metric(metrics: Dict[str, Dict], name: str, default=0.0) -> float:
    series = metrics.get(name)
    if not series:
        return default
    return next(iter(series.values()))


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_top(status: ServiceStatus, url: str = "",
               recent_events: int = 8) -> str:
    """Render one status snapshot as the ``repro top`` screen."""
    if status.error:
        return f"repro top — cannot reach service\n  {status.error}"
    health = status.health
    metrics = status.metrics
    lines = [f"repro top — {url or 'service'}  "
             f"[{health.get('status', '?')}]"]
    lines.append(
        f"workers {health.get('running', 0)}/{health.get('workers', 0)} busy"
        f"  mode {health.get('mode', '?')}"
        f"  queue {health.get('queue_depth', 0)}/"
        f"{health.get('queue_limit', 0)}")
    jobs = health.get("jobs", {})
    lines.append("jobs   " + "  ".join(
        f"{state}:{jobs.get(state, 0)}"
        for state in ("pending", "running", "succeeded", "failed",
                      "cancelled", "timeout")))
    submitted = _metric(metrics, "repro_serve_submitted_total")
    rejected = _metric(metrics, "repro_serve_rejected_total")
    dropped = _metric(metrics, "repro_events_dropped")
    lines.append(f"totals submitted:{submitted:.0f}  rejected:{rejected:.0f}"
                 f"  events_dropped:{dropped:.0f}")
    queue_buckets = metrics.get("repro_serve_queue_wait_seconds_bucket", {})
    job_buckets = metrics.get("repro_serve_job_seconds_bucket", {})
    lines.append(
        "queue wait p50/p99  "
        f"{_fmt_seconds(quantile_from_buckets(queue_buckets, 0.5))}/"
        f"{_fmt_seconds(quantile_from_buckets(queue_buckets, 0.99))}"
        "    job time p50/p99  "
        f"{_fmt_seconds(quantile_from_buckets(job_buckets, 0.5))}/"
        f"{_fmt_seconds(quantile_from_buckets(job_buckets, 0.99))}")
    # Present only when a vp_run executed under the compiled backend —
    # the machine publishes its tier counters as vp.jit.* gauges.
    if "repro_vp_jit_blocks_compiled" in metrics:
        compiled = _metric(metrics, "repro_vp_jit_compiled_instructions")
        interp = _metric(metrics, "repro_vp_jit_interp_instructions")
        traced = _metric(metrics, "repro_vp_jit_trace_instructions")
        total = compiled + interp + traced
        share = (compiled + traced) / total if total else 0.0
        lines.append(
            f"jit    blocks:"
            f"{_metric(metrics, 'repro_vp_jit_blocks_compiled'):.0f}"
            f"  traces:"
            f"{_metric(metrics, 'repro_vp_jit_traces_compiled'):.0f}"
            f"  trace-tier:{traced:.0f}"
            f"  compiled-tier:{compiled:.0f} ({share:.1%} compiled)"
            f"  interp-tier:{interp:.0f}"
            f"  failures:"
            f"{_metric(metrics, 'repro_vp_jit_compile_failures'):.0f}")
    # vp.mem.* gauges: published by every backend once a run executes.
    if "repro_vp_mem_fastpath_hit_rate" in metrics:
        fast = (_metric(metrics, "repro_vp_mem_fastpath_loads")
                + _metric(metrics, "repro_vp_mem_fastpath_stores"))
        bus = (_metric(metrics, "repro_vp_mem_fastpath_fallback_loads")
               + _metric(metrics, "repro_vp_mem_fastpath_fallback_stores"))
        rate = _metric(metrics, "repro_vp_mem_fastpath_hit_rate")
        lines.append(f"mem    fastpath:{fast:.0f} ({rate:.1%} hit)"
                     f"  bus:{bus:.0f}")
    # verify.* counters: published once a verify job has compared
    # anything on this service (or a worker that reported through it).
    if "repro_verify_comparisons_total" in metrics:
        lines.append("")
        lines.append("--- verify ---")
        lines.append(
            f"progs:"
            f"{_metric(metrics, 'repro_verify_programs_total'):.0f}"
            f"  comparisons:"
            f"{_metric(metrics, 'repro_verify_comparisons_total'):.0f}"
            f"  divergences:"
            f"{_metric(metrics, 'repro_verify_divergences_total'):.0f}"
            f"  escalations:"
            f"{_metric(metrics, 'repro_verify_escalations_total'):.0f}"
            f"  findings:"
            f"{_metric(metrics, 'repro_verify_findings'):.0f}")
    cluster = health.get("cluster")
    if cluster:
        work = cluster.get("work", {})
        lines.append("")
        lines.append("--- cluster ---")
        lines.append(
            f"work   pending:{work.get('pending', 0)}"
            f"  leased:{work.get('leased', 0)}"
            f"  done:{work.get('done', 0)}"
            f"  failed:{work.get('failed', 0)}"
            f"  requeued:{cluster.get('work_requeued', 0)}"
            f"  nodes_lost:{cluster.get('nodes_lost', 0)}")
        nodes = cluster.get("nodes") or []
        if not nodes:
            lines.append("nodes  (none attached)")
        for row in nodes:
            node_stats = row.get("stats") or {}
            busy = "*" if node_stats.get("busy") else " "
            state = "draining" if row.get("draining") else "live"
            lines.append(
                f"  {row.get('id', '?'):<9}{busy}"
                f"{(row.get('name') or '-'):<16} "
                f"{state:<9} "
                f"exec:{node_stats.get('executed', 0):<6} "
                f"fail:{node_stats.get('failed', 0):<4} "
                f"hb:{row.get('heartbeat_age_seconds', 0):.1f}s")
    lines.append("")
    lines.append("--- fuzz frontier ---")
    lines.append(render_frontier(status.frontier))
    if status.events:
        lines.append("")
        lines.append("--- recent events ---")
        for event in status.events[-recent_events:]:
            ts = event.get("ts_us", 0) / 1e6
            detail = {k: v for k, v in event.items()
                      if k not in ("type", "ts_us", "dur_us")
                      and not isinstance(v, (dict, list))}
            text = " ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            lines.append(f"  {ts:>10.3f}s  {event.get('type', '?'):<20} "
                         f"{text}"[:100])
    return "\n".join(lines)


def run_top(url: str, interval: float = 2.0, iterations: int = 0,
            out=None, clock=time.monotonic,
            sleep=time.sleep) -> int:
    """The polling loop behind ``repro top``.

    ``iterations=0`` polls until interrupted; a positive count renders
    that many frames (used by tests and one-shot ``--once`` scrapes).
    Returns 0 when the final poll succeeded, 1 when it errored.
    """
    import sys

    out = out if out is not None else sys.stdout
    cursor = 0
    frame = 0
    status = None
    try:
        while True:
            status = fetch_status(url, since=cursor)
            cursor = status.events_cursor
            frame += 1
            if frame > 1 and out.isatty():  # pragma: no cover - terminal
                out.write("\x1b[2J\x1b[H")
            out.write(render_top(status, url=url))
            out.write("\n")
            out.flush()
            if iterations and frame >= iterations:
                break
            sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 1 if (status is None or status.error) else 0
