"""Live coverage-frontier view rendered from ``fuzz.*`` telemetry.

The fuzz engine already emits the full frontier trajectory —
``fuzz.started``, one ``fuzz.coverage`` per corpus add, periodic
``fuzz.progress``, and ``fuzz.finished``.  :func:`frontier_from_events`
folds any event stream (a live service log, a saved JSONL file) into a
JSON-friendly snapshot: per fuzz session, the coverage curve (execs →
coverage elements) plus the latest corpus/finding counts.  The batch
service serves this on ``GET /v1/fuzz/frontier`` and ``repro top``
renders it live.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["frontier_from_events", "render_frontier"]

_FRONTIER_TYPES = ("fuzz.started", "fuzz.coverage", "fuzz.progress",
                   "fuzz.finished")


def _session_key(event: Dict) -> str:
    """Group events by the job they rode in on (merged worker events are
    tagged with ``job``); untagged events share one anonymous session."""
    return str(event.get("job", event.get("id", "-")))


def frontier_from_events(events: Iterable[Dict],
                         max_points: int = 200) -> Dict:
    """Fold an event stream into the coverage-frontier snapshot.

    Returns ``{"sessions": [...], "active": N}``.  Each session carries
    ``points`` — up to ``max_points`` ``(execs, coverage_elements,
    corpus_size)`` triples, uniformly thinned when the curve is longer —
    and a ``latest`` summary with findings and throughput.
    """
    sessions: Dict[str, Dict] = {}
    for event in events:
        event_type = event.get("type")
        if event_type not in _FRONTIER_TYPES:
            continue
        key = _session_key(event)
        session = sessions.setdefault(key, {
            "session": key,
            "started": None,
            "finished": False,
            "points": [],
            "latest": {},
        })
        if event_type == "fuzz.started":
            session["started"] = {
                "isa": event.get("isa"),
                "seed": event.get("seed"),
                "iterations": event.get("iterations"),
                "jobs": event.get("jobs"),
                "ts_us": event.get("ts_us"),
            }
        elif event_type == "fuzz.coverage":
            session["points"].append({
                "execs": event.get("execs", 0),
                "coverage_elements": event.get("coverage_elements", 0),
                "corpus_size": event.get("corpus_size", 0),
            })
        elif event_type == "fuzz.progress":
            session["latest"] = {
                "execs": event.get("execs", 0),
                "total": event.get("total"),
                "coverage_elements": event.get("coverage_elements", 0),
                "corpus_size": event.get("corpus_size", 0),
                "findings": event.get("findings", 0),
                "execs_per_second": event.get("execs_per_second", 0.0),
            }
        elif event_type == "fuzz.finished":
            session["finished"] = True
            session["latest"] = {
                "execs": event.get("iterations", 0),
                "total": event.get("iterations"),
                "coverage_elements": event.get("coverage_elements", 0),
                "corpus_size": event.get("corpus_size", 0),
                "findings": event.get("findings", 0),
                "execs_per_second": event.get("execs_per_second", 0.0),
            }
    ordered = []
    for session in sessions.values():
        points = session["points"]
        if len(points) > max_points:
            # Uniform thinning, always keeping the final frontier point.
            step = len(points) / max_points
            thinned = [points[int(i * step)] for i in range(max_points - 1)]
            thinned.append(points[-1])
            session["points"] = thinned
        if not session["latest"] and points:
            session["latest"] = dict(points[-1])
        ordered.append(session)
    ordered.sort(key=lambda s: s["session"])
    active = sum(1 for s in ordered if not s["finished"])
    return {"sessions": ordered, "active": active}


def render_frontier(frontier: Dict) -> str:
    """A terminal table of the frontier snapshot (used by ``repro top``)."""
    sessions = frontier.get("sessions", [])
    if not sessions:
        return "(no fuzz sessions observed)"
    header = (f"{'session':<12} {'state':<9} {'execs':>10} {'corpus':>8} "
              f"{'coverage':>9} {'findings':>9} {'execs/s':>9}")
    lines = [header, "-" * len(header)]
    for session in sessions:
        latest = session.get("latest", {})
        state = "finished" if session.get("finished") else "running"
        lines.append(
            f"{session['session']:<12} {state:<9} "
            f"{latest.get('execs', 0):>10,} "
            f"{latest.get('corpus_size', 0):>8,} "
            f"{latest.get('coverage_elements', 0):>9,} "
            f"{latest.get('findings', 0):>9,} "
            f"{latest.get('execs_per_second', 0.0):>9,.0f}")
    return "\n".join(lines)
