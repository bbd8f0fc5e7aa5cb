"""Trace exporters: JSONL, Chrome trace-event format, summary table.

Three consumers of one :class:`~repro.obs.tracer.Tracer`:

* :func:`write_jsonl` — one JSON object per line (spans and instants,
  in completion order); greppable, diffable, the input
  ``--diff-trace`` and :func:`repro.obs.build_attribution` consume.
* :func:`write_chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / https://ui.perfetto.dev): spans become
  complete (``"ph": "X"``) events with microsecond ``ts``/``dur``,
  instant events become ``"ph": "i"``.
* :func:`summary_report` — top-N spans by total wall time rendered with
  the same :class:`repro.analysis.report.ExperimentReport` table
  machinery every experiment uses.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.tracer import SpanEvent, Tracer, get_tracer

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "summary_report",
    "summary",
]


def _json_safe(value):
    """Coerce attr values to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


def to_jsonl(tracer: Optional[Tracer] = None) -> str:
    """Serialize the tracer's events, one JSON doc per line."""
    tracer = tracer or get_tracer()
    lines: List[str] = []
    for ev in tracer.events:
        doc = {
            "type": "span" if ev.is_span else "instant",
            "name": ev.name,
            "ts_us": round(ev.ts_us, 3),
            "tid": ev.tid,
            "depth": ev.depth,
            "parent": ev.parent,
        }
        if ev.is_span:
            doc["dur_us"] = round(ev.dur_us, 3)
        if ev.category:
            doc["cat"] = ev.category
        if ev.attrs:
            doc["attrs"] = _json_safe(ev.attrs)
        lines.append(json.dumps(doc))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: str, tracer: Optional[Tracer] = None) -> int:
    """Write the JSONL export to ``path``; returns the line count."""
    text = to_jsonl(tracer)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


def to_chrome_trace(tracer: Optional[Tracer] = None) -> Dict:
    """Build a Chrome trace-event document (load in chrome://tracing)."""
    tracer = tracer or get_tracer()
    # Chrome renders raw thread ids poorly; remap to small ordinals.
    tid_map: Dict[int, int] = {}
    trace_events: List[Dict] = []
    for ev in tracer.events:
        tid = tid_map.setdefault(ev.tid, len(tid_map))
        doc = {
            "name": ev.name,
            "cat": ev.category or "repro",
            "ph": "X" if ev.is_span else "i",
            "ts": round(ev.ts_us, 3),
            "pid": 0,
            "tid": tid,
        }
        if ev.is_span:
            doc["dur"] = round(ev.dur_us, 3)
        else:
            doc["s"] = "t"  # instant scope: thread
        if ev.attrs:
            doc["args"] = _json_safe(ev.attrs)
        trace_events.append(doc)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Optional[Tracer] = None) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    doc = to_chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def summary_report(tracer: Optional[Tracer] = None, top: int = 10):
    """Top-N span names by total wall time as an ExperimentReport."""
    from repro.analysis.report import ExperimentReport

    tracer = tracer or get_tracer()
    agg: Dict[str, List[float]] = {}
    for ev in tracer.events:
        if ev.is_span:
            agg.setdefault(ev.name, []).append(ev.dur_us)
    rep = ExperimentReport(
        "Trace",
        f"top {top} spans by total wall time",
        headers=["span", "count", "total ms", "mean ms", "max ms"],
    )
    # Tie-break equal totals by name so report diffs are stable across runs.
    ranked = sorted(agg.items(), key=lambda kv: (-sum(kv[1]), kv[0]))[:top]
    for name, durs in ranked:
        rep.add_row(
            name,
            len(durs),
            f"{sum(durs) / 1e3:.3f}",
            f"{sum(durs) / len(durs) / 1e3:.3f}",
            f"{max(durs) / 1e3:.3f}",
        )
    n_instant = sum(1 for ev in tracer.events if not ev.is_span)
    rep.add_note(
        f"{len(tracer.events)} events ({n_instant} instant), "
        f"{len(agg)} distinct spans"
    )
    return rep


def summary(tracer: Optional[Tracer] = None, top: int = 10) -> str:
    """Rendered text of :func:`summary_report`."""
    return summary_report(tracer, top=top).render()
