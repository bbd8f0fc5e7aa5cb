"""Measured hardware counters and the benchmark run registry.

Two layers live here, both feeding the perf-engineering loop that the
regression gate (:mod:`repro.obs.regress`) and the dashboard
(:mod:`repro.obs.dashboard`) close:

1. **Measured counters** — :class:`OpCounters` collected by a
   process-wide :class:`CounterRecorder` (disabled by default, same
   design as :class:`repro.obs.tracer.Tracer`).  The instrumented fused
   kernel (:mod:`repro.core.fusion`), the accelerator simulator, the
   dataflow timeline, the multi-bank buffer and the DRAM model all
   report *measured* event counts into it: multiplications actually
   performed and eliminated by RME, half/full additions spent and
   reused by LAR/GAR, SRAM bank accesses and conflicts, DRAM bytes and
   row hits.  Unlike the closed-form :mod:`repro.core.opcount`
   formulas, these numbers come from real executions, so the analytic
   claims are auditable (the counter cross-check tests in
   ``tests/obs`` keep the two within 1%)::

       from repro.obs.metrics import collect_counters

       with collect_counters() as oc:
           fused_conv_pool_counted(x, w, b, pool=2)
           simulate_network(specs, get_config("mlcnn-fp32"))
       print(oc.mults_eliminated, oc.dram_bytes)

2. **Run registry** — :class:`MetricRegistry` persists headline
   benchmark metrics to ``BENCH_<area>.json`` files at the repo root,
   each run stamped with git SHA, UTC timestamp, host and Python
   version (:func:`provenance`).  Previous runs rotate into a bounded
   ``history`` list so the dashboard can render trend series, and the
   committed files are the baselines the CI regression gate compares
   every PR against.
"""

from __future__ import annotations

import getpass
import json
import os
import platform
import socket
import subprocess
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "OpCounters",
    "CounterRecorder",
    "get_recorder",
    "collect_counters",
    "collect_thread_counters",
    "provenance",
    "RunRecord",
    "MetricRegistry",
    "metric_key",
    "area_for_figure",
    "load_metrics_jsonl",
    "PROVENANCE_FIELDS",
    "HISTORY_LIMIT",
]


# ---------------------------------------------------------------------------
# Measured counters
# ---------------------------------------------------------------------------

@dataclass
class OpCounters:
    """Measured event counts from instrumented executions.

    Arithmetic fields are filled by the counted kernel executors in
    :mod:`repro.core.fusion`; memory fields by the accelerator models.
    All fields are additive, so one collection can span a whole run
    (many kernels + a simulation) and still decompose meaningfully.
    """

    # -- arithmetic (instrumented kernel executors) -----------------------
    #: multiplications actually performed
    mults: int = 0
    #: multiplications a dense execution of the same geometry would have
    #: performed but RME eliminated (0 for dense executions)
    mults_eliminated: int = 0
    half_additions: int = 0
    full_additions: int = 0
    major_additions: int = 0
    bias_additions: int = 0
    #: additions avoided because a half addition was found in the LAR cache
    lar_reuse_hits: int = 0
    #: additions avoided because a full box sum was found in the GAR cache
    gar_reuse_hits: int = 0

    # -- on-chip buffer (MultiBankBuffer + simulator model) ---------------
    buffer_reads: int = 0
    buffer_writes: int = 0
    buffer_conflicts: int = 0
    #: SRAM accesses attributed by the cycle simulator's buffer model
    buffer_accesses: float = 0.0

    # -- DRAM (DramModel + simulator traffic model) -----------------------
    dram_accesses: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    dram_cycles: int = 0
    #: bytes moved per the simulator's tiling-derived traffic model
    dram_bytes: float = 0.0

    # -- dataflow schedule (timeline makespan decomposition) --------------
    sched_load_cycles: float = 0.0
    sched_compute_cycles: float = 0.0
    sched_store_cycles: float = 0.0

    @property
    def additions(self) -> int:
        """All additions actually performed by instrumented kernels."""
        return (
            self.half_additions
            + self.full_additions
            + self.major_additions
            + self.bias_additions
        )

    @property
    def reuse_hits(self) -> int:
        """All additions avoided by LAR + GAR caches."""
        return self.lar_reuse_hits + self.gar_reuse_hits

    def as_dict(self, include_derived: bool = True) -> Dict[str, float]:
        # every field is a scalar, so a shallow copy is the whole state;
        # ``dataclasses.asdict`` deep-copies at ~30x the cost, paid once
        # per instrumented layer call
        doc: Dict[str, float] = dict(vars(self))
        if include_derived:
            doc["additions"] = self.additions
            doc["reuse_hits"] = self.reuse_hits
        return doc


class CounterRecorder:
    """Process-wide sink stack for :class:`OpCounters`.

    Disabled (zero overhead beyond one attribute check) until a
    collection is active; :func:`collect_counters` pushes a fresh
    :class:`OpCounters` and nested collections each receive every
    record, so an outer scope sees the totals of its inner scopes.
    :func:`collect_thread_counters` pushes a sink that receives only
    the records made on its own thread — how a shard thread measures
    its share while the process-wide sinks still see every record.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (sink, owning thread id, or None for a process-wide sink)
        self._sinks: List[Tuple[OpCounters, Optional[int]]] = []

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def record(self, **counts: float) -> None:
        """Add the named field increments into every active sink."""
        if not self._sinks:
            return
        thread = threading.get_ident()
        with self._lock:
            for sink, owner in self._sinks:
                if owner is None or owner == thread:
                    for name, value in counts.items():
                        setattr(sink, name, getattr(sink, name) + value)

    def _push(self, sink: OpCounters, owner: Optional[int] = None) -> None:
        with self._lock:
            self._sinks.append((sink, owner))

    def _pop(self, sink: OpCounters) -> None:
        # By identity: sinks are dataclasses, and an equality test would
        # match an enclosing collection whose counts equal this one's.
        with self._lock:
            self._sinks = [entry for entry in self._sinks if entry[0] is not sink]


_RECORDER = CounterRecorder()


def get_recorder() -> CounterRecorder:
    """The process-wide counter recorder (inactive unless collecting)."""
    return _RECORDER


@contextmanager
def collect_counters() -> Iterator[OpCounters]:
    """Collect measured counters from everything executed in the body."""
    sink = OpCounters()
    _RECORDER._push(sink)
    try:
        yield sink
    finally:
        _RECORDER._pop(sink)


@contextmanager
def collect_thread_counters() -> Iterator[OpCounters]:
    """Collect the counters recorded on the calling thread only."""
    sink = OpCounters()
    _RECORDER._push(sink, threading.get_ident())
    try:
        yield sink
    finally:
        _RECORDER._pop(sink)


# ---------------------------------------------------------------------------
# Run provenance
# ---------------------------------------------------------------------------

#: metadata keys stamped on rows/records; excluded from metric identity
PROVENANCE_FIELDS = (
    "git_sha",
    "timestamp",
    "host",
    "user",
    "python",
    "cpu_count",
    "machine",
)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> Dict[str, str]:
    """Stamp for one run: git SHA, UTC timestamp, host identity, python.

    ``cpu_count`` and ``machine`` make baselines host-shape-aware: the
    regression gate downgrades host-sensitive metrics (parallel scaling
    curves) to advisory when the current core count differs from the
    baseline's, instead of failing the build on hardware variance.
    """
    try:
        user = getpass.getuser()
    except (KeyError, OSError):  # no passwd entry in some containers
        user = "unknown"
    return {
        "git_sha": _git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": socket.gethostname(),
        "user": user,
        "python": platform.python_version(),
        "cpu_count": str(os.cpu_count() or 1),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Metric naming
# ---------------------------------------------------------------------------

#: benchmark areas: figure/table prefix -> BENCH_<area>.json
_ACCEL_PREFIXES = (
    "fig13",
    "fig15",
    "table7",
    "kernel",
    "operating",
    "related",
    "resnet18",
)


def area_for_figure(figure: str) -> str:
    """Which ``BENCH_<area>.json`` a figure's metrics persist to.

    Cycle/energy/throughput figures ride on the accelerator model
    (``accel``); the analytic LAR/GAR/RME tables and FLOP reductions
    ride on :mod:`repro.core` (``core``).
    """
    return "accel" if figure.startswith(_ACCEL_PREFIXES) else "core"


def metric_key(figure: str, metric: str, extra: Mapping[str, Any] = ()) -> str:
    """Canonical metric identity: ``figure.metric[k=v]...``.

    Provenance fields never enter the key, so re-runs of the same
    benchmark on different hosts/commits compare against each other.
    """
    parts = [f"{figure}.{metric}"]
    extra = dict(extra or {})
    for k in sorted(extra):
        if k in PROVENANCE_FIELDS:
            continue
        parts.append(f"[{k}={extra[k]}]")
    return "".join(parts)


def load_metrics_jsonl(path: str) -> Dict[str, Dict[str, float]]:
    """Parse a ``--metrics-jsonl`` file into per-area metric dicts.

    Returns ``{area: {metric_key: value}}``; a key emitted more than
    once keeps its last value (later rows supersede earlier re-runs).
    Malformed lines raise — a truncated metrics file must not silently
    gate against a partial run.
    """
    per_area: Dict[str, Dict[str, float]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                figure, metric, value = row["figure"], row["metric"], row["value"]
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: metric rows need figure/metric/value"
                ) from exc
            extra = {
                k: v
                for k, v in row.items()
                if k not in ("figure", "metric", "value") and k not in PROVENANCE_FIELDS
            }
            area = area_for_figure(str(figure))
            per_area.setdefault(area, {})[metric_key(figure, metric, extra)] = float(value)
    return per_area


# ---------------------------------------------------------------------------
# Run registry
# ---------------------------------------------------------------------------

#: how many previous runs a BENCH_<area>.json keeps for trend series
HISTORY_LIMIT = 20


@dataclass
class RunRecord:
    """One benchmark run's headline metrics with provenance."""

    area: str
    metrics: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=provenance)

    def to_doc(self) -> Dict[str, Any]:
        return {"provenance": dict(self.provenance), "metrics": dict(self.metrics)}

    @classmethod
    def from_doc(cls, area: str, doc: Mapping[str, Any]) -> "RunRecord":
        return cls(
            area=area,
            metrics={str(k): float(v) for k, v in (doc.get("metrics") or {}).items()},
            provenance=dict(doc.get("provenance") or {}),
        )


class MetricRegistry:
    """Reads and refreshes the ``BENCH_<area>.json`` baseline files.

    File schema::

        {
          "area": "core",
          "provenance": {"git_sha": ..., "timestamp": ..., ...},
          "metrics": {"<figure>.<metric>[k=v]": value, ...},
          "history": [{"provenance": {...}, "metrics": {...}}, ...]
        }

    ``metrics`` is the current baseline the gate compares against;
    ``history`` holds the previous runs, newest first, bounded by
    :data:`HISTORY_LIMIT`.
    """

    def __init__(self, root: str = ".") -> None:
        self.root = root

    def path(self, area: str) -> str:
        return os.path.join(self.root, f"BENCH_{area}.json")

    def areas(self) -> List[str]:
        """Areas with a committed baseline file, sorted."""
        found = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            if name.startswith("BENCH_") and name.endswith(".json"):
                found.append(name[len("BENCH_"):-len(".json")])
        return sorted(found)

    def load(self, area: str) -> Optional[Dict[str, Any]]:
        """Full document for ``area``, or None when no baseline exists."""
        try:
            with open(self.path(area)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def baseline(self, area: str) -> Optional[Dict[str, float]]:
        """Current baseline metrics for ``area`` (None = no baseline)."""
        doc = self.load(area)
        if doc is None:
            return None
        return {str(k): float(v) for k, v in (doc.get("metrics") or {}).items()}

    def history(self, area: str) -> List[RunRecord]:
        """All recorded runs, oldest first, current run last."""
        doc = self.load(area)
        if doc is None:
            return []
        records = [
            RunRecord.from_doc(area, entry) for entry in reversed(doc.get("history") or [])
        ]
        records.append(
            RunRecord.from_doc(
                area, {"metrics": doc.get("metrics"), "provenance": doc.get("provenance")}
            )
        )
        return records

    def update(
        self,
        area: str,
        metrics: Mapping[str, float],
        stamp: Optional[Mapping[str, str]] = None,
    ) -> str:
        """Make ``metrics`` the new baseline; rotate the old one into
        history.  Returns the file path written."""
        doc = self.load(area)
        history: List[Dict[str, Any]] = []
        if doc is not None:
            history = list(doc.get("history") or [])
            if doc.get("metrics"):
                history.insert(
                    0,
                    {
                        "provenance": doc.get("provenance") or {},
                        "metrics": doc.get("metrics"),
                    },
                )
        new_doc = {
            "area": area,
            "provenance": dict(stamp) if stamp is not None else provenance(),
            "metrics": {k: float(v) for k, v in sorted(metrics.items())},
            "history": history[:HISTORY_LIMIT],
        }
        path = self.path(area)
        with open(path, "w") as fh:
            json.dump(new_doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
        return path

    def series(self, area: str, key: str) -> List[Tuple[str, float]]:
        """(git_sha, value) trend of one metric, oldest first."""
        out: List[Tuple[str, float]] = []
        for record in self.history(area):
            if key in record.metrics:
                out.append((record.provenance.get("git_sha", "?"), record.metrics[key]))
        return out
