"""Observability: spans, metrics and trace export for every subsystem.

One process-wide :class:`Tracer` (disabled by default, near-zero
overhead while off) that the compiler pipeline, the nn layers (via
:func:`instrument_model`), the :class:`~repro.train.Trainer` and the
accelerator simulator all report spans into, so a single run yields a
single unified timeline.  Values that are not spans — loss,
throughput, sample and batch counts, latency distributions — live in
the labeled telemetry registry (:func:`get_telemetry`); measured
operation counts live in :class:`OpCounters` (:func:`collect_counters`).

:func:`session` is the one switch for a whole run: it enables the
tracer and the registry, scrapes and profiles in the background, and
on exit writes the trace (JSONL + Chrome), the telemetry series
(JSONL + Prometheus) and the profile (HTML flamegraph + collapsed
stacks) into one directory::

    from repro import obs

    with obs.session("run_a"):
        ...                               # compile / train / simulate
    print(obs.summary())                  # top-N spans table

or from the CLI::

    python -m repro.experiments --pipeline lenet5 --bits 8 --obs run_a

On top of collection sits the analysis layer: the roofline attribution
engine (:func:`build_attribution` / :func:`attribute_model_run` — join
spans with measured op counters against this host's calibrated
roofline) and cross-run forensics (:func:`diff_runs` /
:func:`diff_bench` — ranked "what changed" reports localizing a
regression to a layer, pass, kernel or shard)::

    python -m repro.experiments --attrib lenet5
    python -m repro.experiments --diff-trace before.jsonl after.jsonl
    python -m repro.experiments --diff-bench metrics.jsonl
"""

from repro.obs.attrib import (
    AttributionReport,
    attribute_model_run,
    build_attribution,
)
from repro.obs.dashboard import write_dashboard
from repro.obs.forensics import BenchDiff, RunDiff, diff_bench, diff_runs
from repro.obs.roofline import Roofline, calibrate, get_roofline
from repro.obs.export import (
    summary,
    summary_report,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.instrument import deinstrument_model, instrument_model
from repro.obs.numerics import (
    NumericsCollector,
    NumericsError,
    P2Quantile,
    TensorStats,
    Welford,
    record_quant_event,
    reorder_divergence,
)
from repro.obs.metrics import (
    MetricRegistry,
    OpCounters,
    RunRecord,
    collect_counters,
    get_recorder,
    provenance,
)
from repro.obs.session import ObsSession, session
from repro.obs.regress import (
    RegressionReport,
    TolerancePolicy,
    Verdict,
    gate_jsonl,
    gate_metrics,
)
from repro.obs.telemetry import (
    Alert,
    AlertEngine,
    SamplingProfiler,
    SloRule,
    TelemetryExporter,
    TelemetryRegistry,
    TelemetrySnapshot,
    get_telemetry,
    read_telemetry_jsonl,
)
from repro.obs.tracer import (
    SpanEvent,
    Tracer,
    event,
    get_tracer,
    span,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AttributionReport",
    "BenchDiff",
    "MetricRegistry",
    "NumericsCollector",
    "NumericsError",
    "ObsSession",
    "OpCounters",
    "P2Quantile",
    "RegressionReport",
    "Roofline",
    "RunDiff",
    "RunRecord",
    "SamplingProfiler",
    "SloRule",
    "SpanEvent",
    "TelemetryExporter",
    "TelemetryRegistry",
    "TelemetrySnapshot",
    "TensorStats",
    "TolerancePolicy",
    "Tracer",
    "Verdict",
    "Welford",
    "attribute_model_run",
    "build_attribution",
    "calibrate",
    "collect_counters",
    "deinstrument_model",
    "diff_bench",
    "diff_runs",
    "event",
    "gate_jsonl",
    "gate_metrics",
    "get_recorder",
    "get_roofline",
    "get_telemetry",
    "get_tracer",
    "instrument_model",
    "provenance",
    "read_telemetry_jsonl",
    "record_quant_event",
    "reorder_divergence",
    "session",
    "span",
    "summary",
    "summary_report",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]
