"""One switch for every run-level instrument: :func:`session`."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.telemetry.profiler import SamplingProfiler
from repro.obs.telemetry.registry import (
    TelemetryExporter,
    TelemetryRegistry,
    get_telemetry,
)
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["ObsSession", "SESSION_FILES", "session"]

#: what a session writes into its ``out_dir``
SESSION_FILES = (
    "trace.jsonl",  # span/instant event log, the ``--diff-trace`` input
    "trace.json",  # the same events as a Chrome trace (Perfetto)
    "telemetry.jsonl",  # one registry snapshot per scrape
    "telemetry.prom",  # the last snapshot, Prometheus text format
    "profile.html",  # sampling-profiler flamegraph
    "profile.txt",  # collapsed stacks (flamegraph.pl input)
)


@dataclass
class ObsSession:
    """The instruments one :func:`session` drives."""

    out_dir: str
    tracer: Tracer
    telemetry: TelemetryRegistry
    exporter: TelemetryExporter
    profiler: SamplingProfiler


@contextmanager
def session(out_dir: str) -> Iterator[ObsSession]:
    """Trace, meter and profile the body; write :data:`SESSION_FILES`.

    On enter: clear and enable the process-wide tracer and telemetry
    registry, scrape the registry every 0.5 s and sample stacks in the
    background.  On exit, also when the body raises: stop and disable
    all of them, then write the files into ``out_dir``.  Raises
    ``RuntimeError`` if the tracer or the registry is already enabled:
    two owners would clear and disable each other's instruments.
    """
    tracer, telemetry = get_tracer(), get_telemetry()
    if tracer.enabled or telemetry.enabled:
        raise RuntimeError("an observability session is already running")
    os.makedirs(out_dir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(out_dir, name)

    open(path("telemetry.jsonl"), "w").close()  # the exporter appends
    exporter = TelemetryExporter(
        telemetry,
        jsonl_path=path("telemetry.jsonl"),
        prom_path=path("telemetry.prom"),
        period_s=0.5,
    )
    run = ObsSession(out_dir, tracer, telemetry, exporter, SamplingProfiler())
    tracer.clear()
    tracer.enable()
    telemetry.clear()
    telemetry.enable()
    exporter.start()
    run.profiler.start()  # after the exporter, so it skips that thread
    try:
        yield run
    finally:
        run.profiler.stop()
        tracer.disable()
        telemetry.disable()
        exporter.stop()  # its final scrape writes both telemetry files
        write_jsonl(path("trace.jsonl"), tracer)
        write_chrome_trace(path("trace.json"), tracer)
        run.profiler.write_flamegraph(path("profile.html"))
        run.profiler.write_collapsed(path("profile.txt"))
