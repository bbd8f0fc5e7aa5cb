"""``repro.obs.session``: one switch, a fixed file set, clean teardown."""

import json
import threading

import pytest

from repro.obs import get_telemetry, get_tracer, session
from repro.obs.session import SESSION_FILES
from repro.obs.telemetry.registry import parse_prometheus, read_telemetry_jsonl


@pytest.fixture(autouse=True)
def _clean_global_instruments():
    yield
    for instrument in (get_tracer(), get_telemetry()):
        instrument.disable()
        instrument.clear()


def _instrument_threads():
    return {t for t in threading.enumerate() if t.name.startswith("telemetry-")}


def _body():
    with get_tracer().span("work", category="test"):
        get_tracer().event("mark")
        get_telemetry().counter("work.items_total", "items").inc(3)
        get_telemetry().histogram("work.latency_ms").observe(1.5)


def test_writes_the_fixed_file_set_and_each_file_parses(tmp_path):
    out = tmp_path / "run"
    with session(str(out)) as run:
        assert get_tracer().enabled and get_telemetry().enabled
        _body()
    assert sorted(p.name for p in out.iterdir()) == sorted(SESSION_FILES)

    chrome = json.load(open(out / "trace.json"))
    assert {ev["name"] for ev in chrome["traceEvents"]} == {"work", "mark"}
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert sorted(r["type"] for r in rows) == ["instant", "span"]

    snaps = read_telemetry_jsonl(str(out / "telemetry.jsonl"))
    assert snaps and snaps[-1].find("work.items_total")["series"][0]["value"] == 3
    prom = parse_prometheus((out / "telemetry.prom").read_text())
    assert prom["work_items_total"] == [({}, 3.0)]
    assert prom["work_latency_ms_count"] == [({}, 1.0)]

    assert (out / "profile.html").read_text().startswith("<!doctype html>")
    for line in (out / "profile.txt").read_text().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert stack and int(count) > 0
    assert run.exporter.scrapes >= 1


def test_a_second_session_starts_fresh(tmp_path):
    for _ in range(2):
        with session(str(tmp_path)):
            _body()
    snap = read_telemetry_jsonl(str(tmp_path / "telemetry.jsonl"))[0]
    assert snap.find("work.items_total")["series"][0]["value"] == 3
    rows = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(rows) == 2  # the first session's events were cleared


def test_body_that_raises_still_stops_everything_and_writes(tmp_path):
    before = _instrument_threads()
    with pytest.raises(ValueError, match="boom"):
        with session(str(tmp_path)) as run:
            _body()
            raise ValueError("boom")
    assert not get_tracer().enabled
    assert not get_telemetry().enabled
    assert run.profiler._thread is None
    assert run.exporter._thread is None
    assert _instrument_threads() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SESSION_FILES)
    work = next(ev for ev in get_tracer().events if ev.name == "work")
    assert work.is_span


def test_entering_while_the_tracer_is_enabled_raises(tmp_path):
    before = _instrument_threads()
    tracer = get_tracer()
    tracer.enable()
    with tracer.span("outer"):
        pass
    with pytest.raises(RuntimeError):
        with session(str(tmp_path / "run")):
            pass  # pragma: no cover
    # the running owner's state is untouched and nothing was started
    assert tracer.enabled and [ev.name for ev in tracer.events] == ["outer"]
    assert not get_telemetry().enabled
    assert not (tmp_path / "run").exists()
    assert _instrument_threads() == before


def test_entering_while_the_registry_is_enabled_raises(tmp_path):
    get_telemetry().enable()
    with pytest.raises(RuntimeError):
        with session(str(tmp_path)):
            pass  # pragma: no cover
    assert get_telemetry().enabled and not get_tracer().enabled
