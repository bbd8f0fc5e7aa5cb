"""Exporters: JSONL, Chrome trace schema, summary table."""

import json

from repro.obs.export import (
    summary,
    summary_report,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Tracer


def populated_tracer() -> Tracer:
    t = Tracer(enabled=True)
    with t.span("compile.pipeline", category="compiler", pipeline="mlcnn"):
        with t.span("compile.pass.fuse", category="compiler") as sp:
            sp.set(rewrites=4)
        t.event("sim.layer", category="accel", layer="conv1", cycles=123.0)
    return t


class TestChromeTrace:
    def test_valid_json_with_required_fields(self, tmp_path):
        t = populated_tracer()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), t)
        doc = json.loads(path.read_text())  # must round-trip as JSON
        events = doc["traceEvents"]
        assert n == len(events) == 3
        for ev in events:
            assert {"ph", "ts", "name", "pid", "tid"} <= set(ev)
        complete = [ev for ev in events if ev["ph"] == "X"]
        for ev in complete:
            assert "dur" in ev and ev["dur"] >= 0
        assert {ev["name"] for ev in complete} == {
            "compile.pipeline",
            "compile.pass.fuse",
        }

    def test_instants_and_args(self):
        doc = to_chrome_trace(populated_tracer())
        instant = next(ev for ev in doc["traceEvents"] if ev["ph"] == "i")
        assert instant["name"] == "sim.layer"
        assert instant["args"]["cycles"] == 123.0
        fuse = next(ev for ev in doc["traceEvents"] if ev["name"] == "compile.pass.fuse")
        assert fuse["args"]["rewrites"] == 4

    def test_thread_ids_remapped_to_ordinals(self):
        doc = to_chrome_trace(populated_tracer())
        assert {ev["tid"] for ev in doc["traceEvents"]} == {0}

    def test_nonserializable_attrs_coerced(self):
        import numpy as np

        t = Tracer(enabled=True)
        with t.span("s", arr=np.float64(2.5), obj=object()):
            pass
        json.dumps(to_chrome_trace(t))  # must not raise


class TestJsonl:
    def test_each_line_parses(self, tmp_path):
        t = populated_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), t)
        lines = path.read_text().strip().split("\n")
        docs = [json.loads(line) for line in lines]
        types = [d["type"] for d in docs]
        assert sorted(types) == ["instant", "span", "span"]

    def test_span_fields(self):
        docs = [json.loads(l) for l in to_jsonl(populated_tracer()).strip().split("\n")]
        fuse = next(d for d in docs if d.get("name") == "compile.pass.fuse")
        assert fuse["type"] == "span"
        assert fuse["parent"] == "compile.pipeline"
        assert fuse["depth"] == 1
        assert fuse["dur_us"] >= 0
        assert fuse["attrs"]["rewrites"] == 4

    def test_empty_tracer_exports_empty(self):
        assert to_jsonl(Tracer(enabled=True)) == ""


class TestSummary:
    def test_top_spans_by_total_time(self):
        rep = summary_report(populated_tracer(), top=5)
        rendered = rep.render()
        assert "compile.pipeline" in rendered
        assert "compile.pass.fuse" in rendered
        assert "3 events (1 instant), 2 distinct spans" in rendered

    def test_top_limit_respected(self):
        t = Tracer(enabled=True)
        for i in range(20):
            with t.span(f"span-{i}"):
                pass
        rep = summary_report(t, top=3)
        assert len(rep.rows) == 3

    def test_summary_text_helper(self):
        text = summary(populated_tracer())
        assert text.startswith("== Trace:")
