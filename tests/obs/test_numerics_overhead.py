"""Overhead guard: disabled numerics collection must cost (almost)
nothing (satellite of PR 5, mirroring the tracer overhead guard).

A model instrumented with ``numerics=collector`` but with the collector
*disabled* must stay within a small factor of the plain forward, and
the disabled observe/record paths must be bounded per call — so models
can stay permanently instrumented for training-time monitoring.
"""

import time

import numpy as np

from repro.nn.tensor import Tensor, no_grad
from repro.obs.instrument import instrument_model
from repro.obs.numerics import NumericsCollector, record_quant_event
from repro.obs.tracer import Tracer

from tests.obs.test_overhead import min_walls, small_model


class TestDisabledNumericsOverhead:
    def test_disabled_observe_per_call_cost_is_tiny(self):
        col = NumericsCollector()
        arr = np.zeros(64)
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            col.observe("layer", "forward", arr)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6, f"disabled observe costs {per_call * 1e6:.2f} us/call"
        assert col.stats == {}

    def test_disabled_record_quant_event_per_call_cost_is_tiny(self):
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            record_quant_event("dorefa.act_clip", 1, 100)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6, f"inactive quant event costs {per_call * 1e6:.2f} us/call"

    def test_instrumented_disabled_forward_within_a_few_percent(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 32, 32)))
        plain = small_model()
        col = NumericsCollector()
        instrumented = instrument_model(
            small_model(), tracer=Tracer(enabled=False), numerics=col
        )
        plain.eval()
        instrumented.eval()

        def run_plain():
            with no_grad():
                plain(x)

        def run_instrumented():
            with no_grad():
                instrumented(x)

        run_plain()  # warm up caches/allocations
        run_instrumented()
        base, watched = min_walls(run_plain, run_instrumented, repeats=7)
        overhead = watched / base - 1.0
        # same bar as the disabled tracer: a few percent, with CI headroom
        assert overhead < 0.15, f"disabled-numerics overhead {overhead:.1%}"
        assert col.stats == {}
        assert col.quant == {}
