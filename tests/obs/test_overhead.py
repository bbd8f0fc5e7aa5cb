"""Overhead guard: a disabled tracer must cost (almost) nothing.

The promise the whole subsystem rests on: leaving models instrumented
and subsystems traced is free when tracing is off, so instrumentation
never has to be ripped out for production runs.  Guarded two ways —
an absolute per-call bound on the disabled span path, and an end-to-end
ratio between a plain and an instrumented-but-disabled forward pass.
"""

import time

import numpy as np

from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.obs.instrument import instrument_model
from repro.obs.tracer import Tracer


def small_model(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 16, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Conv2d(16, 16, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(16 * 8 * 8, 10, rng=rng),
    )


def min_walls(*fns, repeats: int) -> tuple:
    """Best-of-N wall time of each function, robust against scheduler noise.

    The functions run in turn inside one loop, so a change in host speed
    during the measurement hits every side alike.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return tuple(best)


class TestDisabledOverhead:
    def test_disabled_span_per_call_cost_is_tiny(self):
        t = Tracer(enabled=False)
        n = 10_000
        span = t.span
        t0 = time.perf_counter()
        for _ in range(n):
            with span("hot"):
                pass
        per_call = (time.perf_counter() - t0) / n
        # "near-zero": microseconds, not tens of microseconds
        assert per_call < 20e-6, f"disabled span costs {per_call * 1e6:.2f} us/call"
        assert t.events == []

    def test_instrumented_disabled_forward_within_a_few_percent(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 32, 32)))
        plain = small_model()
        tracer = Tracer(enabled=False)
        instrumented = instrument_model(small_model(), tracer=tracer)
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
        base, traced = min_walls(run_plain, run_instrumented, repeats=7)
        overhead = traced / base - 1.0
        # target is "a few percent"; the bound leaves headroom for CI noise
        assert overhead < 0.15, f"disabled-tracer overhead {overhead:.1%}"
        assert tracer.events == []
