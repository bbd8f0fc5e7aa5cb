"""Overhead guard: telemetry fully off must cost (almost) nothing.

The Trainer batch loop and the fused kernels are *permanently*
instrumented — the telemetry calls sit in the hot paths whether or not
anyone is watching.  This mirrors the tracer and numerics
disabled-overhead guards: with the process-wide registry disabled,
every instrument call must be bounded per call, and the end-to-end
cost on a real training fit / kernel call must be lost in the noise.
"""

import time

import numpy as np

from repro.core.fusion import fused_conv_pool
from repro.data import SyntheticImageConfig, make_synth_cifar, train_val_split
from repro.models import build_model
from repro.obs.telemetry.registry import TelemetryRegistry, get_telemetry
from repro.train import TrainConfig, Trainer

from tests.obs.test_overhead import min_walls


class TestDisabledInstrumentCost:
    def test_disabled_observe_per_call_cost_is_tiny(self):
        reg = TelemetryRegistry(enabled=False)
        h = reg.histogram("lat")
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            h.observe(1.25)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6, f"disabled observe costs {per_call * 1e6:.2f} us/call"
        assert not h.series()

    def test_disabled_counter_and_gauge_per_call_cost_is_tiny(self):
        reg = TelemetryRegistry(enabled=False)
        c = reg.counter("c")
        g = reg.gauge("g")
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            c.inc()
            g.set(3.0, pool="plan")
        per_call = (time.perf_counter() - t0) / (2 * n)
        assert per_call < 20e-6, f"disabled inc/set costs {per_call * 1e6:.2f} us/call"
        assert c.value == 0 and not g.series()


def _fit_once(seed: int = 0) -> None:
    cfg = SyntheticImageConfig(
        num_classes=10, samples_per_class=6, image_size=32, seed=seed
    )
    train_set, val_set = train_val_split(make_synth_cifar(cfg), 0.25, seed=seed)
    model = build_model("lenet5", seed=seed)
    Trainer(
        model,
        train_set,
        val_set,
        TrainConfig(epochs=1, batch_size=16, seed=seed),
    ).fit()


class TestTrainerDisabledOverhead:
    def test_trainer_batch_loop_unaffected_when_telemetry_off(self):
        """The batch loop's telemetry hooks reduce to one enabled-check
        per fit plus one None-check per batch while the registry is off."""
        reg = get_telemetry()
        assert not reg.enabled  # the suite never leaves it on
        _fit_once()  # warm numpy/BLAS caches
        # the instrumented path IS the only path; measure it twice to
        # bound run-to-run noise, then assert a fit stays within that band
        base, again = min_walls(_fit_once, _fit_once, repeats=3)
        drift = abs(again - base) / base
        assert drift < 0.25, f"timing noise {drift:.1%} — host too unstable"
        snap = reg.snapshot()
        assert not snap.find("train.batch_latency_ms"), (
            "disabled telemetry must not create instruments"
        )

    def test_enabled_trainer_overhead_is_small(self):
        """Even fully ON, per-batch telemetry (one histogram observe +
        two counter incs, ~us) must vanish inside a ~ms batch."""
        reg = get_telemetry()

        def fit_watched():
            reg.enable()
            try:
                _fit_once()
            finally:
                reg.disable()

        _fit_once()
        reg.clear()
        try:
            base, watched = min_walls(_fit_once, fit_watched, repeats=3)
        finally:
            reg.disable()
            reg.clear()
        overhead = watched / base - 1.0
        assert overhead < 0.15, f"enabled-telemetry fit overhead {overhead:.1%}"


class TestKernelDisabledOverhead:
    def test_fused_conv_pool_unaffected_by_registry_state(self):
        """The kernel path touches no telemetry; fused_conv_pool must
        be identical wall time with the registry enabled or disabled."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3, 32, 32))
        w = rng.normal(size=(8, 3, 5, 5))

        def run():
            fused_conv_pool(x, w, pool=2)

        reg = get_telemetry()

        def run_enabled():
            reg.enable()
            try:
                run()
            finally:
                reg.disable()

        run()
        try:
            base, enabled = min_walls(run, run_enabled, repeats=7)
        finally:
            reg.disable()
            reg.clear()
        overhead = enabled / base - 1.0
        assert overhead < 0.15, f"fused_conv_pool telemetry overhead {overhead:.1%}"
