"""The thread-sharded execution engine.

Coverage:

* shard planning (pure logic);
* counters from concurrent shard threads — recorded into one
  collection, they must sum to within 1% of the serial analytic model,
  the bar ``tests/obs/test_counters_crosscheck.py`` holds serial runs to;
* sharded execution — equivalence to the serial kernels (exact for
  int, round-off for f64, the fp32 bound for fp32), counter and tracer
  flow-back, and the ``parallelize`` compiler stage;
* how the engine starts and fails — a script with no ``__main__``
  guard, and a shard that raises.
"""

import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    ParallelizePass,
    PLAN_CACHE,
    clear_plan_cache,
    lowered_kernels,
    mlcnn_pipeline,
)
from repro.core.fixedpoint import QuantizedTensor, fused_conv_pool_int, quantize_tensor
from repro.core.fusion import fused_conv_pool, fused_conv_pool_counted
from repro.core.kernels import KERNEL_REGISTRY, ShapeClass
from repro.core.kernels.nhwc import F32NHWCKernel
from repro.core.parallel import (
    ParallelKernel,
    Shard,
    available_workers,
    parallel_fused_conv_pool,
    parallel_fused_conv_pool_int,
    plan_shards,
)
from repro.core.opcount import mlcnn_layer_ops
from repro.models import build_model
from repro.models.specs import LayerSpec
from repro.nn.tensor import Tensor, no_grad
from repro.obs.metrics import collect_counters, collect_thread_counters
from repro.obs.tracer import get_tracer

SRC = Path(__file__).resolve().parents[2] / "src"

RTOL = 0.01  # the crosscheck suite's 1% acceptance bar
F32_ATOL = 1e-3  # the fp32 kernel's bound in tests/core/test_kernels.py


@pytest.fixture
def rng():
    return np.random.default_rng(17)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

class TestPlanShards:
    def test_batch_axis_preferred(self):
        shards = plan_shards(8, 16, 4)
        assert all(s.axis == "images" for s in shards)
        assert [s.size for s in shards] == [2, 2, 2, 2]

    def test_uneven_batch_split_covers_everything(self):
        shards = plan_shards(7, 16, 3)
        assert [(s.start, s.stop) for s in shards] == [(0, 3), (3, 5), (5, 7)]

    def test_small_batch_falls_back_to_channels(self):
        shards = plan_shards(2, 6, 4)
        assert all(s.axis == "channels" for s in shards)
        assert sum(s.size for s in shards) == 6

    def test_single_worker_is_one_shard(self):
        assert plan_shards(8, 16, 1) == [Shard("images", 0, 8)]

    def test_never_more_shards_than_units(self):
        assert len(plan_shards(2, 3, 8)) == 3  # channels axis, 3 units


# ---------------------------------------------------------------------------
# Counters from concurrent shard threads
# ---------------------------------------------------------------------------

class TestCounterMerge:
    def test_disjoint_shards_merge_to_analytic_model(self):
        """Two disjoint image shards counted on two threads at once
        land in one collection summing to within 1% of the serial
        analytic model for the whole batch; each thread's own
        collection sees exactly its share."""
        spec = LayerSpec(
            "k3p2", in_channels=3, out_channels=4, input_size=12, kernel=3, pool=2
        )
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(4, spec.in_channels, spec.input_size, spec.input_size))
        w = rng.normal(
            size=(spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        )
        b = rng.normal(size=spec.out_channels)

        def shard(lo, hi):
            with collect_thread_counters() as own:
                for i in range(lo, hi):
                    fused_conv_pool_counted(batch[i], w, b, pool=spec.pool)
            return own

        with collect_counters() as merged:
            with ThreadPoolExecutor(2) as pool:
                shares = list(pool.map(shard, (0, 2), (2, 4), timeout=60))

        assert all(share.mults > 0 for share in shares)
        assert merged.mults == sum(share.mults for share in shares)
        assert merged.additions == sum(share.additions for share in shares)

        ml = mlcnn_layer_ops(spec)
        n = len(batch)
        assert merged.mults == pytest.approx(n * ml.multiplications, rel=RTOL)
        assert merged.half_additions + merged.full_additions == pytest.approx(
            n * ml.preprocessing_additions, rel=RTOL
        )
        assert merged.major_additions + merged.bias_additions == pytest.approx(
            n * ml.additions, rel=RTOL
        )


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------

WORKERS = 2


class TestParallelKernelExecution:
    def test_batch_shard_matches_serial(self, rng):
        x = rng.normal(size=(6, 3, 16, 16))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        with no_grad():
            serial = fused_conv_pool(Tensor(x), Tensor(w), Tensor(b), pool=2).data
        par = parallel_fused_conv_pool(x, w, b, pool=2, workers=WORKERS)
        np.testing.assert_allclose(par, serial, atol=1e-12)

    def test_channel_shard_matches_serial(self, rng):
        x = rng.normal(size=(1, 3, 16, 16))  # batch < workers -> channel axis
        w = rng.normal(size=(4, 3, 3, 3))
        with no_grad():
            serial = fused_conv_pool(Tensor(x), Tensor(w), pool=2).data
        par = parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS)
        np.testing.assert_allclose(par, serial, atol=1e-12)

    def test_strided_kernel_shards_too(self, rng):
        x = rng.normal(size=(4, 2, 13, 13))
        w = rng.normal(size=(3, 2, 3, 3))
        with no_grad():
            serial = fused_conv_pool(Tensor(x), Tensor(w), pool=3, pool_stride=2).data
        par = parallel_fused_conv_pool(x, w, None, pool=3, pool_stride=2, workers=WORKERS)
        np.testing.assert_allclose(par, serial, atol=1e-12)

    @pytest.mark.parametrize("x_shape", [(4, 2, 13, 13), (1, 2, 13, 13)])  # both axes
    def test_sharded_dtype_follows_the_kernel_that_runs(self, rng, x_shape):
        # bits=32 with an overlapping pool selects fused-strided-f64, so the
        # output is float64 however many workers share the call
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(4, 2, 3, 3))
        opts = dict(pool=3, pool_stride=2, bits=32)
        serial = parallel_fused_conv_pool(x, w, None, workers=1, **opts)
        par = parallel_fused_conv_pool(x, w, None, workers=WORKERS, **opts)
        assert serial.dtype == par.dtype == np.float64
        np.testing.assert_array_equal(par, serial)

    def test_output_allocated_once_under_thread_churn(self, rng):
        # the first shard to finish allocates the output; a second
        # allocation would drop the shards already written.  Three
        # workers are more than a 2-core host has; more would leave more
        # idle pool threads behind for every later profile to sample
        x = rng.normal(size=(6, 2, 10, 10))
        w = rng.normal(size=(3, 2, 3, 3))
        serial = parallel_fused_conv_pool(x, w, None, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                par = parallel_fused_conv_pool(x, w, None, workers=3)
                np.testing.assert_array_equal(par, serial)
        finally:
            sys.setswitchinterval(interval)

    def test_int_kernel_is_bit_identical(self, rng):
        x = rng.normal(size=(5, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        xq, wq = quantize_tensor(x, bits=8), quantize_tensor(w, bits=8)
        serial = np.stack(
            [
                fused_conv_pool_int(
                    QuantizedTensor(xq.values[i], xq.scale, xq.bits), wq, b, pool=2
                )
                for i in range(len(x))
            ]
        )
        par = parallel_fused_conv_pool_int(xq, wq, b, pool=2, workers=WORKERS)
        assert (par == serial).all()  # integer addition is associative

    def test_workers_arg_on_parallel_fused_conv_pool(self, rng):
        x = rng.normal(size=(4, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        with no_grad():
            serial = fused_conv_pool(Tensor(x), Tensor(w), pool=2).data
        par = parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS)
        np.testing.assert_allclose(par, serial, atol=1e-12)

    def test_grad_path_stays_serial_and_trainable(self, rng):
        model, _ = mlcnn_pipeline(parallel_workers=WORKERS).run(
            build_model("lenet5", seed=3)
        )
        assert all(isinstance(k, ParallelKernel) for _, k in lowered_kernels(model))
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        out = model(x)  # grad mode: the autograd path, not the bound kernel
        out.sum().backward()  # would fail if the sharded leaf were returned
        assert all(p.grad is not None for p in model.parameters())

    def test_serial_fallback_workers_1(self, rng):
        x = rng.normal(size=(4, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        with no_grad():
            serial = fused_conv_pool(Tensor(x), Tensor(w), pool=2).data
        assert (parallel_fused_conv_pool(x, w, None, pool=2, workers=1) == serial).all()

    def test_worker_counters_merge_into_parent(self, rng):
        x = rng.normal(size=(4, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        for bits in (64, 32):
            with collect_counters() as serial_oc:
                parallel_fused_conv_pool(x, w, None, pool=2, workers=1, bits=bits)
            with collect_counters() as par_oc:
                parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS, bits=bits)
            assert serial_oc.mults > 0
            assert par_oc == serial_oc

    def test_parent_reemits_shard_spans(self, rng):
        x = rng.normal(size=(4, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        try:
            parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS)
            names = [e.name for e in tracer.events]
            shard_events = [
                e for e in tracer.events if e.name == "parallel.shard.kernel"
            ]
            assert "parallel.fused_conv_pool" in names
            assert len(shard_events) == WORKERS
            assert all(e.attrs["wall_time_s"] > 0 for e in shard_events)
        finally:
            tracer.disable()
            tracer.clear()

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestPerShardKernelInstances:
    """Lowered kernels keep per-shape workspaces (``F32NHWCKernel._plans``);
    equal-size shards sharing one instance overwrite each other's
    box-sum plane and folded weights.  A barrier after the box sum makes
    both shards be mid-call at once on every call, so the overlap does
    not depend on how the host schedules the threads."""

    @pytest.mark.parametrize(
        "x_shape, m", [((4, 8, 16, 16), 8), ((1, 8, 16, 16), 8)], ids=["images", "channels"]
    )
    def test_fp32_equal_shards_match_serial(self, rng, monkeypatch, x_shape, m):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(m, x_shape[1], 3, 3))
        b = rng.normal(size=m)
        shards = plan_shards(x_shape[0], m, WORKERS)
        assert len(shards) == WORKERS and len({s.size for s in shards}) == 1
        serial = parallel_fused_conv_pool(x, w, b, pool=2, padding=1, workers=1, bits=32)
        assert serial.dtype == np.float32

        barrier = threading.Barrier(WORKERS, timeout=30)
        box_sum = F32NHWCKernel._box_sum

        def box_sum_then_meet(self, plan, xs):
            box_sum(self, plan, xs)
            barrier.wait()

        monkeypatch.setattr(F32NHWCKernel, "_box_sum", box_sum_then_meet)
        for _ in range(20):
            par = parallel_fused_conv_pool(
                x, w, b, pool=2, padding=1, workers=WORKERS, bits=32
            )
            assert par.dtype == np.float32
            np.testing.assert_allclose(par, serial, atol=F32_ATOL)


class TestStartAndFailure:
    def test_script_without_main_guard_runs(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(
            """
            import numpy as np
            from repro.core.parallel import parallel_fused_conv_pool

            rng = np.random.default_rng(0)
            x = rng.normal(size=(4, 2, 12, 12))
            w = rng.normal(size=(3, 2, 3, 3))
            out = parallel_fused_conv_pool(x, w, None, pool=2, workers=2)
            serial = parallel_fused_conv_pool(x, w, None, pool=2, workers=1)
            assert np.allclose(out, serial, atol=1e-12)
            """
        ))
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_shard_exception_propagates_and_pool_recovers(self, rng, monkeypatch):
        x = rng.normal(size=(4, 2, 12, 12))
        w = rng.normal(size=(3, 2, 3, 3))
        serial = parallel_fused_conv_pool(x, w, None, pool=2, workers=1)
        sc = ShapeClass(kernel=3, pool=2, stride=2, bits=64, kind="float")
        kernel_cls = type(KERNEL_REGISTRY.make(sc))
        run_nchw = kernel_cls.run_nchw
        boom = RuntimeError("shard failed")
        raised = []

        def fail_once(self, *args, **kwargs):
            if not raised:
                raised.append(True)
                raise boom
            return run_nchw(self, *args, **kwargs)

        monkeypatch.setattr(kernel_cls, "run_nchw", fail_once)
        with pytest.raises(RuntimeError) as excinfo:
            parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS)
        assert excinfo.value is boom
        again = parallel_fused_conv_pool(x, w, None, pool=2, workers=WORKERS)
        np.testing.assert_allclose(again, serial, atol=1e-12)


class TestParallelizePass:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_plan_cache()
        yield
        clear_plan_cache()

    def test_pipeline_wraps_kernels_and_records_plan(self):
        ctx = CompileContext()
        model, report = mlcnn_pipeline(parallel_workers=WORKERS).run(
            build_model("lenet5", seed=3), ctx
        )
        rec = report.record_for("parallelize")
        assert rec.ran and rec.rewrites == 2 and rec.validated
        for _, kern in lowered_kernels(model):
            assert isinstance(kern, ParallelKernel)
            assert kern.workers == WORKERS
        stored = PLAN_CACHE.parallel_plan(ctx.state["plan_cache_key"])
        assert stored is not None
        assert all(d["workers"] == WORKERS for d in stored.values())
        assert ctx.state["parallel_plan"] == stored

    def test_parallel_pipeline_output_matches_serial(self, rng):
        model, _ = mlcnn_pipeline(parallel_workers=WORKERS).run(
            build_model("lenet5", seed=3)
        )
        serial, _ = mlcnn_pipeline().run(
            build_model("lenet5", seed=3), CompileContext(use_cache=False)
        )
        x = Tensor(rng.normal(size=(4, 3, 32, 32)))
        with no_grad():
            np.testing.assert_allclose(
                model(x).data, serial(x).data, atol=1e-12
            )

    def test_workers_1_omits_the_stage(self):
        pipe = mlcnn_pipeline(parallel_workers=1)
        assert pipe.spec() == mlcnn_pipeline().spec()  # byte-for-byte serial
        model, report = pipe.run(build_model("lenet5", seed=3))
        with pytest.raises(KeyError):
            report.record_for("parallelize")
        for _, kern in lowered_kernels(model):
            assert not isinstance(kern, ParallelKernel)

    def test_signature_carries_worker_count(self):
        assert ParallelizePass(3).signature() == "parallelize(workers=3)"
        specs = {
            mlcnn_pipeline(parallel_workers=2).spec(),
            mlcnn_pipeline(parallel_workers=4).spec(),
            mlcnn_pipeline().spec(),
        }
        assert len(specs) == 3  # worker count enters the plan-cache key
