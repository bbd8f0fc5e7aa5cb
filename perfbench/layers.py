"""Which public ``repro`` functions a traced run wraps, and under what name.

Span names are ``<repro package>.<what>``, matching the per-layer
metrics in ``BENCHMARK.json``.  Exact counters recorded here:

* ``conv_macs.lowered`` — MACs of conv work that ran in a
  ``repro.core.kernels`` kernel: a :class:`FusedConvPool` forward that
  took its bound kernel or the vectorized fused GEMM;
* ``conv_macs.plain`` — MACs of ``repro.nn.functional.conv2d`` calls;
* ``accel.tiling_candidates`` — ``dram_traffic`` evaluations made by
  the tiling search.

MACs come from the call's argument and result shapes only.
"""

from __future__ import annotations

from spans import Patcher, SpanTracer, spanned, spanned_iter

#: functions in ``repro.nn.functional`` and the span each one feeds.
#: Pooling and batch norm are not wrapped: every workload fuses its
#: pools and no zoo model it runs has batch norm, so their spans would
#: read a constant 0; unfused, their time shows in ``nn.glue``.
FUNCTIONAL_SPANS = {
    "linear": "nn.linear",
    "relu": "nn.act",
    "sigmoid": "nn.act",
    "tanh": "nn.act",
    "cross_entropy": "nn.cross_entropy",
}

#: spans whose self time is reported per op
TIMED_SPANS = (
    "nn.conv2d",
    "core.fused",
    "nn.linear",
    "nn.act",
    "nn.cross_entropy",
    "nn.backward",
    "nn.optim_step",
    "data.loader_wait",
    "train.evaluate",
    "accel.simulate_layer",
    "accel.plan_tiling",
)

#: set-up spans, reported as inclusive seconds per set-up (the first
#: two are opened by the benchmark around its own calls)
SETUP_SPANS = (
    "models.build_model",
    "compiler.pipeline_run",
    "compiler.probe_forward",
    "data.make_synth_cifar",
)


def install(tracer: SpanTracer, patcher: Patcher) -> None:
    """Wrap every layer entry point; ``patcher.restore()`` undoes it all."""
    import repro.accel.simulator as simulator
    import repro.accel.tiling as tiling
    import repro.analysis.flops as flops
    import repro.data.dataset as dataset
    import repro.data.synthetic as synthetic
    import repro.nn.functional as F
    import repro.train.trainer as trainer
    from repro.core.fusion import FusedConvPool
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor, is_grad_enabled

    def everywhere(fn, name, on_result=None):
        if patcher.patch_everywhere(fn, spanned(tracer, name, fn, on_result)) == 0:
            raise RuntimeError(f"no module binds {fn.__module__}.{fn.__name__}")

    def count_plain_macs(out, args, kwargs):
        n, m, ho, wo = out.shape
        _, cin, kh, kw = args[1].shape
        tracer.counts["conv_macs.plain"] += n * m * ho * wo * cin * kh * kw

    everywhere(F.conv2d, "nn.conv2d", count_plain_macs)
    for fn_name, span in FUNCTIONAL_SPANS.items():
        everywhere(getattr(F, fn_name), span)

    fused_forward = FusedConvPool.forward

    def count_fused_macs(out, args, kwargs):
        mod = args[0]
        lowered = mod.impl == "vectorized" or (mod.kernel is not None and not is_grad_enabled())
        if lowered:  # a reference-impl forward counts through its inner conv2d
            n, m, oh, ow = out.shape
            _, cin, kh, kw = mod.weight.shape
            tracer.counts["conv_macs.lowered"] += n * m * oh * ow * cin * kh * kw

    patcher.patch_attr(
        FusedConvPool, "forward", spanned(tracer, "core.fused", fused_forward, count_fused_macs)
    )
    patcher.patch_attr(Tensor, "backward", spanned(tracer, "nn.backward", Tensor.backward))
    for cls in Optimizer.__subclasses__():
        if "step" in cls.__dict__:
            patcher.patch_attr(cls, "step", spanned(tracer, "nn.optim_step", cls.__dict__["step"]))
    patcher.patch_attr(
        dataset.DataLoader,
        "__iter__",
        spanned_iter(tracer, "data.loader_wait", dataset.DataLoader.__iter__),
    )
    everywhere(trainer.evaluate, "train.evaluate")
    everywhere(synthetic.make_synth_cifar, "data.make_synth_cifar")
    everywhere(flops.probe_forward, "compiler.probe_forward")
    everywhere(simulator.simulate_layer, "accel.simulate_layer")
    everywhere(tiling.plan_tiling, "accel.plan_tiling")

    # Only the tiling search's own lookups: simulate_layer's single
    # traffic evaluation per layer is not a search candidate.
    dram_traffic = tiling.dram_traffic

    def counted_dram_traffic(*args, **kwargs):
        tracer.counts["accel.tiling_candidates"] += 1
        return dram_traffic(*args, **kwargs)

    patcher.patch_attr(tiling, "dram_traffic", counted_dram_traffic)
