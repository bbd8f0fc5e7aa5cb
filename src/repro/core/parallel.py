"""Thread-sharded execution of the fused kernels.

The lowered fused kernels (:mod:`repro.core.kernels`) are single-core
NumPy programs; this module shards one call across threads — the
software analogue of the paper's multi-PE scale-out, where independent
output tiles map onto independent compute units.

NumPy's GEMM releases the GIL, so each shard runs the serial lowered
kernel on its slice of the input (:func:`plan_shards`: batch axis, or
output channels for small batches) and writes its disjoint slice of one
preallocated output.  The calling thread runs the first shard and one
lazily created ``ThreadPoolExecutor`` per worker count runs the rest;
nothing is serialized, and no ``__main__`` guard or teardown is needed.
Lowered kernels keep per-shape workspaces (``F32NHWCKernel._plans``),
so each thread runs its own kernel instance (:func:`_thread_kernel`).

Shard threads record op counters straight into the process-wide
:class:`~repro.obs.metrics.CounterRecorder` (it takes a lock), so an
enclosing collection sees exactly the serial totals; the calling thread
records one ``parallel.shard.<label>`` span per shard, with that shard's
own counters, under the enclosing ``parallel.*`` span.

Float outputs match the serial kernel within round-off (BLAS blocks a
per-shard GEMM differently than the full-batch one); integer outputs
are bit-identical.  ``workers <= 1`` or a single shard runs the plain
kernel on the calling thread, and grad-enabled forwards never get here
(:class:`~repro.core.fusion.FusedConvPool` uses its bound kernel only
without grad), so training keeps the serial autograd path.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "Shard",
    "plan_shards",
    "available_workers",
    "parallel_fused_conv_pool",
    "parallel_fused_conv_pool_int",
    "ParallelKernel",
]


def available_workers() -> int:
    """CPUs this process may use (affinity-aware, >= 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class Shard:
    """One shard: ``[start, stop)`` of the batch (``axis="images"``) or of
    the output filters (``axis="channels"``)."""

    axis: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def plan_shards(n_images: int, n_channels: int, workers: int) -> List[Shard]:
    """Split the fused operator across ``workers`` near-evenly.

    Prefers the batch axis; a batch smaller than the worker count shards
    the output channels instead, so small-batch inference still scales.
    """
    if workers <= 1:
        return [Shard("images", 0, n_images)]
    if n_images >= workers or n_channels <= 1:
        axis, total = "images", n_images
    else:
        axis, total = "channels", n_channels
    parts = max(1, min(workers, total))
    base, rem = divmod(total, parts)
    shards, lo = [], 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        shards.append(Shard(axis, lo, hi))
        lo = hi
    return shards


#: worker count -> persistent thread pool
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: per-thread kernel instances, keyed by (spec name, shape class)
_LOCAL = threading.local()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool for ``workers``: the calling thread is the last worker."""
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(workers - 1, f"shard{workers}")
        return _POOLS[workers]


def _thread_kernel(spec_name: str, shape_class: Any) -> Any:
    """This thread's own instance of a registered kernel."""
    kernels = _LOCAL.__dict__.setdefault("kernels", {})
    if (spec_name, shape_class) not in kernels:
        from repro.core.kernels import KERNEL_REGISTRY

        kernels[spec_name, shape_class] = KERNEL_REGISTRY.get(spec_name).make(shape_class)
    return kernels[spec_name, shape_class]


def _run_sharded(
    name: str,
    label: str,
    shards: Sequence[Shard],
    workers: int,
    run_shard: Callable[[Shard], None],
) -> None:
    """Run ``run_shard`` on every shard under one span: the first on the
    calling thread, which would otherwise sit waiting, the rest on the
    pool.  Waits for every shard, then re-raises the first failing
    shard's exception; a failed call leaves the pool usable.
    """
    from repro.obs.metrics import collect_thread_counters
    from repro.obs.tracer import get_tracer

    def timed(shard: Shard):
        t0 = time.perf_counter()
        with collect_thread_counters() as oc:
            run_shard(shard)
        return t0, time.perf_counter(), oc

    tracer = get_tracer()
    with tracer.span(
        name, category="parallel", workers=workers, shards=len(shards), axis=shards[0].axis
    ):
        pool = _pool(workers)
        dispatched = time.perf_counter()
        futures = [pool.submit(timed, s) for s in shards[1:]]
        try:
            first = timed(shards[0])
        finally:
            wait(futures)
        results = [first] + [f.result() for f in futures]
        collected = time.perf_counter()
        # A shard span runs from dispatch until the calling thread has its
        # result, so hand-off and wake-up latency count as the shard's time,
        # not as a gap in the parent; ``wall_time_s`` is its execution time.
        for i, (shard, (t0, t1, oc)) in enumerate(zip(shards, results)):
            done = t1 if i == 0 else collected
            counters = {k: v for k, v in oc.as_dict(include_derived=False).items() if v}
            tracer.record_span(
                f"parallel.shard.{label}",
                dur_us=(done - dispatched) * 1e6,
                category="parallel",
                axis=shard.axis,
                start=shard.start,
                stop=shard.stop,
                wall_time_s=t1 - t0,
                **({"counters": counters} if counters else {}),
            )


def parallel_fused_conv_pool(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    *,
    pool: int = 2,
    pool_stride: Optional[int] = None,
    padding: int = 0,
    activation: str = "relu",
    workers: int = 2,
    bits: int = 64,
) -> np.ndarray:
    """Registry-selected fused conv-pool, sharded across threads.

    Selects the lowered kernel for the call's shape class exactly as the
    compiler would and runs it through :class:`ParallelKernel`.
    """
    from repro.core.kernels import KERNEL_REGISTRY, ShapeClass

    x, weight = np.asarray(x), np.asarray(weight)
    bias = None if bias is None else np.asarray(bias)
    stride = pool if pool_stride is None else pool_stride
    sc = ShapeClass(kernel=weight.shape[-1], pool=pool, stride=stride, bits=bits, kind="float")
    spec = KERNEL_REGISTRY.select(sc)
    kernel = ParallelKernel(spec.make(sc), spec.name, workers)
    return kernel.run_nchw(x, weight, bias, padding=padding, activation=activation)


def parallel_fused_conv_pool_int(
    x_q: Any,
    w_q: Any,
    bias: Optional[np.ndarray] = None,
    *,
    pool: int = 2,
    apply_relu: bool = True,
    acc_bits: int = 32,
    out_bits: int = 0,
    out_amax: Optional[float] = None,
    workers: int = 2,
) -> np.ndarray:
    """Batched fixed-point fused conv-pool, sharded over images.

    ``x_q`` is a :class:`~repro.core.fixedpoint.QuantizedTensor` whose
    values are batched ``(N, C, H, W)``; ``w_q`` holds the quantized
    ``(M, C, K, K)`` weights.  Each image runs exactly as in a serial
    sweep of :func:`~repro.core.fixedpoint.fused_conv_pool_int`, so the
    ``(N, M, PO, QO)`` result is **bit-identical** to serial.
    """
    from repro.core.fixedpoint import QuantizedTensor, fused_conv_pool_int

    xv = np.asarray(x_q.values)
    if xv.ndim != 4:
        raise ValueError(f"expected batched (N, C, H, W) values, got {xv.shape}")
    images: List[Optional[np.ndarray]] = [None] * len(xv)
    opts = dict(
        pool=pool, apply_relu=apply_relu, acc_bits=acc_bits, out_bits=out_bits, out_amax=out_amax
    )

    def run_images(shard: Shard) -> None:
        for i in range(shard.start, shard.stop):
            xi = QuantizedTensor(xv[i], x_q.scale, x_q.bits)
            images[i] = fused_conv_pool_int(xi, w_q, bias, **opts)

    shards = plan_shards(len(xv), 0, workers)
    if len(shards) <= 1:
        run_images(Shard("images", 0, len(xv)))
    else:
        _run_sharded("parallel.fused_conv_pool_int", "int", shards, workers, run_images)
    return np.stack(images)


class ParallelKernel:
    """A lowered kernel wrapped for sharded execution.

    Attached by :class:`repro.compiler.parallelize.ParallelizePass` in
    place of the serial kernel: ``run_nchw`` shards the call, falling
    back to the wrapped serial kernel when only one shard would be
    produced.  Exposes the inner kernel's ``shape_class`` so plan
    introspection still works.
    """

    layout = "nchw"

    def __init__(self, inner: Any, spec_name: str, workers: int) -> None:
        self.inner = inner
        self.spec_name = spec_name
        self.workers = max(1, int(workers))
        self.shape_class = inner.shape_class
        self.name = f"parallel[{spec_name},workers={self.workers}]"

    def run_nchw(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        padding: int = 0,
        activation: str = "relu",
    ) -> np.ndarray:
        shards = plan_shards(x.shape[0], weight.shape[0], self.workers)
        if len(shards) <= 1:
            return self.inner.run_nchw(x, weight, bias, padding=padding, activation=activation)
        out = None
        out_lock = threading.Lock()

        def run_shard(shard: Shard) -> None:
            nonlocal out
            kern = _thread_kernel(self.spec_name, self.shape_class)
            sl = slice(shard.start, shard.stop)
            if shard.axis == "images":
                args, dest = (x[sl], weight, bias), (sl,)
            else:
                bs = None if bias is None else bias[sl]
                args, dest = (x, weight[sl], bs), (slice(None), sl)
            part = kern.run_nchw(*args, padding=padding, activation=activation)
            with out_lock:
                if out is None:
                    # The output dtype is whatever the kernel returns, as
                    # serially: the selected kernel, not the shape class's
                    # bits, decides it (overlapping pools run in float64).
                    out = np.empty((x.shape[0], weight.shape[0]) + part.shape[2:], part.dtype)
            out[dest] = part

        _run_sharded("parallel.fused_conv_pool", "kernel", shards, self.workers, run_shard)
        return out

    __call__ = run_nchw

    def __repr__(self) -> str:
        return f"<ParallelKernel {self.spec_name} workers={self.workers}>"
