#!/usr/bin/env python3
"""Multi-core inference with thread-sharded fused kernels.

Demonstrates `repro.core.parallel` end to end:

1. sharded kernel execution — `parallel_fused_conv_pool` against the
   serial lowered kernel, with the determinism contract checked on the
   spot (float: allclose to round-off; int: bit-identical);
2. the compiler route — `mlcnn_pipeline(parallel_workers=N)` appends a
   `parallelize` stage that wraps every bound kernel in a
   `ParallelKernel`, and the per-layer sharding decision lands in the
   compile context;
3. a small worker-scaling sweep of the compiled model with per-shard
   tracer spans.

Run:  python examples/parallel_infer.py [--workers N]
"""

import argparse
from time import perf_counter

import numpy as np

from repro import build_model
from repro.compiler import CompileContext, mlcnn_pipeline
from repro.core.fixedpoint import quantize_tensor
from repro.core.parallel import (
    available_workers,
    parallel_fused_conv_pool,
    parallel_fused_conv_pool_int,
)
from repro.nn.tensor import Tensor, no_grad
from repro.obs import get_tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=max(2, available_workers()),
        help="worker count for the sharded runs (default: max(2, nproc))",
    )
    args = parser.parse_args()
    workers = args.workers
    print(f"host reports {available_workers()} usable core(s); using workers={workers}\n")

    # 1. Sharded kernel vs serial: the determinism contract. ---------------
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 16, 32, 32))
    w = rng.normal(size=(32, 16, 3, 3))
    b = rng.normal(size=32)

    serial = parallel_fused_conv_pool(x, w, b, pool=2, padding=1, workers=1)
    sharded = parallel_fused_conv_pool(x, w, b, pool=2, padding=1, workers=workers)
    assert np.allclose(sharded, serial, atol=1e-9)
    print(
        "float kernel: sharded vs serial max|dev| = "
        f"{np.abs(sharded - serial).max():.3e}  (round-off only; "
        "per-shard GEMMs associate additions differently)"
    )

    xq = quantize_tensor(x, bits=8)
    wq = quantize_tensor(w, bits=8)
    int_sharded = parallel_fused_conv_pool_int(xq, wq, b, pool=2, workers=workers)
    int_serial = parallel_fused_conv_pool_int(xq, wq, b, pool=2, workers=1)
    assert np.array_equal(int_sharded, int_serial)
    print("int kernel:   sharded vs serial -> bit-identical (int64 adds are associative)\n")

    # 2. Compiler route: parallelize as a pipeline stage. ------------------
    ctx = CompileContext(seed=0)
    model, report = mlcnn_pipeline(parallel_workers=workers).run(
        build_model("lenet5", seed=0), ctx
    )
    plan = ctx.state.get("parallel_plan", {})
    print(f"pipeline: {' | '.join(r.name for r in report.records if r.ran)}")
    for path, entry in plan.items():
        print(
            f"  {path}: kernel={entry['kernel']} workers={entry['workers']} "
            f"axis={entry['axis']} shards={entry['shards']}"
        )

    # 3. A tiny scaling sweep of the compiled model. ------------------------
    batch = Tensor(rng.normal(size=(32, 3, 32, 32)))
    with no_grad():
        ref = model(batch).data

    tracer = get_tracer()
    tracer.enable()
    try:
        for n in sorted({1, 2, workers}):
            compiled, _ = mlcnn_pipeline(parallel_workers=n).run(
                build_model("lenet5", seed=0)
            )
            with no_grad():
                compiled(batch)  # warm the kernel workspaces
                tracer.clear()
                start = perf_counter()
                out = compiled(batch).data
            elapsed = perf_counter() - start
            assert np.allclose(out, ref, atol=1e-9)
            shard_events = [e for e in tracer.events if e.name.startswith("parallel.shard.")]
            print(
                f"compiled lenet5, workers={n}: {batch.shape[0] / elapsed:8.1f} samples/s "
                f"({len(shard_events)} shard span(s) this run)"
            )
    finally:
        tracer.disable()
        tracer.clear()


if __name__ == "__main__":
    main()
