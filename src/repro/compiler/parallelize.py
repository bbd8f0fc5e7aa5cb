"""The parallelize stage: shard lowered kernels across threads.

:class:`ParallelizePass` runs after ``lower``.  For every fused module
with a bound kernel it decides a sharding (via
:func:`repro.core.parallel.plan_shards` on the context's probe batch
geometry) and rebinds the kernel wrapped in a
:class:`~repro.core.parallel.ParallelKernel` — gradient-free forwards
then fan out across the thread pool, while training
forwards keep the serial autograd path untouched.

The sharding decision per layer (axis, shard count, worker count) is
recorded in the plan cache
(:meth:`~repro.compiler.cache.PlanCache.store_parallel_plan`) under
the same key the kernel plan uses, so sweep recompilations replay the
decision without re-planning, and tooling can inspect what a compiled
plan will do before running it.

``workers <= 1`` makes the pass a no-op (it does not even wrap), so a
pipeline built with ``parallel_workers=1`` is byte-for-byte the serial
pipeline.  The pass preserves semantics: each shard runs the serial
kernel on a disjoint slice, so outputs match within float round-off
(the pipeline's probe validation enforces the bound).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.compiler.context import CompileContext, PassResult
from repro.compiler.pass_base import Pass, register_pass
from repro.core.fusion import FusedConvPool
from repro.nn.layers import Module

__all__ = ["ParallelizePass"]


@register_pass
class ParallelizePass(Pass):
    """Wrap bound kernels for sharded execution (see module doc)."""

    name = "parallelize"
    preserves_semantics = True  # disjoint shards, same kernel per shard
    preserves_params = True

    def __init__(self, workers: Optional[int] = None) -> None:
        from repro.core.parallel import available_workers

        self.workers = available_workers() if workers is None else int(workers)

    def applies_to(self, model: Module) -> bool:
        return self.workers > 1 and any(
            isinstance(m, FusedConvPool) and m.kernel is not None
            for _, m in model.named_modules()
        )

    def signature(self) -> str:
        return f"{self.name}(workers={self.workers})"

    def run(self, model: Module, ctx: CompileContext) -> PassResult:
        from repro.compiler.cache import PLAN_CACHE
        from repro.core.parallel import ParallelKernel, plan_shards

        probe_n = ctx.probe_batch().shape[0]
        plan: Dict[str, Dict[str, object]] = {}
        wrapped = 0
        for path, mod in model.named_modules():
            if not (isinstance(mod, FusedConvPool) and mod.kernel is not None):
                continue
            inner = mod.kernel
            if isinstance(inner, ParallelKernel):
                inner = inner.inner  # re-wrap idempotently
            shards = plan_shards(probe_n, mod.weight.shape[0], self.workers)
            mod.attach_kernel(ParallelKernel(inner, inner.name, self.workers))
            plan[path] = {
                "kernel": inner.name,
                "workers": self.workers,
                "axis": shards[0].axis,
                "shards": len(shards),
            }
            wrapped += 1

        cache_key = ctx.state.get("plan_cache_key")
        if cache_key is not None and plan:
            PLAN_CACHE.store_parallel_plan(cache_key, plan)
        ctx.state["parallel_plan"] = dict(plan)
        return PassResult(self.name, wrapped, {"workers": self.workers, "plan": plan})
