"""The benchmark's workloads: inputs from the seed, set-up, timed ops, checks.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned, because each caller of the library
waits for its result.  One op is one batch forward (``infer_*``), one
optimisation step (``train_*``) or one design-point evaluation
(``accel_sweep``).

A workload exposes

* ``setup()`` — what a user pays before the first result (timed as
  ``setup_s``; the benchmark's own reference computation is excluded);
* ``reference()`` — the benchmark's independent expected results;
* ``measure(seconds=…)`` or ``measure(ops=…)`` — the timed closed loop.
  ``ops`` replays exactly the op sequence an earlier window ran, which
  is how a traced run checks that exact counts repeat;
* ``check()`` — how many measured ops failed or were wrong.  Each
  output is checked right after its op, with the window's clock paused.

The library under test only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from spans import Patcher

EXPECTED_PATH = Path(__file__).with_name("accel_expected.json")


class Window:
    """One timed stretch of a closed loop.

    Per op it keeps the latency and the end of the op on the wall and
    process CPU clocks.  Correctness checks run between ops inside
    :meth:`paused`, which takes their time out of the window, so a
    window never retains outputs and its memory does not grow with its
    op count.
    """

    def __init__(self, items_per_op: int) -> None:
        self.items_per_op = items_per_op
        self.latencies_s: List[float] = []
        self._paused_s = self._paused_cpu_s = 0.0
        self.c0, self.t0 = time.process_time(), time.perf_counter()
        self.c1, self.t1 = self.c0, self.t0

    def record(self, latency_s: float, end: float) -> None:
        self.latencies_s.append(latency_s)
        self.t1 = end - self._paused_s
        self.c1 = time.process_time() - self._paused_cpu_s

    @contextmanager
    def paused(self):
        t, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - t
            self._paused_cpu_s += time.process_time() - c

    def elapsed(self) -> float:
        return time.perf_counter() - self._paused_s - self.t0

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def items(self) -> int:
        return self.ops * self.items_per_op

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu_s(self) -> float:
        return self.c1 - self.c0


def _no_span(name: str):
    return nullcontext()


class Workload:
    name = ""
    #: cold set-ups per untraced run; ``setup_s`` is their median.  A
    #: fixed count, so that the heap a run starts measuring from (and so
    #: ``peak_rss_mb``) does not depend on how fast set-up ran
    setup_reps = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.span = _no_span  # a traced run puts its tracer's span here
        self.wrong = 0  # ops that raised or failed their check
        self.problems: List[str] = []  # failed checks that are not per op

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> Window:
        raise NotImplementedError

    def check(self) -> int:
        return self.wrong

    def info(self) -> Dict[str, object]:
        """Ungated facts printed beside the metrics."""
        return {}


def reduction_length(model) -> int:
    """Summed reduction lengths of every conv, pool and linear layer.

    Times the unit round-off of the dtype it is the relative error bound
    of a forward pass (the classic ``n·u`` dot-product bound, accumulated
    layer by layer)."""
    from repro.models.blocks import PoolSpec
    from repro.nn.layers import Conv2d, Linear

    length = 0
    for _, mod in model.named_modules():
        if isinstance(mod, Conv2d):
            length += mod.in_channels * mod.kernel_size[0] * mod.kernel_size[1]
        elif isinstance(mod, Linear):
            length += mod.in_features
        pool = getattr(mod, "pool", None)
        if isinstance(pool, PoolSpec):
            length += pool.kernel * pool.kernel
    return length


def _eps(dtype) -> float:
    return float(np.finfo(dtype).eps)


def _reference_model(name: str, seed: int, **kwargs):
    """Same weights as the compiled model, with only the model-level
    set-pooling + reorder rewrites: the unfused plain-``repro.nn`` run."""
    from repro.models import build_model, reorder_activation_pooling, set_pooling

    model = build_model(name, seed=seed, **kwargs)
    return reorder_activation_pooling(set_pooling(model, "avg"))


def _compile(model, span):
    from repro.compiler import mlcnn_pipeline

    with span("compiler.pipeline_run"):
        return mlcnn_pipeline().run(model)


class Infer(Workload):
    """Compiled-model inference on a fixed pool of seeded batches."""

    #: distinct input batches cycled through by the loop
    n_inputs = 4

    def __init__(self, name: str, model: str, batch: int, seed: int):
        super().__init__(seed)
        self.name, self.model_name, self.batch = name, model, batch
        self.max_rel_err = 0.0

    def setup(self) -> None:
        from repro.compiler import clear_plan_cache
        from repro.data import synth_cifar10
        from repro.models import build_model
        from repro.nn.tensor import Tensor, no_grad

        self.model = None  # an earlier set-up's model is not kept alive
        gc.collect()
        clear_plan_cache()  # every set-up pays a cold compile
        per_class = math.ceil(self.batch * self.n_inputs / 10)
        images = synth_cifar10(samples_per_class=per_class, seed=self.seed).images
        self.inputs = [
            images[i * self.batch : (i + 1) * self.batch] for i in range(self.n_inputs)
        ]
        with self.span("models.build_model"):
            model = build_model(self.model_name, seed=self.seed)
        model, self.report = _compile(model, self.span)
        model.eval()
        with no_grad():
            model(Tensor(self.inputs[0]))  # first warm-up call
        self.model = model

    def reference(self) -> None:
        from repro.nn.tensor import Tensor, no_grad

        ref = _reference_model(self.model_name, self.seed).eval()
        with no_grad():
            self.expected = [ref(Tensor(x)).data for x in self.inputs]
        self.scale = [max(1.0, float(np.max(np.abs(y)))) for y in self.expected]
        self.reduction_len = reduction_length(ref)

    def measure(self, seconds=None, ops=None) -> Window:
        from repro.nn.tensor import Tensor, no_grad

        model, inputs = self.model, self.inputs
        win = Window(self.batch)
        i = 0
        with no_grad():
            while True:
                k = i % self.n_inputs
                a = time.perf_counter()
                try:
                    out = model(Tensor(inputs[k])).data
                except Exception:  # counted; the loop must go on
                    out = None
                b = time.perf_counter()
                win.record(b - a, b)
                with win.paused():
                    self.wrong += not self._correct(k, out)
                i += 1
                if (i >= ops) if ops is not None else (win.elapsed() >= seconds):
                    break
        return win

    def _correct(self, k: int, out) -> bool:
        ref = self.expected[k]
        if out is None or out.shape != ref.shape or not np.all(np.isfinite(out)):
            return False
        err = float(np.max(np.abs(out - ref))) / self.scale[k]
        self.max_rel_err = max(self.max_rel_err, err)
        # the bound follows the dtype the compiled model computes in
        return err <= self.reduction_len * _eps(out.dtype)

    def info(self):
        return {"max_rel_err": self.max_rel_err, "rel_bound_f64": self.reduction_len * _eps(np.float64)}


class Train(Workload):
    """``Trainer.fit`` on synthetic CIFAR-10 with an MLCNN-compiled model.

    The loop calls ``fit()`` (one epoch of ``steps_per_fit`` steps plus
    validation) repeatedly.  Steps are timed from outside by hooking the
    trainer's optimizer instance; validation time is left out of step
    latencies but stays in the throughput's wall time.

    The window is a step count, not a deadline: the library's autograd
    graph holds reference cycles, so resident memory grows with every
    step until a full garbage collection, and a deadline would make
    ``peak_rss_mb`` depend on speed.  ``seconds`` converts to steps at
    ``steps_per_second``, about the current training rate on a 2-core host.
    """

    steps_per_fit = 4
    steps_per_second = 3.5
    batch = 32

    def __init__(self, name: str, model: str, width: float, seed: int):
        super().__init__(seed)
        self.name, self.model_name, self.width = name, model, width
        self.losses: List[float] = []

    def setup(self) -> None:
        from repro.compiler import clear_plan_cache
        from repro.data import synth_cifar10
        from repro.data.dataset import ArrayDataset
        from repro.models import build_model
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor
        from repro.train import TrainConfig, Trainer

        self.model = self.trainer = None  # an earlier set-up's are not kept alive
        gc.collect()
        clear_plan_cache()
        n_train = self.steps_per_fit * self.batch
        data = synth_cifar10(samples_per_class=(n_train + self.batch) // 10 + 1, seed=self.seed)
        train = ArrayDataset(data.images[:n_train], data.labels[:n_train])
        val = ArrayDataset(
            data.images[n_train : n_train + self.batch], data.labels[n_train : n_train + self.batch]
        )
        self.probe = (val.images, val.labels)
        with self.span("models.build_model"):
            model = build_model(self.model_name, width_mult=self.width, seed=self.seed)
        # parameter names before fusion renames their owners; the fused
        # modules share these very tensors
        self.params = dict(model.named_parameters())
        model, self.report = _compile(model, self.span)
        model.train()
        model.zero_grad()
        loss = F.cross_entropy(model(Tensor(self.probe[0])), self.probe[1])
        loss.backward()  # first warm-up call; its gradients feed reference()
        self.trainer = Trainer(
            model,
            train,
            val,
            TrainConfig(
                epochs=1, batch_size=self.batch, lr=2e-3, optimizer="adam", seed=self.seed
            ),
        )
        self.model = model

    def reference(self) -> None:
        """Fused-vs-unfused gradients on the probe batch, checked once."""
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        ref = _reference_model(self.model_name, self.seed, width_mult=self.width).train()
        loss = F.cross_entropy(ref(Tensor(self.probe[0])), self.probe[1])
        loss.backward()
        # weight gradients also reduce over batch x spatial positions
        n, _, h, w = self.probe[0].shape
        bound = (reduction_length(ref) + n * h * w) * _eps(np.float64)
        self.grad_err = 0.0
        for name, p in ref.named_parameters():
            g, g_ref = self.params[name].grad, p.grad
            scale = max(1.0, float(np.max(np.abs(g_ref))))
            err = float(np.max(np.abs(g - g_ref))) / scale if g is not None else math.inf
            self.grad_err = max(self.grad_err, err)
        self.grad_bound = bound
        if self.grad_err > bound:
            self.problems.append(
                f"fused-vs-unfused gradients differ by {self.grad_err:.3g} > bound {bound:.3g}"
            )

    def measure(self, seconds=None, ops=None) -> Window:
        import repro.train.trainer as trainer_mod
        from repro.nn.tensor import Tensor

        opt = self.trainer.optimizer
        step, backward, evaluate = opt.step, Tensor.backward, trainer_mod.evaluate
        win = Window(self.batch)
        losses = self.losses
        last = {"mark": 0.0, "loss": math.nan}

        def timed_step():
            step()
            now = time.perf_counter()
            win.record(now - last["mark"], now)
            losses.append(last["loss"])
            last["mark"] = now

        def loss_backward(tensor, *args, **kwargs):
            if tensor.data.size == 1:
                last["loss"] = float(tensor.data)
            return backward(tensor, *args, **kwargs)

        def timed_evaluate(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            last["mark"] = time.perf_counter()  # validation is not part of a step
            return result

        if ops is None:
            ops = max(1, round(seconds * self.steps_per_second))
        patcher = Patcher()
        patcher.patch_attr(opt, "step", timed_step)
        patcher.patch_attr(Tensor, "backward", loss_backward)
        patcher.patch_attr(trainer_mod, "evaluate", timed_evaluate)
        try:
            for _ in range(math.ceil(ops / self.steps_per_fit)):
                done = win.ops
                last["mark"] = time.perf_counter()
                try:
                    self.trainer.fit()
                except Exception:  # counted below; the loop must go on
                    pass
                # a fit that raised or stopped early lost its remaining
                # steps: each is recorded as an op and counted as wrong
                missing = self.steps_per_fit - (win.ops - done)
                if missing > 0:
                    now = time.perf_counter()
                    for _ in range(missing):
                        win.record(now - last["mark"], now)
                        last["mark"] = now
                    self.wrong += missing
        finally:
            patcher.restore()
        return win

    def check(self) -> int:
        return self.wrong + sum(1 for v in self.losses if not math.isfinite(v))

    def info(self):
        return {"grad_max_rel_err": self.grad_err, "grad_rel_bound": self.grad_bound}


# -- accelerator design-space sweep -----------------------------------------

ACCEL_MODELS = ("lenet5", "vgg16", "googlenet", "densenet")
CANDIDATES = ("mlcnn-fp32", "mlcnn-fp16", "mlcnn-int8")
BANDWIDTHS = (4.0, 16.0, 64.0)  # DRAM bytes per cycle
MEMORIES_KB = (67, 134, 268)  # on-chip buffer
BATCHES = (1, 4)
#: (candidate, buffer size) pairs; a sweep round evaluates each once
ROUND_PAIRS = tuple(itertools.product(CANDIDATES, MEMORIES_KB))
ROUND_POINTS = len(ROUND_PAIRS)
WARMUP_POINT = ("vgg16", "mlcnn-fp32", 16.0, 134, 1)


def design_points(seed: int, rounds: int) -> List[tuple]:
    """Seeded ``(candidate, bandwidth, memory_kb, batch)`` design points.

    Each round evaluates every (candidate, buffer size) pair once, in a
    seeded order.  Those two set the cost of the tiling search, so every
    round does the same work whatever the seed.  Round after round the
    same (layer, buffer) tiling problems come back at another bandwidth,
    as in :mod:`repro.analysis.sweep`.  The seed draws the order and each
    point's bandwidth, which leaves the cost alone; each pair's batch
    alternates from round to round, seed-free.
    """
    rng = np.random.default_rng(seed)
    points = []
    for r in range(rounds):
        for k in rng.permutation(ROUND_POINTS):
            cand, mem = ROUND_PAIRS[k]
            batch = BATCHES[(r + k) % len(BATCHES)]
            bw = float(BANDWIDTHS[rng.integers(len(BANDWIDTHS))])
            points.append((cand, bw, mem, batch))
    return points


def point_key(model: str, config: str, bw: float, mem: int, batch: int) -> str:
    return f"{model}|{config}|bw={bw:g}|mem={mem}|batch={batch}"


def network_stats(result) -> Dict[str, object]:
    """Every simulated statistic of a NetworkResult, exactly as floats/ints."""
    e = result.energy
    layers = [
        (
            l.name, l.fused, l.cycles, l.compute_cycles, l.memory_cycles,
            l.ops.multiplications, l.ops.additions, l.ops.preprocessing_additions,
            l.dram_bytes, l.buffer_accesses,
            l.energy.dram_j, l.energy.buffer_j, l.energy.mac_j, l.energy.static_j,
            (l.tiling.tm, l.tiling.tn, l.tiling.tr, l.tiling.tc),
        )
        for l in result.layers
    ]
    return {
        "cycles": result.cycles,
        "energy_dram_j": e.dram_j,
        "energy_buffer_j": e.buffer_j,
        "energy_mac_j": e.mac_j,
        "energy_static_j": e.static_j,
        "energy_total_j": e.total_j,
        "dram_bytes": sum(l.dram_bytes for l in result.layers),
        "buffer_accesses": sum(l.buffer_accesses for l in result.layers),
        "multiplications": sum(l.ops.multiplications for l in result.layers),
        "additions": sum(l.ops.additions for l in result.layers),
        "preprocessing_additions": sum(l.ops.preprocessing_additions for l in result.layers),
        "layers_sha256": hashlib.sha256(repr(layers).encode()).hexdigest(),
    }


def evaluate_point(point, specs_by_model) -> tuple:
    """One network's DCNN-vs-candidate comparison through the public
    accel API; ``point`` is ``(model, candidate, bw, memory_kb, batch)``."""
    from repro.accel import compare_networks, get_config, simulate_network

    model, cand, bw, mem, batch = point
    specs = specs_by_model[model]
    knobs = dict(dram_bytes_per_cycle=bw, onchip_memory_kb=mem)
    base = dataclasses.replace(get_config("dcnn-fp32"), **knobs)
    other = dataclasses.replace(get_config(cand), **knobs)
    if batch == 1:
        cmp = compare_networks(specs, base, other)
        return cmp.baseline, cmp.candidate
    return simulate_network(specs, base, batch=batch), simulate_network(specs, other, batch=batch)


def opcount_mismatches(specs, result, batch: int) -> int:
    """Layers whose simulated multiplications differ from repro.core.opcount.

    Fused layers must also satisfy RME directly: one multiplication per
    weight per pooled output, i.e. ``p^2`` fewer than the dense conv
    when the pool tiles the conv output exactly.
    """
    from repro.core.opcount import dcnn_layer_ops, mlcnn_layer_ops

    bad = 0
    for spec, layer in zip(specs, result.layers):
        formula = mlcnn_layer_ops(spec) if layer.fused else dcnn_layer_ops(spec)
        if layer.ops.multiplications != batch * formula.multiplications:
            bad += 1
        elif layer.fused and spec.pool_stride == spec.pool and spec.conv_output_size % spec.pool == 0:
            dense_conv = batch * spec.macs
            if layer.ops.multiplications * spec.pool ** 2 != dense_conv:
                bad += 1
    return bad


class AccelSweep(Workload):
    name = "accel_sweep"
    setup_reps = 25  # each set-up is ~25 ms
    #: rounds of points drawn; a longer window wraps round to the first
    rounds = 40

    def setup(self) -> None:
        from repro.models.specs import get_specs

        self.specs = {m: get_specs(m) for m in ACCEL_MODELS}
        self.points = design_points(self.seed, self.rounds)
        # first warm-up call, at a fixed point so set-up cost is seed-free
        evaluate_point(WARMUP_POINT, self.specs)

    def reference(self) -> None:
        self.expected = json.loads(EXPECTED_PATH.read_text())

    def measure(self, seconds=None, ops=None) -> Window:
        """One op judges one design point on every zoo network.  A
        deadline window runs on to the end of the round it falls in, so
        every window holds whole rounds: the same mix of points."""
        points, specs = self.points, self.specs
        win = Window(1)
        i = 0
        while True:
            point = points[i % len(points)]
            a = time.perf_counter()
            try:
                out = [evaluate_point((model,) + point, specs) for model in ACCEL_MODELS]
            except Exception:  # counted; the loop must go on
                out = None
            b = time.perf_counter()
            win.record(b - a, b)
            with win.paused():
                self.wrong += not self._correct(point, out)
            i += 1
            if (i >= ops) if ops is not None else (win.elapsed() >= seconds and i % ROUND_POINTS == 0):
                break
        return win

    def _correct(self, point, out) -> bool:
        if out is None:
            return False
        cand, bw, mem, batch = point
        return all(
            network_stats(base) == self.expected[point_key(model, "dcnn-fp32", bw, mem, batch)]
            and network_stats(other) == self.expected[point_key(model, cand, bw, mem, batch)]
            and opcount_mismatches(self.specs[model], base, batch) == 0
            and opcount_mismatches(self.specs[model], other, batch) == 0
            for model, (base, other) in zip(ACCEL_MODELS, out)
        )

    def info(self):
        """Whole-network MLCNN/DCNN ratios at the Table VII operating point
        (16 B/cycle, 134 kB, batch 1) from the expected statistics, which
        every checked point matched, beside the paper's figures.  Not
        validated and not gated: the simulator is a model, not the RTL."""
        paper = {"mlcnn-fp32": (3.2, 2.9), "mlcnn-int8": (12.8, 11.3)}
        out = {}
        for cand, (p_speed, p_energy) in paper.items():
            speed, energy = [], []
            for model in ACCEL_MODELS:
                base = self.expected[point_key(model, "dcnn-fp32", 16.0, 134, 1)]
                other = self.expected[point_key(model, cand, 16.0, 134, 1)]
                speed.append(base["cycles"] / other["cycles"])
                energy.append(base["energy_total_j"] / other["energy_total_j"])
            out[cand] = {
                "speedup_geomean": float(np.exp(np.mean(np.log(speed)))),
                "energy_ratio_geomean": float(np.exp(np.mean(np.log(energy)))),
                "paper_speedup": p_speed,
                "paper_energy_ratio": p_energy,
            }
        return {"simulated_vs_paper_unvalidated": out}


def make(name: str, seed: int) -> Workload:
    """The named workload; BENCHMARK.json says why each one exists."""
    if name == "infer_vgg16_b16":
        return Infer(name, "vgg16", 16, seed)
    if name == "train_vgg16_w025":
        return Train(name, "vgg16", 0.25, seed)
    if name == "accel_sweep":
        return AccelSweep(seed)
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("infer_vgg16_b16", "train_vgg16_w025", "accel_sweep")
