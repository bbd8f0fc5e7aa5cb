"""Self-tests of the benchmark harness (not of the library it measures).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads
from spans import Patcher, SpanTracer

BENCH = Path(__file__).resolve().parent.parent


def _bindings():
    """Every module attribute under ``repro`` and every class attribute
    the layer wrappers touch, by identity."""
    from repro.core.fusion import FusedConvPool
    from repro.data.dataset import DataLoader
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor

    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for attr, val in vars(mod).items():
                out[(name, attr)] = id(val)
    for cls in (FusedConvPool, Tensor, DataLoader, Optimizer, *Optimizer.__subclasses__()):
        for attr, val in vars(cls).items():
            out[(cls.__qualname__, attr)] = id(val)
    return out


def test_wrappers_restore_every_patched_attribute():
    import repro.accel.tiling as tiling
    import repro.nn.functional as F

    with Patcher() as p:  # first install imports every module it wraps
        layers.install(SpanTracer(), p)
    before = _bindings()
    conv2d, dram_traffic = F.conv2d, tiling.dram_traffic
    patcher = Patcher()
    layers.install(SpanTracer(), patcher)
    try:
        assert F.conv2d is not conv2d
        assert tiling.dram_traffic is not dram_traffic
        assert _bindings() != before
    finally:
        patcher.restore()
    assert _bindings() == before


def test_inherited_class_attribute_is_removed_not_pinned():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with Patcher() as p:
        p.patch_attr(Child, "f", lambda self: "patched")
        assert Child().f() == "patched"
    assert "f" not in vars(Child)
    Base.f = lambda self: "changed later"
    assert Child().f() == "changed later"


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 20]
    # ├── b [1, 9]
    # │   ├── c [2, 4]
    # │   └── c [5, 8]
    # └── b [12, 13]
    ticks = iter([0, 1, 2, 4, 5, 8, 9, 12, 13, 20])
    t = SpanTracer(clock=lambda: next(ticks))
    t.enter("a")
    t.enter("b")
    t.enter("c"); t.exit()
    t.enter("c"); t.exit()
    t.exit()
    t.enter("b"); t.exit()
    t.exit()
    assert dict(t.self_s) == {"c": 5, "b": 4, "a": 11}
    assert dict(t.total_s) == {"c": 5, "b": 9, "a": 20}
    assert t.calls == {"a": 1, "b": 2, "c": 2}
    assert sum(t.self_s.values()) == 20  # self times partition the root span
    assert t.depth == 0


def test_span_closes_when_the_call_raises():
    from spans import spanned

    t = SpanTracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spanned(t, "boom", boom)()
    assert t.depth == 0 and t.calls["boom"] == 1


def _lenet(seed):
    """Compiled LeNet-5 inference at batch 1: the quickest ``Infer`` to set up."""
    wl = workloads.Infer("lenet5_b1", "lenet5", 1, seed)
    wl.setup_reps = 1
    return wl


def _lenet_with_one_wrong_output(seed):
    """LeNet-5 inference whose 8th output after set-up is off by one."""
    wl = _lenet(seed)
    setup = wl.setup

    def setup_with_faulty_model():
        setup()
        model, calls = wl.model, []

        def faulty(x):
            out = model(x)
            calls.append(1)
            if len(calls) == 8:
                out.data = out.data + 1.0
            return out

        wl.model = faulty

    wl.setup = setup_with_faulty_model
    return wl


def test_injected_wrong_output_is_counted():
    wl = _lenet_with_one_wrong_output(seed=3)
    metrics, attempted, wrong, _ = run.untraced(wl, seconds=0.2)
    assert wrong == 1 and attempted > 8
    assert metrics["ok_rate"] == pytest.approx((attempted - 1) / attempted)


def test_wrong_output_makes_the_run_exit_nonzero(monkeypatch, capsys):
    wl = _lenet_with_one_wrong_output(seed=3)
    monkeypatch.setattr(workloads, "make", lambda name, seed: wl)
    status = run.main(["--workload", "infer_vgg16_b16", "--seed", "3", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1


def test_failing_fits_end_the_run_and_are_counted():
    wl = workloads.make("train_vgg16_w025", seed=3)
    wl.setup_reps = 1
    setup = wl.setup

    def setup_with_failing_fit():
        setup()

        def fit():
            raise RuntimeError("injected")

        wl.trainer.fit = fit

    wl.setup = setup_with_failing_fit
    metrics, attempted, wrong, _ = run.untraced(wl, seconds=2.0)  # 5 steps: 2 fits
    assert attempted == 2 * wl.steps_per_fit
    assert wrong == attempted
    assert metrics["ok_rate"] == 0.0


def test_non_finite_training_loss_is_counted():
    wl = workloads.make("train_vgg16_w025", seed=3)
    wl.losses = [2.3, math.nan, 2.1, math.inf]
    assert wl.check() == 2


def test_wrong_simulated_statistic_is_counted(monkeypatch):
    wl = workloads.make("accel_sweep", seed=3)
    wl.setup()
    wl.reference()
    evaluate, calls = workloads.evaluate_point, []

    def faulty(point, specs):
        base, other = evaluate(point, specs)
        calls.append(point)
        if len(calls) == 2:
            base.layers[0].dram_bytes += 1.0
        return base, other

    monkeypatch.setattr(workloads, "evaluate_point", faulty)
    wl.measure(ops=3)
    assert wl.check() == 1


def test_same_seed_reproduces_identical_inputs():
    a, b, c = (_lenet(s) for s in (11, 11, 12))
    for wl in (a, b, c):
        wl.setup()
    assert all(np.array_equal(x, y) for x, y in zip(a.inputs, b.inputs))
    assert not np.array_equal(a.inputs[0], c.inputs[0])

    assert workloads.design_points(11, 3) == workloads.design_points(11, 3)
    assert workloads.design_points(11, 3) != workloads.design_points(12, 3)


def test_sweep_work_per_round_does_not_depend_on_the_seed():
    def cost_mix(seed):
        pts = workloads.design_points(seed, 3)
        n = workloads.ROUND_POINTS
        return [sorted((c, mem, b) for c, _, mem, b in pts[i : i + n]) for i in range(0, len(pts), n)]

    assert cost_mix(1) == cost_mix(2)


def test_traced_run_repeats_exact_counts_and_reports_every_layer_metric():
    wl = _lenet(seed=4)
    before = _bindings()
    metrics, attempted, wrong, info, problems = run.traced(wl, seconds=0.3)
    assert _bindings() == before
    assert problems == [] and wrong == 0
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert 0.0 < metrics["core.kernel_mac_share"] <= 1.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "accel_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
