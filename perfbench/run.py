"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer_vgg16_b16 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the separate traced run: it wraps each layer's public
entry points (see ``layers.py``) and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the host and ungated facts.  The exit status is 1 when that object says
``"correct": false``.  The benchmark is one process with one
thread and changes no setting the library reads (BLAS threads
included); it only records them.  See ``README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit, better) — must match BENCHMARK.json (a self-test checks it)
END_TO_END = (
    ("items_per_s", "items/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_rate", "ops/ops", "higher"),
)

#: ``nn.glue`` is window time outside every wrapped span
_TIMED = layers.TIMED_SPANS + ("nn.glue",)
PER_LAYER = (
    tuple((f"{s}.self_ms", "ms", "lower") for s in _TIMED)
    + tuple((f"{s}.self_pct", "%", "lower") for s in _TIMED)
    + (
        ("nn.conv2d.calls", "count", "lower"),
        ("core.fused.calls", "count", "higher"),
        ("core.kernel_mac_share", "ratio", "higher"),
        ("accel.plan_tiling.calls", "count", "lower"),
        ("accel.tiling_candidates", "count", "lower"),
        ("compiler.rewrites", "count", "higher"),
    )
    + tuple((f"{s}.s", "s", "lower") for s in layers.SETUP_SPANS)
    + (("bench.trace_overhead_pct", "%", "lower"),)
)

#: latency percentiles are only reported with >= 10 samples beyond them
P99_MIN_OPS = 1000


def _fail(msg: str) -> "NoReturn":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    """What the host gave this run; nothing here is changed, only read."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "git_sha": _git_sha(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    env.update(_blas())
    return env


def _git_sha() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> dict:
    """Effective BLAS library and its thread count, queried read-only."""
    import ctypes
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))  # already loaded by numpy: same handle
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                return info
    return info


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _reset_peak_rss() -> None:
    """Restart the kernel's resident high-water mark (``VmHWM``) here."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        return int(re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M).group(1)) / 1024.0


def untraced(wl, seconds: float) -> tuple:
    import repro.accel, repro.compiler, repro.data, repro.models, repro.train  # noqa: F401  imports are not set-up

    setup = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    wl.reference()
    # peak memory of the timed loop only: not of set-up's transients or
    # of the benchmark's own reference model
    gc.collect()
    _reset_peak_rss()
    win = wl.measure(seconds=seconds)
    peak_rss_mb = _peak_rss_mb()
    wrong = wl.check()
    ms = [x * 1e3 for x in win.latencies_s]
    metrics = {
        "items_per_s": win.items / win.wall_s,
        "latency_p50_ms": _percentile(ms, 50),
        "latency_p90_ms": _percentile(ms, 90),
        "cpu_ms_per_op": win.cpu_s * 1e3 / win.ops,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (win.ops - wrong) / win.ops,
    }
    info = {"ops": win.ops}
    if win.ops >= P99_MIN_OPS:
        info["latency_p99_ms"] = _percentile(ms, 99)
    return metrics, win.ops, wrong, info


def traced(wl, seconds: float) -> tuple:
    from spans import Patcher, SpanTracer

    tracer = SpanTracer()
    wl.span = tracer.span
    problems = []

    patcher = Patcher()
    layers.install(tracer, patcher)
    setups = []
    try:
        for _ in range(2):
            tracer.reset()
            wl.setup()
            setups.append((tracer.snapshot(), getattr(wl, "report", None)))
    finally:
        patcher.restore()
    rewrites = [r.total_rewrites if r is not None else 0 for _, r in setups]
    if rewrites[0] != rewrites[1]:
        problems.append(f"compiler.rewrites differ across two compiles: {rewrites}")
    wl.reference()

    plain = wl.measure(seconds=seconds / 3)
    patcher = Patcher()
    layers.install(tracer, patcher)
    try:
        tracer.reset()
        win_a = wl.measure(seconds=seconds / 3)
        wall = win_a.elapsed()  # up to the snapshot: spans after the last op count too
        run_a = tracer.snapshot()
        tracer.reset()
        win_b = wl.measure(ops=win_a.ops)  # replays window A's op sequence
        run_b = tracer.snapshot()
    finally:
        patcher.restore()
    exact_a = {"ops": win_a.ops, **run_a.calls, **run_a.counts}
    exact_b = {"ops": win_b.ops, **run_b.calls, **run_b.counts}
    if exact_a != exact_b:
        problems.append(f"exact counts differ across two traced windows: {exact_a} vs {exact_b}")

    ops = win_a.ops
    metrics = {}
    self_s = {s: run_a.self_s.get(s, 0.0) for s in layers.TIMED_SPANS}
    self_s["nn.glue"] = wall - sum(run_a.self_s.values())
    for s in _TIMED:
        metrics[f"{s}.self_ms"] = self_s[s] * 1e3 / ops
        metrics[f"{s}.self_pct"] = 100.0 * self_s[s] / wall
    lowered = run_a.counts["conv_macs.lowered"]
    all_macs = lowered + run_a.counts["conv_macs.plain"]
    metrics.update({
        "nn.conv2d.calls": run_a.calls["nn.conv2d"] / ops,
        "core.fused.calls": run_a.calls["core.fused"] / ops,
        "core.kernel_mac_share": lowered / all_macs if all_macs else 0.0,
        "accel.plan_tiling.calls": run_a.calls["accel.plan_tiling"] / ops,
        "accel.tiling_candidates": run_a.counts["accel.tiling_candidates"] / ops,
        "compiler.rewrites": float(rewrites[0]),
    })
    for name in layers.SETUP_SPANS:
        metrics[f"{name}.s"] = statistics.median(snap.total_s.get(name, 0.0) for snap, _ in setups)
    traced_rate = (win_a.items + win_b.items) / (win_a.wall_s + win_b.wall_s)
    metrics["bench.trace_overhead_pct"] = 100.0 * (plain.items / plain.wall_s / traced_rate - 1.0)

    wrong = wl.check()
    attempted = plain.ops + win_a.ops + win_b.ops
    info = {"ops_plain": plain.ops, "exact_counts": exact_a}
    return metrics, attempted, wrong, info, problems


def _obs_switched_on() -> list:
    """``repro.obs`` instruments that are on; every run needs them off."""
    from repro.obs.metrics import get_recorder
    from repro.obs.telemetry.registry import get_telemetry
    from repro.obs.tracer import get_tracer

    switches = {"tracer": get_tracer(), "telemetry": get_telemetry(), "op counters": get_recorder()}
    return [name for name, obj in switches.items() if obj.enabled]


def run_all(names, argv) -> int:
    """``--workload all``: each workload in a fresh process, one after
    another, so that ``peak_rss_mb`` stays per workload."""
    i = argv.index("--workload")
    status = 0
    for name in names:
        print(f"## {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve())] + argv[:i] + ["--workload", name] + argv[i + 2:]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no library source at {ROOT / 'src' / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, argv if argv is not None else sys.argv[1:])
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")

    env = environment(args.seed)
    wl = workloads.make(args.workload, args.seed)
    problems = []
    if args.trace:
        metrics, attempted, wrong, info, problems = traced(wl, args.seconds)
        spec = PER_LAYER
    else:
        metrics, attempted, wrong, info = untraced(wl, args.seconds)
        spec = END_TO_END
    info.update(wl.info())
    problems += wl.problems
    problems += [f"repro.obs {name} was on during the run" for name in _obs_switched_on()]
    problems += [f"non-finite metric {k}" for k, v in metrics.items() if not math.isfinite(v)]
    env["ops"] = attempted

    print(f"# workload {wl.name}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True, default=float))
    for name, unit, better in spec:
        print(f"{name:32s} {metrics[name]:>14.6g} {unit:8s} ({better} is better)")
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    if wrong:
        print(f"perfbench: {wrong} of {attempted} ops failed or were wrong", file=sys.stderr)
    result = {
        "correct": not problems and wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
