"""Attribution / roofline headline metrics (PR 7 tentpole).

``attrib.span_coverage[model=...]`` is the attribution engine's
self-check: the fraction of the instrumented forward's wall time
explained by per-layer spans (shard spans included).  It is a
property of the *instrumentation*, not of host speed — if coverage
drops, a subsystem stopped reporting (e.g. a shard span went missing) —
so it gates as a required higher-is-better metric at >= 0.9.

``roofline.attained_fraction[model=...]`` (wall-weighted attained /
attainable FLOP/s over the classified layer rows) and
``roofline.ridge_flop_per_byte`` trend the measured roofline join;
both are host-properties and ride advisorily (and the gate downgrades
them automatically when the baseline's core count differs).
"""

import os

import pytest

from repro.obs.attrib import attribute_model_run
from repro.obs.roofline import get_roofline

#: the gate floor committed in BENCH_core.json (required, higher-better)
COVERAGE_FLOOR = 0.9


@pytest.fixture(scope="module")
def roofline(tmp_path_factory):
    cache = tmp_path_factory.mktemp("roofline") / "roofline.json"
    old = os.environ.get("REPRO_ROOFLINE_CACHE")
    os.environ["REPRO_ROOFLINE_CACHE"] = str(cache)
    try:
        yield get_roofline()
    finally:
        if old is None:
            os.environ.pop("REPRO_ROOFLINE_CACHE", None)
        else:
            os.environ["REPRO_ROOFLINE_CACHE"] = old


def _run_and_record(model_name, roofline, benchmark, record_metric):
    report = benchmark.pedantic(
        attribute_model_run,
        args=(model_name,),
        kwargs={"roofline": roofline, "root": model_name},
        rounds=1,
        iterations=1,
    )
    coverage = report.span_coverage
    assert coverage >= COVERAGE_FLOOR, (
        f"span coverage {coverage:.3f} below {COVERAGE_FLOOR} — "
        f"{report.unexplained_us / 1e3:.3f} ms of "
        f"{report.total_us / 1e3:.3f} ms unexplained"
    )
    # the join produced roofline-classified layer rows
    classified = [r for r in report.rows if r.bound in ("compute", "memory")]
    assert classified, "no rows were roofline-classified"
    record_metric("attrib", "span_coverage", coverage, model=model_name)
    frac = report.attained_fraction()
    assert frac is not None and 0.0 < frac <= 1.5
    record_metric("roofline", "attained_fraction", frac, model=model_name)
    return report


def test_attrib_lenet5(benchmark, roofline, record_metric):
    _run_and_record("lenet5", roofline, benchmark, record_metric)


def test_attrib_vgg16(benchmark, roofline, record_metric):
    report = _run_and_record("vgg16", roofline, benchmark, record_metric)
    # a vgg16 run must attribute the dominant conv stages individually
    names = {r.name for r in report.rows if r.kind == "layer"}
    assert any(".features." in n for n in names)


def test_roofline_ridge(roofline, record_metric):
    assert roofline.peak_flops > 0 and roofline.stream_bandwidth > 0
    record_metric("roofline", "ridge_flop_per_byte", roofline.ridge_intensity)
