"""Histogram-derived quantiles vs the independent P² estimators.

The bucket-interpolation quantiles (:meth:`_HistogramChild.quantile`)
and :class:`repro.obs.numerics.P2Quantile` estimators fed the same
sample stream see it through two unrelated algorithms — fixed
exponential buckets vs five adaptive markers.  On adversarial latency shapes
(bimodal mixtures, heavy tails) they must agree to within the
histogram's bucket resolution at that point (plus the documented P²
CDF tolerance), or one of the estimators is lying.

Distributions are chosen so the checked quantiles land inside a dense
mode, not in the empty valley between modes, where *any*
five-marker summary is legitimately ambiguous.
"""

import numpy as np
import pytest

from repro.obs.numerics import P2Quantile
from repro.obs.telemetry.registry import TelemetryRegistry, exponential_buckets

QUANTILES = (0.5, 0.95, 0.99)
N = 20_000

#: P² is CDF-accurate to a few percent of rank on hard shapes; translate
#: that into a value-space allowance relative to the local bucket width.
P2_SLACK = 2.0


def _check_agreement(samples: np.ndarray, buckets) -> None:
    reg = TelemetryRegistry(enabled=True)
    h = reg.histogram("lat", buckets=buckets)
    p2 = {q: P2Quantile(q) for q in QUANTILES}
    for v in samples:
        h.observe(float(v))
        for est in p2.values():
            est.add(float(v))
    child = h.labels()
    for q in QUANTILES:
        bucket_q = child.quantile(q)
        p2_q = p2[q].value
        exact_q = float(np.quantile(samples, q))
        tol = P2_SLACK * max(
            child.bucket_resolution(exact_q), 0.02 * abs(exact_q)
        )
        assert abs(bucket_q - p2_q) <= tol, (
            f"q={q}: bucket {bucket_q:.4f} vs P2 {p2_q:.4f} "
            f"(exact {exact_q:.4f}, tol {tol:.4f})"
        )
        # both estimators must also track the exact empirical quantile
        assert abs(bucket_q - exact_q) <= tol
        assert abs(p2_q - exact_q) <= tol


def test_crosscheck_bimodal_fast_slow_path():
    """70% fast path (~2 ms), 30% slow path (~40 ms): p50 in the fast
    mode, p95/p99 in the slow mode."""
    rng = np.random.default_rng(0)
    fast = rng.lognormal(mean=np.log(2.0), sigma=0.15, size=int(N * 0.7))
    slow = rng.lognormal(mean=np.log(40.0), sigma=0.15, size=N - len(fast))
    samples = rng.permutation(np.concatenate([fast, slow]))
    _check_agreement(samples, exponential_buckets(0.1, 1.3, 40))


def test_crosscheck_heavy_tailed_lognormal():
    """sigma=1.2 lognormal: the p99/p50 ratio is ~16x."""
    rng = np.random.default_rng(1)
    samples = rng.lognormal(mean=np.log(5.0), sigma=1.2, size=N)
    _check_agreement(samples, exponential_buckets(0.05, 1.4, 40))


def test_crosscheck_pareto_tail():
    """Pareto(alpha=2) shifted to ms scale — the classic tail-latency
    shape where mean-based summaries fail."""
    rng = np.random.default_rng(2)
    samples = 1.0 + rng.pareto(2.0, size=N) * 3.0
    _check_agreement(samples, exponential_buckets(0.5, 1.35, 40))


def test_crosscheck_near_constant_latency():
    """Degenerate-but-common case: essentially constant latency with
    timer jitter.  Both estimators must sit on the single mode."""
    rng = np.random.default_rng(3)
    samples = 10.0 + rng.normal(0.0, 0.05, size=N)
    _check_agreement(samples, exponential_buckets(0.1, 1.3, 40))


@pytest.mark.parametrize("q", QUANTILES)
def test_bucket_quantile_error_bounded_by_resolution(q):
    """Against exact numpy quantiles the bucket estimate is off by at
    most one bucket width — the advertised contract."""
    rng = np.random.default_rng(4)
    samples = rng.gamma(2.0, 3.0, size=N)
    reg = TelemetryRegistry(enabled=True)
    h = reg.histogram("lat", buckets=exponential_buckets(0.05, 1.3, 45))
    for v in samples:
        h.observe(float(v))
    child = h.labels()
    exact = float(np.quantile(samples, q))
    assert abs(child.quantile(q) - exact) <= child.bucket_resolution(exact)
