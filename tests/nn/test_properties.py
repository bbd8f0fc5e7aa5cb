"""Property-based tests (hypothesis) of the autograd substrate.

These exercise algebraic identities that must hold for *all* inputs —
linearity of gradients, pooling decompositions, softmax invariances —
catching broadcasting and accumulation bugs that fixed examples miss.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.kernels.boxsum import box_sum_cumsum
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


def arrays(shape_strategy, elements=st.floats(-5, 5, allow_nan=False)):
    return shape_strategy.flatmap(
        lambda shape: st.lists(
            elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        ).map(lambda v: np.array(v, dtype=np.float64).reshape(shape))
    )


small_matrix = arrays(st.tuples(st.integers(1, 4), st.integers(1, 4)))


class TestGradientLinearity:
    @settings(max_examples=30, deadline=None)
    @given(small_matrix, st.floats(-3, 3, allow_nan=False))
    def test_grad_of_scaled_sum_is_constant(self, a, c):
        x = Tensor(a, requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(x.grad, c, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(small_matrix)
    def test_sum_of_parts_equals_whole(self, a):
        """d(sum)/dx via two routes must agree: x.sum() and (x+x).sum()/2."""
        x1 = Tensor(a.copy(), requires_grad=True)
        x1.sum().backward()
        x2 = Tensor(a.copy(), requires_grad=True)
        ((x2 + x2).sum() * 0.5).backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(small_matrix)
    def test_relu_plus_negrelu_is_identity_grad(self, a):
        """x = relu(x) - relu(-x); gradients must sum to 1 off the kink."""
        a = a + 0.1 * np.sign(a) + 0.05  # push away from 0
        x = Tensor(a, requires_grad=True)
        (x.relu() - (-x).relu()).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0, atol=1e-12)


class TestPoolingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3), st.integers(4, 9), st.sampled_from([2, 3]),
        st.integers(0, 2 ** 16),
    )
    def test_avgpool_equals_boxsum_scaled(self, c, h, p, seed):
        x = np.random.default_rng(seed).normal(size=(1, c, h, h))
        with no_grad():
            pooled = F.avg_pool2d(Tensor(x), p).data
        strided_box = box_sum_cumsum(x, p)[:, :, ::p, ::p]
        ho = (h - p) // p + 1
        np.testing.assert_allclose(pooled, strided_box[:, :, :ho, :ho] / (p * p), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 8), st.integers(0, 2 ** 16))
    def test_maxpool_ge_avgpool(self, h, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 1, h, h)))
        with no_grad():
            mx = F.max_pool2d(x, 2).data
            av = F.avg_pool2d(x, 2).data
        assert (mx >= av - 1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 8), st.integers(0, 2 ** 16))
    def test_jensen_relu_avgpool(self, h, seed):
        """relu(avg(x)) <= avg(relu(x)) — the reordering inequality."""
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, h, h)))
        with no_grad():
            reordered = F.relu(F.avg_pool2d(x, 2)).data
            original = F.avg_pool2d(F.relu(x), 2).data
        assert (reordered <= original + 1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 8), st.integers(0, 2 ** 16))
    def test_maxpool_relu_commutes(self, h, seed):
        """max-pool and ReLU commute exactly (the [8] identity)."""
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, h, h)))
        with no_grad():
            a = F.relu(F.max_pool2d(x, 2)).data
            b = F.max_pool2d(F.relu(x), 2).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSoftmaxProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_matrix, st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, a, shift):
        with no_grad():
            p1 = F.softmax(Tensor(a)).data
            p2 = F.softmax(Tensor(a + shift)).data
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(small_matrix)
    def test_softmax_grad_rows_sum_to_zero(self, a):
        """Rows of softmax Jacobian sum to zero: grad of sum(softmax) = 0."""
        x = Tensor(a, requires_grad=True)
        F.softmax(x).sum().backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-9)


class TestConvLinearity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 16), st.floats(-3, 3, allow_nan=False))
    def test_conv_is_linear_in_input(self, seed, c):
        g = np.random.default_rng(seed)
        x = g.normal(size=(1, 2, 6, 6))
        w = Tensor(g.normal(size=(3, 2, 3, 3)))
        with no_grad():
            a = F.conv2d(Tensor(c * x), w).data
            b = c * F.conv2d(Tensor(x), w).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_conv_additive_in_weights(self, seed):
        g = np.random.default_rng(seed)
        x = Tensor(g.normal(size=(1, 2, 6, 6)))
        w1 = g.normal(size=(3, 2, 3, 3))
        w2 = g.normal(size=(3, 2, 3, 3))
        with no_grad():
            a = F.conv2d(x, Tensor(w1 + w2)).data
            b = F.conv2d(x, Tensor(w1)).data + F.conv2d(x, Tensor(w2)).data
        np.testing.assert_allclose(a, b, atol=1e-9)
