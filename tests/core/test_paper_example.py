"""The paper's worked example (Figs. 5-6): 5x5 input, 2x2 filter.

Section IV walks one pooled output feature P00 through the original and
the weight-factorized computation: 16 multiplications per pooled output
originally, 4 after RME (75% eliminated), and small accumulations of 3
additions each for 2x2 pooling.
"""

import numpy as np
import pytest

from repro.core.fusion import dense_conv_pool_counted, fused_conv_pool_counted


@pytest.fixture
def example():
    rng = np.random.default_rng(2022)
    x = rng.normal(size=(1, 5, 5))
    w = rng.normal(size=(1, 1, 2, 2))
    return x, w


class TestWorkedExample:
    def test_dense_16_multiplications_per_pooled_output(self, example):
        """Fig. 5(a): four conv windows x four weights = 16 mults feed
        one pooled output (plus the pooling scale)."""
        x, w = example
        _, counter = dense_conv_pool_counted(x, w, None)
        pooled_outputs = 2 * 2  # conv out 4x4, pooled 2x2
        conv_mults = counter.mults - pooled_outputs  # minus scales
        assert conv_mults / pooled_outputs == 16

    def test_dense_16_additions_with_bias(self, example):
        """The paper counts 16 additions including the bias adjustment:
        4 windows x 3 accumulations + 3 pooling adds + 1 bias."""
        x, w = example
        _, counter = dense_conv_pool_counted(x, w, np.zeros(1))
        pooled_outputs = 4
        per_output = (
            counter.major_additions / pooled_outputs
            + counter.bias_additions / (4 * pooled_outputs)  # one bias per conv out
        )
        # 4*(K^2-1) + (p^2-1) = 15 accumulation adds + 4 bias adds per pooled output
        assert counter.major_additions / pooled_outputs == 15
        assert counter.bias_additions == 16  # one per conv output

    def test_fused_4_multiplications_per_pooled_output(self, example):
        """Fig. 5(b): after weight factorization each weight multiplies
        the accumulated inputs once -> 4 mults per pooled output."""
        x, w = example
        _, counter = fused_conv_pool_counted(x, w, None)
        pooled_outputs = 4
        assert counter.mults / pooled_outputs == 4

    def test_75_percent_eliminated(self, example):
        x, w = example
        _, dense = dense_conv_pool_counted(x, w, None)
        _, fused = fused_conv_pool_counted(x, w, None)
        pooled_outputs = 4
        dense_conv_mults = dense.mults - pooled_outputs
        assert 1 - fused.mults / dense_conv_mults == 0.75

    def test_functional_value_identical(self, example):
        """'The value of P00 is the same, and thus the functional
        correctness of CNN is preserved.'"""
        x, w = example
        out_dense, _ = dense_conv_pool_counted(x, w, None)
        out_fused, _ = fused_conv_pool_counted(x, w, None)
        np.testing.assert_allclose(out_dense, out_fused, atol=1e-12)

    def test_small_accumulation_is_3_additions(self, example):
        """Each 2x2 small accumulation = 1 half addition pair + ... = 3
        additions (the paper's '3 additions in each small accumulation')."""
        x, w = example
        _, counter = fused_conv_pool_counted(
            x, w, None, use_lar=False, use_gar_row=False, use_gar_col=False
        )
        pooled_outputs = 4
        small_acc_adds = counter.half_additions + counter.full_additions
        iaccs = pooled_outputs * 4  # K^2 = 4 I_Acc values per output
        assert small_acc_adds / iaccs == 3
