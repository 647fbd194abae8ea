"""Tests for the approximate (DA) convolution and dense layers."""

import numpy as np

from repro.arith.fpm import AxFPM, ExactMultiplier
from repro.nn.approx import ApproxConv2d, ApproxLinear
from repro.nn.layers import Conv2d, Linear
from repro.nn.models import build_lenet5, convert_to_approximate, convert_to_bfloat16


def test_approx_conv_with_exact_multiplier_matches_exact_conv():
    rng = np.random.default_rng(0)
    exact = Conv2d(2, 3, 3, rng=np.random.default_rng(1))
    approx = ApproxConv2d.from_exact(exact, multiplier=ExactMultiplier())
    x = rng.uniform(0, 1, size=(2, 2, 6, 6)).astype(np.float32)
    np.testing.assert_allclose(approx.forward(x), exact.forward(x), rtol=1e-5, atol=1e-6)


def test_approx_conv_from_exact_shares_parameters():
    exact = Conv2d(1, 2, 3)
    approx = ApproxConv2d.from_exact(exact)
    assert approx.weight is exact.weight
    assert approx.bias is exact.bias


def test_approx_conv_with_axfpm_differs_from_exact():
    rng = np.random.default_rng(2)
    exact = Conv2d(1, 4, 3, rng=np.random.default_rng(3))
    approx = ApproxConv2d.from_exact(exact, multiplier=AxFPM(frac_bits=8))
    x = rng.uniform(0, 1, size=(2, 1, 8, 8)).astype(np.float32)
    out_exact = exact.forward(x)
    out_approx = approx.forward(x)
    assert out_approx.shape == out_exact.shape
    assert not np.allclose(out_approx, out_exact)


def test_approx_conv_amplifies_strong_responses():
    """Figure 4 behaviour: the approximate convolution inflates the magnitude of
    the accumulated response when input and filter are well aligned."""
    kernel = np.ones((1, 1, 3, 3), dtype=np.float32) * 0.3
    exact = Conv2d(1, 1, 3)
    exact.weight.value = kernel
    exact.bias.value = np.zeros(1, dtype=np.float32)
    approx = ApproxConv2d.from_exact(exact, multiplier=AxFPM(frac_bits=8))
    aligned = np.ones((1, 1, 3, 3), dtype=np.float32) * 0.9
    exact_response = float(exact.forward(aligned)[0, 0, 0, 0])
    approx_response = float(approx.forward(aligned)[0, 0, 0, 0])
    assert approx_response > exact_response


def test_approx_conv_backward_is_bpda_through_exact_path():
    exact = Conv2d(1, 2, 3, rng=np.random.default_rng(4))
    approx = ApproxConv2d.from_exact(exact, multiplier=AxFPM(frac_bits=8))
    x = np.random.default_rng(5).uniform(0, 1, size=(1, 1, 6, 6)).astype(np.float32)
    out_exact = exact.forward(x)
    grad_exact = exact.backward(np.ones_like(out_exact))
    out_approx = approx.forward(x)
    grad_approx = approx.backward(np.ones_like(out_approx))
    np.testing.assert_allclose(grad_approx, grad_exact, rtol=1e-5, atol=1e-6)


def test_approx_conv_chunking_is_equivalent():
    exact = Conv2d(1, 2, 3, rng=np.random.default_rng(6))
    x = np.random.default_rng(7).uniform(0, 1, size=(5, 1, 6, 6)).astype(np.float32)
    big_chunk = ApproxConv2d.from_exact(exact, multiplier=AxFPM(frac_bits=8), batch_chunk=64)
    small_chunk = ApproxConv2d.from_exact(exact, multiplier=AxFPM(frac_bits=8), batch_chunk=2)
    np.testing.assert_allclose(big_chunk.forward(x), small_chunk.forward(x), rtol=1e-6)


def test_approx_linear_with_exact_multiplier_matches_linear():
    exact = Linear(6, 4, rng=np.random.default_rng(8))
    approx = ApproxLinear.from_exact(exact, multiplier=ExactMultiplier())
    x = np.random.default_rng(9).uniform(-1, 1, size=(3, 6)).astype(np.float32)
    np.testing.assert_allclose(approx.forward(x), exact.forward(x), rtol=1e-5, atol=1e-6)


def test_approx_linear_shares_parameters_and_differs_under_axfpm():
    exact = Linear(6, 4, rng=np.random.default_rng(10))
    approx = ApproxLinear.from_exact(exact, multiplier=AxFPM(frac_bits=8))
    assert approx.weight is exact.weight
    x = np.random.default_rng(11).uniform(0.1, 1, size=(2, 6)).astype(np.float32)
    assert not np.allclose(approx.forward(x), exact.forward(x))


def test_convert_to_approximate_replaces_only_conv_layers():
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    converted = convert_to_approximate(model)
    conv_types = [type(l).__name__ for l in converted.layers if "Conv" in type(l).__name__]
    linear_types = [type(l).__name__ for l in converted.layers if type(l).__name__ == "Linear"]
    assert all(t == "ApproxConv2d" for t in conv_types)
    assert len(linear_types) == 3  # dense layers stay exact by default


def test_convert_to_approximate_shares_weights_not_caches():
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    converted = convert_to_approximate(model)
    # parameters shared
    assert converted.layers[0].weight is model.layers[0].weight
    # stateless layers are fresh objects so forward caches never collide
    assert converted.layers[1] is not model.layers[1]


def test_convert_to_approximate_convert_linear_flag():
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    converted = convert_to_approximate(model, convert_linear=True)
    assert any(type(l).__name__ == "ApproxLinear" for l in converted.layers)


def test_convert_to_bfloat16_predictions_close_to_exact():
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    bf16 = convert_to_bfloat16(model)
    x = np.random.default_rng(12).uniform(0, 1, size=(4, 1, 12, 12)).astype(np.float32)
    np.testing.assert_allclose(bf16.predict_logits(x), model.predict_logits(x), rtol=0.1, atol=0.05)


def test_approximate_model_keeps_most_accuracy(tiny_model, tiny_approx_model, digit_split):
    from repro.nn import evaluate_accuracy

    images = digit_split.test.images[:80]
    labels = digit_split.test.labels[:80]
    exact_acc = evaluate_accuracy(tiny_model, images, labels)
    approx_acc = evaluate_accuracy(tiny_approx_model, images, labels)
    assert exact_acc > 0.7
    assert approx_acc > exact_acc - 0.25
