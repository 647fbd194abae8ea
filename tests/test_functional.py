"""Tests for the convolution / pooling / activation primitives."""

import numpy as np
import pytest
from conv_reference import einsum_conv2d_backward, einsum_conv2d_forward

from repro.nn import functional as F


def naive_conv2d(x, weight, bias, stride=1, padding=0):
    """Straightforward (slow) reference convolution."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, f, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, fi, i, j] = np.sum(patch * weight[fi]) + bias[fi]
    return out.astype(np.float32)


def numerical_gradient(fn, x, grad_out, eps=1e-3):
    """Finite-difference gradient of ``sum(fn(x) * grad_out)`` w.r.t. x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = float(np.sum(fn(x) * grad_out))
        flat[i] = orig - eps
        minus = float(np.sum(fn(x) * grad_out))
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


# ------------------------------------------------------------------ geometry
def test_conv_output_size():
    assert F.conv_output_size(16, 3, 1, 0) == 14
    assert F.conv_output_size(16, 3, 1, 1) == 16
    assert F.conv_output_size(16, 2, 2, 0) == 8


def test_im2col_shape_and_content():
    x = np.arange(2 * 1 * 4 * 4, dtype=np.float32).reshape(2, 1, 4, 4)
    cols = F.im2col(x, (2, 2), stride=1, padding=0)
    assert cols.shape == (2, 4, 9)
    # the first patch of the first image is the 2x2 top-left corner
    np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])


def test_im2col_invalid_geometry():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        F.im2col(x, (5, 5))


def test_col2im_inverts_non_overlapping_patches():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
    cols = F.im2col(x, (2, 2), stride=2)
    rebuilt = F.col2im(cols, x.shape, (2, 2), stride=2)
    np.testing.assert_allclose(rebuilt, x, rtol=1e-6)


# --------------------------------------------------------------- convolution
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0)])
def test_conv2d_forward_matches_naive(stride, padding):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out, _ = F.conv2d_forward(x, w, b, stride, padding)
    np.testing.assert_allclose(out, naive_conv2d(x, w, b, stride, padding), rtol=1e-4, atol=1e-5)


def test_conv2d_backward_input_gradient_matches_numerical():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    out, cols = F.conv2d_forward(x.astype(np.float32), w, b)
    grad_out = rng.normal(size=out.shape).astype(np.float32)
    grad_in, grad_w, grad_b = F.conv2d_backward(grad_out, cols, x.shape, w)

    num_grad = numerical_gradient(
        lambda xx: F.conv2d_forward(xx.astype(np.float32), w, b)[0], x.copy(), grad_out
    )
    np.testing.assert_allclose(grad_in, num_grad, rtol=1e-2, atol=1e-3)
    assert grad_w.shape == w.shape
    np.testing.assert_allclose(grad_b, grad_out.sum(axis=(0, 2, 3)), rtol=1e-5)


def test_conv2d_backward_weight_gradient_matches_numerical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
    w = rng.normal(size=(2, 1, 2, 2)).astype(np.float64)
    b = np.zeros(2, dtype=np.float32)
    out, cols = F.conv2d_forward(x, w.astype(np.float32), b)
    grad_out = rng.normal(size=out.shape).astype(np.float32)
    _, grad_w, _ = F.conv2d_backward(grad_out, cols, x.shape, w.astype(np.float32))
    num_grad = numerical_gradient(
        lambda ww: F.conv2d_forward(x, ww.astype(np.float32), b)[0], w.copy(), grad_out
    )
    np.testing.assert_allclose(grad_w, num_grad, rtol=1e-2, atol=1e-3)


#: every conv layer of the zoo: (input (C, H, W), weight shape, padding);
#: stride is 1 throughout.  Digit models train on batches of 64 with ragged
#: last batches of 36 (fast LeNet), 16 (substitute) and 44 (full LeNet);
#: object models on 64 with a ragged 32 (full AlexNet / DQ).
DIGIT_BATCHES = (64, 36, 16, 44)
OBJECT_BATCHES = (64, 32)
ZOO_CONV_LAYERS = [
    pytest.param((1, 16, 16), (12, 1, 3, 3), 0, DIGIT_BATCHES, id="lenet-conv1"),
    pytest.param((12, 7, 7), (24, 12, 3, 3), 0, DIGIT_BATCHES, id="lenet-conv2"),
    pytest.param((1, 16, 16), (8, 1, 3, 3), 0, DIGIT_BATCHES, id="substitute-conv1"),
    pytest.param((8, 7, 7), (16, 8, 3, 3), 0, DIGIT_BATCHES, id="substitute-conv2"),
    pytest.param((3, 32, 32), (8, 3, 3, 3), 1, OBJECT_BATCHES, id="alexnet-dq-conv1"),
    pytest.param((8, 16, 16), (16, 8, 3, 3), 1, OBJECT_BATCHES, id="alexnet-conv2"),
    pytest.param((16, 8, 8), (24, 16, 3, 3), 1, OBJECT_BATCHES, id="alexnet-conv3-dq-conv5"),
    pytest.param((24, 8, 8), (24, 24, 3, 3), 1, OBJECT_BATCHES, id="alexnet-conv4-dq-conv6"),
    pytest.param((24, 8, 8), (16, 24, 3, 3), 1, OBJECT_BATCHES, id="alexnet-conv5"),
    pytest.param((8, 32, 32), (8, 8, 3, 3), 1, OBJECT_BATCHES, id="dq-conv2"),
    pytest.param((8, 16, 16), (16, 8, 3, 3), 1, OBJECT_BATCHES, id="dq-conv3"),
    pytest.param((16, 16, 16), (16, 16, 3, 3), 1, OBJECT_BATCHES, id="dq-conv4"),
]


@pytest.mark.parametrize("in_shape,w_shape,padding,batches", ZOO_CONV_LAYERS)
def test_training_conv_is_bitwise_the_einsum_reference(in_shape, w_shape, padding, batches):
    rng = np.random.default_rng(sum(in_shape) + sum(w_shape))
    weight = rng.normal(size=w_shape).astype(np.float32)
    bias = rng.normal(size=w_shape[0]).astype(np.float32)
    for n in batches:
        x = rng.normal(size=(n, *in_shape)).astype(np.float32)
        out, cols = F.conv2d_forward(x, weight, bias, 1, padding, batch_invariant=False)
        ref_out, ref_cols = einsum_conv2d_forward(x, weight, bias, 1, padding)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(cols, ref_cols)
        # the output's memory layout feeds BatchNorm's reductions: keep it
        assert out.strides == ref_out.strides and out.dtype == ref_out.dtype

        # grad_out as the next layer hands it back: C-contiguous, or in the
        # forward output's own (physically NHWC) layout
        grad_c = rng.normal(size=out.shape).astype(np.float32)
        grad_nhwc = grad_c.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
        for grad_out in (grad_c, grad_nhwc):
            got = F.conv2d_backward(
                grad_out, cols, x.shape, weight, 1, padding, batch_invariant=False
            )
            ref = einsum_conv2d_backward(grad_out, ref_cols, x.shape, weight, 1, padding)
            for value, expected in zip(got, ref):
                np.testing.assert_array_equal(value, expected)
                assert value.strides == expected.strides


def test_training_conv_input_gradient_without_param_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2, 7, 7)).astype(np.float32)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    out, cols = F.conv2d_forward(x, w, np.zeros(4, np.float32), batch_invariant=False)
    grad_out = rng.normal(size=out.shape).astype(np.float32)
    grad_in, grad_w, grad_b = F.conv2d_backward(
        grad_out, cols, x.shape, w, with_param_grads=False, batch_invariant=False
    )
    assert grad_w is None and grad_b is None
    np.testing.assert_array_equal(
        grad_in, F.conv2d_backward(grad_out, cols, x.shape, w, batch_invariant=False)[0]
    )


# -------------------------------------------------------------------- pooling
def test_maxpool_forward_simple():
    x = np.array([[[[1, 2, 5, 6], [3, 4, 7, 8], [0, 0, 1, 1], [0, 9, 1, 1]]]], dtype=np.float32)
    out, _ = F.maxpool2d_forward(x, 2, 2)
    np.testing.assert_array_equal(out[0, 0], [[4, 8], [9, 1]])


def test_maxpool_backward_routes_gradient_to_argmax():
    x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
    out, argmax = F.maxpool2d_forward(x, 2, 2)
    grad = F.maxpool2d_backward(np.ones_like(out), argmax, x.shape, 2, 2)
    np.testing.assert_array_equal(grad[0, 0], [[0, 0], [0, 1]])


def test_maxpool_backward_matches_numerical():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 2, 4, 4)).astype(np.float64)
    out, argmax = F.maxpool2d_forward(x.astype(np.float32))
    grad_out = rng.normal(size=out.shape).astype(np.float32)
    grad_in = F.maxpool2d_backward(grad_out, argmax, x.shape)
    num_grad = numerical_gradient(
        lambda xx: F.maxpool2d_forward(xx.astype(np.float32))[0], x.copy(), grad_out, eps=1e-4
    )
    np.testing.assert_allclose(grad_in, num_grad, rtol=1e-2, atol=1e-3)


# ---------------------------------------------------------------- activations
def test_relu_forward_backward():
    x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
    out, mask = F.relu_forward(x)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
    grad = F.relu_backward(np.ones_like(x), mask)
    np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])


def test_softmax_rows_sum_to_one_and_is_stable():
    logits = np.array([[1000.0, 1001.0, 999.0], [0.0, 0.0, 0.0]], dtype=np.float32)
    probs = F.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0], rtol=1e-5)
    assert np.all(np.isfinite(probs))
    assert probs[0].argmax() == 1


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 6)).astype(np.float32)
    np.testing.assert_allclose(F.log_softmax(logits), np.log(F.softmax(logits)), rtol=1e-4, atol=1e-5)
