"""Frozen einsum reference of the training-mode convolution.

The whole-batch training GEMMs of :mod:`repro.nn.functional` must produce
the same bits as the fused ``np.einsum(..., optimize=True)`` contractions
they replaced -- the cached zoo weights were trained with those bits.
These functions are the einsum formulation, kept verbatim as the parity
oracle for ``tests/test_functional.py`` and ``tests/test_network_training.py``.

Do not "improve" them: their einsum calls, and the layouts those calls
return, define what bit-for-bit parity means.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn import functional as F


def einsum_conv2d_forward(x, weight, bias, stride=1, padding=0):
    """Training-mode forward: ``(output, columns)`` via one fused einsum."""
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    cols = F.im2col(x, (kh, kw), stride, padding)
    out_h, out_w, _ = F.conv_geometry(h, w, (kh, kw), stride, padding)
    out = np.einsum("fk,nkl->nfl", weight.reshape(f, -1), cols, optimize=True)
    out += bias.reshape(1, f, 1)
    return out.reshape(n, f, out_h, out_w).astype(np.float32), cols


def einsum_conv2d_backward(grad_out, cols, x_shape, weight, stride=1, padding=0):
    """Training-mode backward: ``(grad_input, grad_weight, grad_bias)``."""
    n, f, out_h, out_w = grad_out.shape
    _, _, kh, kw = weight.shape
    grad_mat = grad_out.reshape(n, f, out_h * out_w)
    w_mat = weight.reshape(f, -1)
    grad_weight = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(weight.shape)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_cols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
    grad_input = F.col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_bias.astype(np.float32),
    )


@contextmanager
def einsum_training_convs():
    """Route every training-mode conv pass through the einsum reference."""
    forward, backward = F.conv2d_forward, F.conv2d_backward

    def ref_forward(x, weight, bias, stride=1, padding=0, batch_invariant=True):
        if batch_invariant:
            return forward(x, weight, bias, stride, padding, batch_invariant)
        return einsum_conv2d_forward(x, weight, bias, stride, padding)

    def ref_backward(
        grad_out, cols, x_shape, weight, stride=1, padding=0,
        with_param_grads=True, batch_invariant=True,
    ):
        if batch_invariant or not with_param_grads:
            return backward(
                grad_out, cols, x_shape, weight, stride, padding,
                with_param_grads, batch_invariant,
            )
        return einsum_conv2d_backward(grad_out, cols, x_shape, weight, stride, padding)

    F.conv2d_forward, F.conv2d_backward = ref_forward, ref_backward
    try:
        yield
    finally:
        F.conv2d_forward, F.conv2d_backward = forward, backward
