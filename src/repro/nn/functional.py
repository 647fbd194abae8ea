"""Functional primitives: im2col convolution, pooling, activations, softmax.

All functions operate on ``float32`` arrays in ``(N, C, H, W)`` layout and come
with analytic backward companions, which is what the gradient-based adversarial
attacks (FGSM, PGD, JSMA, C&W, DeepFool) need.

Batch invariance
----------------
Every *input-dependent* GEMM in this module is issued so that a given
example's outputs (and input gradients) are bitwise independent of the batch
it rode in with.  BLAS picks different micro-kernels -- with different
floating-point reduction orders -- depending on the operand widths, so a
naive ``x @ W.T`` at batch 1 does not reproduce the bits of the same row
inside a batch-8 call.  Two constructions restore invariance:

* convolutions contract ``weight @ cols[i]`` one example at a time: the GEMM
  shape ``(F, K) x (K, L)`` is a constant of the layer geometry, so every
  call -- whatever the batch size -- takes the identical BLAS path;
* dense contractions go through :func:`batch_invariant_matmul`, which puts
  the batch on the GEMM's *column* dimension and issues fixed-width,
  zero-padded column blocks: each output column is then a pure function of
  its own input column, independent of position and neighbours.

Training-mode convolutions (``batch_invariant=False``) are batch-shaped
anyway through BatchNorm and the batch-mean loss, so they issue one
whole-batch GEMM per contraction instead (see :func:`conv2d_forward` and
:func:`conv2d_backward`); parameter-gradient GEMMs (``grad.T @ x``) reduce
*over* the batch and always take that whole-batch path.  The batched attack
engine (:mod:`repro.attacks.batched`) relies on the eval-mode contract for
its bit-for-bit active-set rollouts.

Training numerics
-----------------
The whole-batch training GEMMs reproduce, call for call, the ``matmul``
calls that ``np.einsum(..., optimize=True)`` lowered these contractions to
when they were written as einsums: the same operand order, shapes and
contiguity, hence the same BLAS kernels and the same bits in the trained
weights.  Two details matter for that (``docs/architecture.md``): weight
gradients multiply a C-contiguous ``(K, N*L)`` copy of the columns (a
transposed view takes another BLAS path), and the forward output keeps the
GEMM's physically NHWC layout (BatchNorm's batch statistics reduce in
memory order, so a C-contiguous copy changes their bits).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: column width of every :func:`batch_invariant_matmul` BLAS call.  Any fixed
#: value works (calls of one constant shape always take one BLAS path); 32
#: keeps the zero-padding waste of small active-set batches low while leaving
#: per-call overhead negligible for wide evaluation batches.
GEMM_COLUMN_BLOCK = 32


def batch_invariant_matmul(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a @ cols`` with bitwise column-stable results.

    ``a`` is the fixed operand (weights), ``cols`` carries one example per
    column.  The product is issued in :data:`GEMM_COLUMN_BLOCK`-wide column
    blocks, the ragged tail zero-padded to the full width, so every BLAS call
    has the same shape ``(M, K) x (K, block)`` and every output column gets
    the same floating-point reduction order regardless of how many other
    columns were in the caller's batch.
    """
    k, n = cols.shape
    block = GEMM_COLUMN_BLOCK
    if n == block:
        return np.asarray(a @ cols, dtype=np.float32)
    out = np.empty((a.shape[0], n), dtype=np.float32)
    pad = None
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        if hi - lo == block:
            out[:, lo:hi] = a @ cols[:, lo:hi]
        else:
            if pad is None:
                pad = np.zeros((k, block), dtype=np.float32)
            pad[:, : hi - lo] = cols[:, lo:hi]
            out[:, lo:hi] = (a @ pad)[:, : hi - lo]
    return out


def linear_forward_values(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` computed batch-invariantly (batch on the column axis)."""
    return batch_invariant_matmul(weight, x.T).T


def linear_backward_values(grad_out: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``grad_out @ weight`` computed batch-invariantly."""
    return batch_invariant_matmul(weight.T, grad_out.T).T


# --------------------------------------------------------------------- im2col
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_geometry(
    h: int, w: int, kernel, stride: int, padding: int
) -> Tuple[int, int, int]:
    """``(out_h, out_w, out_h * out_w)`` of a convolution window.

    ``kernel`` is a single size or a ``(kh, kw)`` pair.  The third element is
    the ``L`` (flattened spatial) extent of the im2col GEMM formulation
    shared by the exact and the approximate convolutions.
    """
    kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    return out_h, out_w, out_h * out_w


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` window size.

    Returns
    -------
    Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"invalid convolution geometry: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")

    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` (accumulating overlapping patches)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ---------------------------------------------------------------- convolution
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    batch_invariant: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact convolution forward pass.

    Returns ``(output, columns)`` where ``columns`` is the im2col buffer needed
    by the backward pass.  ``batch_invariant=False`` (training-mode passes)
    issues one whole-batch ``(N*L, K) x (K, F)`` GEMM instead of the
    per-example GEMMs and returns the output as a physically NHWC view (see
    "Training numerics" in the module docstring).
    """
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    cols = im2col(x, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
    w_mat = weight.reshape(f, -1)  # (F, C*kh*kw)
    out_h, out_w, l = conv_geometry(h, w, (kh, kw), stride, padding)
    if batch_invariant:
        # one (F, K) x (K, L) GEMM per example: the call shape is a constant
        # of the layer geometry, so each example's output is bitwise
        # independent of the batch size (see the module docstring)
        out = np.empty((n, f, l), dtype=np.float32)
        for i in range(n):
            out[i] = w_mat @ cols[i]
        out += bias.reshape(1, f, 1)
        out = out.reshape(n, f, out_h, out_w)
    else:
        out = cols.transpose(0, 2, 1).reshape(n * l, -1) @ w_mat.T  # (N*L, F)
        out += bias
        out = out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)
    return out.astype(np.float32, copy=False), cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    with_param_grads: bool = True,
    batch_invariant: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``; with
    ``with_param_grads=False`` the parameter gradients are skipped (returned
    as ``None``) -- the attack-facing input-gradient path never reads them.
    ``batch_invariant=False`` (training) computes the column gradient as one
    whole-batch ``(N*L, F) x (F, K)`` GEMM.
    """
    n, f, out_h, out_w = grad_out.shape
    _, _, kh, kw = weight.shape
    k, l = cols.shape[1:]
    w_mat = weight.reshape(f, -1)  # (F, K)
    grad_weight = grad_bias = g = None
    if with_param_grads or not batch_invariant:
        # grad_out as one C-contiguous (N*L, F) matrix, shared by both GEMMs
        g = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(n * l, f)
    if with_param_grads:
        # parameter gradients reduce over the batch: one whole-batch GEMM
        # against a C-contiguous (K, N*L) copy of the columns
        cols_kn = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(k, n * l)
        grad_weight = (cols_kn @ g).T.reshape(weight.shape)
        grad_bias = grad_out.sum(axis=(0, 2, 3))
    if batch_invariant:
        # the input gradient feeds the attacks' BPDA path: per-example GEMMs
        # of constant shape (K, F) x (F, L), batch-invariant like the forward
        grad_mat = grad_out.reshape(n, f, l)  # (N, F, L)
        grad_cols = np.empty_like(cols)
        w_t = np.ascontiguousarray(w_mat.T)
        for i in range(n):
            grad_cols[i] = w_t @ grad_mat[i]
    else:
        # (N*L, K) -> contiguous (N, K, L), so col2im reads unit strides
        grad_cols = np.ascontiguousarray((g @ w_mat).reshape(n, l, k).transpose(0, 2, 1))
    grad_input = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32) if grad_weight is not None else None,
        grad_bias.astype(np.float32) if grad_bias is not None else None,
    )


# -------------------------------------------------------------------- pooling
def maxpool2d_forward(
    x: np.ndarray, kernel: int = 2, stride: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling forward pass; returns ``(output, argmax_indices)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    # view patches via im2col over each channel independently
    cols = im2col(x.reshape(n * c, 1, h, w), (kernel, kernel), stride, 0)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=1)  # (N*C, L)
    out = np.take_along_axis(cols, argmax[:, np.newaxis, :], axis=1).squeeze(1)
    return out.reshape(n, c, out_h, out_w).astype(np.float32), argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int = 2,
    stride: int = 2,
) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward`."""
    n, c, h, w = x_shape
    _, _, out_h, out_w = grad_out.shape
    grad_cols = np.zeros((n * c, kernel * kernel, out_h * out_w), dtype=np.float32)
    grad_flat = grad_out.reshape(n * c, out_h * out_w)
    np.put_along_axis(grad_cols, argmax[:, np.newaxis, :], grad_flat[:, np.newaxis, :], axis=1)
    grad_input = col2im(grad_cols, (n * c, 1, h, w), (kernel, kernel), stride, 0)
    return grad_input.reshape(n, c, h, w).astype(np.float32)


# ---------------------------------------------------------------- activations
def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ReLU forward; returns ``(output, mask)``."""
    mask = x > 0
    return (x * mask).astype(np.float32), mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """ReLU backward."""
    return (grad_out * mask).astype(np.float32)


def row_sums(a: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2D array, bitwise independent of the row count.

    ``a.sum(axis=-1)`` lets numpy pick a reduction strategy based on the
    *outer* dimension, so the same row can sum to different bits inside a
    batch-8 array than alone -- one 1D reduction per row always takes one
    code path.  (Order-exact reductions -- ``max``, ``argmax``, ``argsort``
    -- don't need this: only floating-point *accumulation* is order-
    sensitive.)
    """
    out = np.empty(a.shape[0], dtype=a.dtype)
    for i in range(a.shape[0]):
        out[i] = a[i].sum()
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (batch-invariant along the class axis)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    if e.ndim == 2 and axis in (-1, 1):
        denominator = row_sums(e)[:, np.newaxis]
    else:  # pragma: no cover - no 2D class axis to stabilise
        denominator = e.sum(axis=axis, keepdims=True)
    return (e / denominator).astype(np.float32)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    return (z - np.log(np.exp(z).sum(axis=axis, keepdims=True))).astype(np.float32)
