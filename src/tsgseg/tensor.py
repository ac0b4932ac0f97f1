"""Dense arrays with reverse-mode differentiation.

The engine is deliberately small: it implements exactly the operations the
segmentation model needs, each as a function that computes the forward value
with numpy and registers a closure routing the output gradient back to its
inputs. ``backward()`` on a scalar walks the recorded graph once in reverse
topological order.

Conventions:

- float64 is the default dtype; float32 is supported for faster training
  (tolerances quoted in the test suite assume float64).
- Leading axes are batch axes: every op acts on the trailing axes it names
  (matrix ops on the last two, row ops on the last one) and carries the
  rest through, broadcasting where numpy does. One sample and a (B, ...)
  batch of samples run through the same code.
- Spatial fields are stored flattened, one row per grid cell in row-major
  order, with the grid shape carried separately by the caller.
- Gradients accumulate. Repeated ``backward()`` calls without zeroing add
  their contributions; training code must clear grads before each step.
- Tensors are immutable after construction except for grad accumulation and
  in-place parameter updates performed by the optimizer between steps.
- The ``g`` a backward closure receives is its own node's grad, which no
  other tensor holds: ``_accumulate`` keeps a first contribution only when
  the closure that passed it owns it, and the node's grad is dropped once
  its closure returns. So a closure may overwrite ``g``; the softmax
  backwards turn it into their input's grad in place. A closure must not
  keep ``g`` or pass the same array to two different tensors.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "softmax",
    "attention_probs",
    "layernorm",
    "gelu",
    "linear",
    "head_linear",
    "concat",
    "narrow",
    "take",
    "reshape",
    "permute",
    "tsum",
    "upsample_bilinear",
    "cross_entropy",
    "no_grad",
]

_FLOAT_DTYPES = (np.float32, np.float64)
LAYERNORM_EPS = 1e-5  # added to every row variance in ``layernorm``


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class Tensor:
    """N-dimensional real array participating in reverse-mode differentiation.

    ``requires_grad`` marks leaves that should receive gradients; tensors
    produced by operations inherit it from their inputs so the chain rule
    can flow through intermediates.
    """

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._children: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ``a + b`` is the one operator the model code spells as an operator.
    def __add__(self, other):
        return add(self, other)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` of every requires_grad tensor reachable from here.

        The tensor must be scalar (0-d). Contributions accumulate into leaf
        grads; an intermediate's grad is dropped once passed on.
        """
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for child in node._children:
                if id(child) not in seen:
                    stack.append((child, False))
        _accumulate(self, np.ones((), dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``. A first contribution is kept, not copied, so
    a closure must pass an array (or a view of its own node's grad) that no
    other tensor keeps."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad += g


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph: outputs are constants."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: np.ndarray, children: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    out.requires_grad = _grad_enabled and any(c.requires_grad for c in children)
    if out.requires_grad:
        out._children = children
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        # a may keep g itself, so b gets a copy
        _accumulate(a, _unbroadcast(g, a.shape).astype(a.dtype, copy=False))
        _accumulate(b, _unbroadcast(g, b.shape).astype(b.dtype, copy=a.requires_grad))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape).astype(a.dtype, copy=False))
        _accumulate(b, _unbroadcast(g * a.data, b.shape).astype(b.dtype, copy=False))

    return _node(data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    data = x.data * c

    def backward(g):
        _accumulate(x, (g * c).astype(x.dtype, copy=False))

    return _node(data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: rank >= 2 operands required, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(data, (a, b), backward)


def _normalize_exp_(x: np.ndarray, axis: int) -> None:
    """Turn max-shifted logits ``x`` into probabilities along ``axis``, in place."""
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)


def _softmax_backward_(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite ``g``, the grad of softmax output ``p``, with the grad of the
    softmax input: ``(g - sum(g * p, axis)) * p``."""
    sub = "abcdefghijklmnopqrstuvwxyz"[:g.ndim]
    axis %= g.ndim
    dot = np.einsum(f"{sub},{sub}->{sub.replace(sub[axis], '')}", g, p)
    g -= np.expand_dims(dot, axis)
    g *= p
    return g


def softmax(x: Tensor, axis: int) -> Tensor:
    """Normalized exponentials along ``axis``, max-shifted for stability."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    # in place after the first subtraction: attention maps are the largest
    # arrays the model makes
    data = x.data - x.data.max(axis=axis, keepdims=True)
    _normalize_exp_(data, axis)

    def backward(g):
        _accumulate(x, _softmax_backward_(g, data, axis))

    return _node(data, (x,), backward)


def attention_probs(q: Tensor, k: Tensor, c: float, axis: int = -1) -> Tensor:
    """Attention probabilities ``softmax(c * q @ k)`` along ``axis`` (-1 or -2).

    ``q`` is (..., N_q, d) and ``k`` is (..., d, N_k), keys already
    transposed; leading axes broadcast. ``q`` is scaled before the product,
    which costs N_q x d, not N_q x N_k. The logits are normalized in the
    buffer the product makes, so only the probabilities are kept, and the
    backward pass turns the incoming grad into the logit grad in place
    before the two products.
    """
    if axis not in (-1, -2):
        raise ShapeError(f"attention_probs: axis must be -1 or -2, got {axis}")
    if q.ndim < 2 or k.ndim < 2 or q.shape[-1] != k.shape[-2]:
        raise ShapeError(f"attention_probs: cannot multiply {q.shape} x {k.shape}")
    c = float(c)
    qs = q.data * c
    try:
        data = qs @ k.data
    except ValueError:
        raise ShapeError(
            f"attention_probs: leading axes of {q.shape} and {k.shape} do not broadcast")
    data -= data.max(axis=axis, keepdims=True)
    _normalize_exp_(data, axis)

    def backward(g):
        g = _softmax_backward_(g, data, axis)
        if q.requires_grad:
            dq = g @ np.swapaxes(k.data, -1, -2)
            dq *= c
            _accumulate(q, _unbroadcast(dq, q.shape))
        if k.requires_grad:
            _accumulate(k, _unbroadcast(np.swapaxes(qs, -1, -2) @ g, k.shape))

    return _node(data, (q, k), backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row standardization followed by an affine map.

    ``x`` is (..., d); ``gamma`` and ``beta`` are length-d vectors. Variance is
    the biased per-row estimate; ``LAYERNORM_EPS`` keeps zero-variance rows
    finite.
    """
    if x.ndim < 1:
        raise ShapeError(f"layernorm: input of rank >= 1 required, got {x.shape}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layernorm: gamma/beta must have shape ({d},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (gg - m1 - xhat * m2) * inv)
        _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        _accumulate(beta, g.reshape(-1, d).sum(axis=0))

    return _node(data, (x, gamma, beta), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Eigen's fast single-precision erf: x * P(x^2) / Q(x^2) on [-4, 4], outside
# which erf is +-1 in float32. Coefficients from the highest power down.
_ERF32_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF32_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)


def _horner(x2: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at ``x2``, in float32."""
    out = x2 * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x2
        out += c
    return out


def _erf_float32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 array, in float32: within 4.2e-7 of the exact value.

    Exactly odd; +-0 keep their sign, +-inf give +-1 and NaN stays NaN.
    """
    x = np.clip(z, -4.0, 4.0)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    return p


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form.

    The erf form is used project-wide (model and oracles alike) so that a
    single convention governs every build. float32 inputs use a float32
    rational erf (``_erf_float32``, within 4.2e-7 of the exact value, which
    is float32 accuracy); float64 inputs use ``scipy.special.erf`` (about
    1e-16), which the oracle and finite-difference checks need. scipy is
    imported on the first float64 call, so a single-precision process
    never loads it.
    """
    z = x.data * _INV_SQRT2
    if z.dtype == np.float32:
        cdf = _erf_float32(z)
    else:
        from scipy.special import erf

        cdf = erf(z)
    cdf += 1.0
    cdf *= 0.5
    data = x.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(x, (g * (cdf + x.data * pdf)).astype(x.dtype, copy=False))

    return _node(data.astype(x.dtype, copy=False), (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` on the last axis; leading axes fold into rows."""
    if x.ndim < 1 or w.ndim != 2:
        raise ShapeError(f"linear: x and rank-2 w required, got {x.shape}, {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x columns {x.shape} do not match w rows {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} does not match w {w.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    data = (rows @ w.data + b.data).reshape(x.shape[:-1] + b.shape)

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g @ w.data.T).reshape(x.shape))
        _accumulate(w, rows.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _node(data, (x, w, b), backward)


def head_linear(stack: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear`` of a (..., H, R, K) head stack whose heads are concatenated
    along the column axis, without building the (..., R, H*K) concatenation.

    ``w`` is (H*K, d), read as H blocks of K rows: the result is
    ``sum_h stack[..., h, :, :] @ w[h*K:(h+1)*K] + b``, shaped (..., R, d).
    """
    if stack.ndim < 3 or w.ndim != 2:
        raise ShapeError(
            f"head_linear: (..., H, R, K) stack and rank-2 w required, "
            f"got {stack.shape}, {w.shape}")
    heads, _, k = stack.shape[-3:]
    d = w.shape[1]
    if w.shape[0] != heads * k:
        raise ShapeError(f"head_linear: {heads} heads x {k} columns do not match "
                         f"w rows {w.shape}")
    if b.shape != (d,):
        raise ShapeError(f"head_linear: bias shape {b.shape} does not match w {w.shape}")
    w_heads = w.data.reshape(heads, k, d)
    data = (stack.data @ w_heads).sum(axis=-3)
    data += b.data

    def backward(g):
        g_heads = np.expand_dims(g, -3)
        if stack.requires_grad:
            _accumulate(stack, g_heads @ np.swapaxes(w_heads, -1, -2))
        gw = np.swapaxes(stack.data, -1, -2) @ g_heads
        _accumulate(w, gw.reshape(-1, heads * k, d).sum(axis=0))
        _accumulate(b, g.reshape(-1, d).sum(axis=0))

    return _node(data, (stack, w, b), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; the backward pass splits the gradient."""
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(first) or any(
            t.shape[i] != first[i] for i in range(t.ndim) if i != axis % t.ndim
        ):
            raise ShapeError(
                f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
            )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            _accumulate(t, g[tuple(idx)])
            offset += n

    return _node(data, tuple(tensors), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    if not (0 <= start and length >= 0 and start + length <= x.shape[axis]):
        raise ShapeError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} "
            f"of shape {x.shape}"
        )
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = x.data[idx].copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        _accumulate(x, full)

    return _node(data, (x,), backward)


def take(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather from the flattened input; output takes the index array's shape.

    The backward pass scatter-adds, so repeated indices accumulate.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= x.data.size):
        raise ShapeError(f"take: index out of range for {x.data.size} elements")
    data = x.data.reshape(-1)[indices]

    def backward(g):
        flat = np.zeros(x.data.size, dtype=x.data.dtype)
        np.add.at(flat, indices.reshape(-1), g.reshape(-1))
        _accumulate(x, flat.reshape(x.data.shape))

    return _node(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, in row-major order, under a new shape."""
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {tuple(shape)}")

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(data, (x,), backward)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder the last ``len(axes)`` axes as ``np.transpose`` does, counting
    axes within that tail; leading axes stay. The result is contiguous."""
    k = len(axes)
    if k > x.ndim or sorted(axes) != list(range(k)):
        raise ShapeError(f"permute: {tuple(axes)} is not a permutation of the last "
                         f"axes of {x.shape}")
    lead = x.ndim - k
    order = tuple(range(lead)) + tuple(lead + a for a in axes)
    data = np.ascontiguousarray(x.data.transpose(order))
    inverse = tuple(np.argsort(order))

    def backward(g):
        _accumulate(x, g.transpose(inverse))

    return _node(data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes, as a contiguous copy."""
    return permute(x, (1, 0))


def tsum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.full_like(x.data, g))

    return _node(data, (x,), backward)


def _interp_axis_weights(n_src: int, n_dst: int) -> np.ndarray:
    """1-d bilinear weight matrix (n_dst x n_src), align-corners=false.

    Source coordinates are sampled at (i + 0.5) * n_src / n_dst - 0.5 and
    edge samples replicate the border row, so rows always sum to one.
    """
    m = np.zeros((n_dst, n_src), dtype=np.float64)
    ratio = n_src / n_dst
    for i in range(n_dst):
        src = (i + 0.5) * ratio - 0.5
        i0f = math.floor(src)
        f = src - i0f
        i0 = min(max(i0f, 0), n_src - 1)
        i1 = min(max(i0f + 1, 0), n_src - 1)
        m[i, i0] += 1.0 - f
        m[i, i1] += f
    return m


@functools.lru_cache(maxsize=None)
def _weight_pair(src_hw: tuple[int, int], dst_hw: tuple[int, int],
                 dtype: np.dtype) -> tuple[Tensor, Tensor]:
    """The (H' x H, W' x W) weights ``upsample_bilinear`` applies, in ``dtype``.

    Built once per grid pair and dtype in a process, as read-only arrays.
    """
    pair = (Tensor(_interp_axis_weights(src_hw[0], dst_hw[0]), dtype=dtype),
            Tensor(_interp_axis_weights(src_hw[1], dst_hw[1]), dtype=dtype))
    for t in pair:
        t.data.flags.writeable = False
    return pair


def upsample_bilinear(x: Tensor, src_hw: tuple[int, int], dst_hw: tuple[int, int]) -> Tensor:
    """Channelwise bilinear upsampling of a flattened (..., H*W, d) field.

    Uses the align-corners=false convention. Only enlargement is supported;
    equal sizes return the input unchanged. The interpolation is separable:
    the W-axis weights act on the (..., H, W, d) grid, then the H-axis
    weights on its (..., H, W'*d) rows, so gradients come from ``matmul``.
    The weights come from ``_weight_pair`` at ``x``'s dtype.
    """
    h, w = src_hw
    h2, w2 = dst_hw
    if x.ndim < 2 or x.shape[-2] != h * w:
        raise ShapeError(
            f"upsample_bilinear: expected {h * w} rows for grid {src_hw}, got {x.shape}"
        )
    if h2 < h or w2 < w:
        raise ShapeError(f"upsample_bilinear: target {dst_hw} smaller than source {src_hw}")
    if (h2, w2) == (h, w):
        return x
    lead, d = x.shape[:-2], x.shape[-1]
    mh, mw = _weight_pair((h, w), (h2, w2), x.dtype)
    rows = matmul(mw, reshape(x, lead + (h, w, d)))
    out = matmul(mh, reshape(rows, lead + (h, w2 * d)))
    return reshape(out, lead + (h2 * w2, d))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax probability of the true class.

    ``logits`` is (..., C) and ``labels`` holds one integer in [0, C) per
    logits row, shaped like the leading axes; the mean runs over every row
    of every sample.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2 or labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} incompatible with labels {labels.shape}"
        )
    c = logits.shape[-1]
    flat = logits.data.reshape(-1, c)
    labels = labels.reshape(-1)
    n = flat.shape[0]
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy: label outside [0, {c})")

    shifted = flat - flat.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    data = np.asarray(-logp[rows, labels].sum() / n, dtype=logits.dtype)

    def backward(g):
        grad = np.exp(logp)
        grad[rows, labels] -= 1.0
        _accumulate(logits, (grad * (float(g) / n)).reshape(logits.shape))

    return _node(data, (logits,), backward)
