"""Dense arrays with reverse-mode differentiation.

The engine is deliberately small: it implements exactly the operations the
segmentation model needs, each as a function that computes the forward value
with numpy and, when some input needs a gradient, records a closure routing
the output gradient back to those inputs.

Which object holds what:

- A ``Tensor`` holds its value, ``data``, and, when it needs a gradient, a
  node. The node holds the grad, the backward closure and the nodes of the
  inputs the closure passes gradients to; a leaf's node holds only its
  grad. Graph edges join nodes, and no node or closure holds a tensor, so
  a forward value no backward reads is freed as soon as the model code
  drops its tensor.
- A closure captures only the arrays its backward reads, and only for
  inputs that need a gradient: ``matmul`` keeps each operand only for the
  other's gradient, and the shape ops, sums and concatenations keep shapes.
- ``self_attention`` keeps no attention map larger than
  ``_ATTENTION_KEEP_BYTES``: its closure keeps ``c * q``, k, v, the gate
  integrators' weights and each map row's max and sum of exponentials,
  and backward forms such a map again one block of query rows at a time.

Threads: see ``cpus``, whose pool runs self-attention's row blocks.

``backward()`` on a scalar walks the recorded nodes once in reverse
topological order and consumes them: each node drops its closure and its
input nodes once its closure has run, so every saved array is freed as soon
as no node still waiting for backward needs it, and after the call only the
leaves' grads are left. A second ``backward()`` through a consumed node
raises ``RuntimeError``; build a new graph instead.

Conventions:

- float64 is the default dtype; float32 is supported for faster training
  (tolerances quoted in the test suite assume float64).
- An op's tensor operands share one dtype (else ``TypeError``, recording or
  not), so each gradient comes out in its input's dtype without a cast.
- Leading axes are batch axes: every op acts on the trailing axes it names
  (matrix ops on the last two, row ops on the last one) and carries the
  rest through, broadcasting where numpy does. One sample and a (B, ...)
  batch of samples run through the same code.
- Spatial fields are stored flattened, one row per grid cell in row-major
  order, with the grid shape carried separately by the caller.
- Gradients accumulate. Repeated ``backward()`` calls without zeroing add
  their contributions; ``AdamW.zero_grad`` drops them after each step. A
  later contribution that is a ``narrow`` slice is added into that slice
  of the grad, not through a temporary the size of the grad.
- Tensors are immutable after construction except for grad accumulation,
  the optimizer's updates between steps, and the values a loader writes
  into a parameter's own array in place (``load_model``).
- The ``g`` a backward closure receives is its own node's grad, which no
  other node holds: ``_accumulate`` keeps a first contribution only when
  the closure that passed it owns it, and the node's grad is dropped once
  its closure returns. So a closure may overwrite ``g``; the softmax,
  layernorm, gelu, scale and mul backwards turn it into an input's grad in
  place. A closure must not keep ``g`` or pass the same array to two
  different nodes, and no op writes to an array it did not allocate.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .cpus import _in_order

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "softmax",
    "layernorm",
    "gelu",
    "linear",
    "self_attention",
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


class _Node:
    """The graph record of a tensor that needs a gradient: its grad, the
    closure that passes that grad on, and the nodes of the inputs the closure
    passes it to. A leaf's node has no closure and no inputs."""

    __slots__ = ("grad", "backward", "inputs")

    def __init__(self, backward=None, inputs: tuple[_Node, ...] = ()):
        self.grad: np.ndarray | None = None
        self.backward = backward
        self.inputs = inputs


class Tensor:
    """N-dimensional real array participating in reverse-mode differentiation.

    ``requires_grad`` marks leaves that should receive gradients; tensors
    produced by operations inherit it from their inputs so the chain rule
    can flow through intermediates. A tensor that requires grad holds a
    ``_Node``, which keeps its ``grad``; the graph holds nodes, not tensors.
    """

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g) -> None:
        if self._node is None:
            raise AttributeError("grad: this tensor does not require grad")
        self._node.grad = g

    @property
    def _backward(self):
        """The closure of this tensor's node; None for a leaf or a constant."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node.backward = closure

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

    def backward(self) -> None:
        """Populate ``grad`` of every requires_grad tensor reachable from here.

        The tensor must be scalar (0-d) and must require grad. Contributions
        accumulate into leaf grads; an intermediate's grad is dropped once
        passed on, and each node is consumed (see the module docstring).
        """
        if self.data.ndim != 0:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.data.shape}"
            )
        if self._node is None:
            raise RuntimeError(
                "backward: the loss does not require grad; it was built under "
                "no_grad() or from tensors none of which requires grad"
            )
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _consumed:
                raise RuntimeError(_CONSUMED)
            seen.add(id(node))
            stack.append((node, True))
            for child in node.inputs:
                if id(child) not in seen:
                    stack.append((child, False))
        _accumulate(self._node, np.ones((), dtype=self.data.dtype))
        # Popping drops topo's reference, so a node whose consumers have all
        # run is freed once the loop moves on.
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
                node.grad = None
            node.inputs = ()
            node.backward = _consumed


_CONSUMED = ("backward: this tensor's graph was already consumed by an earlier "
             "backward(); run the forward pass again to build a new graph")


def _consumed(g):
    """The closure of a node that backward has consumed."""
    raise RuntimeError(_CONSUMED)


def _accumulate(node: _Node | None, g: np.ndarray) -> None:
    """Add ``g`` into ``node.grad``; no-op for a None node (an input that
    needs no gradient). A first contribution is kept, not copied (a numpy
    scalar becomes a 0-d array), so a closure must pass an array (or a view
    of its own node's grad) that no other node keeps."""
    if node is None:
        return
    if node.grad is None:
        node.grad = np.asarray(g)
    else:
        node.grad += g


def _accumulate_matmul(node: _Node | None, x: np.ndarray, y: np.ndarray,
                       shape: tuple[int, ...]) -> None:
    """``_accumulate`` of ``x @ y`` summed down to ``shape``; the product is
    not formed for a None node."""
    if node is not None:
        _accumulate(node, _unbroadcast(x @ y, shape))


# One flag for the process, not one per thread: ``predict_labels`` runs its
# chunks on the CPU pool's threads as well as the calling thread, all inside
# the caller's ``no_grad``, which the caller leaves only once every chunk has
# ended. Self-attention's pool threads run numpy only and read no flag.
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


def _nodes(*tensors: Tensor) -> tuple[_Node | None, ...]:
    """The node of each input an op records a gradient for: None where the
    input needs no gradient, and everywhere under ``no_grad``. Every op
    passes all its tensor operands, so this is where mixed dtypes fail."""
    if len(tensors) > 1 and len(dtypes := {t.data.dtype for t in tensors}) > 1:
        raise TypeError("the tensor operands of an op must share one dtype, got "
                        + " and ".join(sorted(map(str, dtypes))))
    if not _grad_enabled:
        return (None,) * len(tensors)
    return tuple(t._node for t in tensors)


def _record(data: np.ndarray, nodes: tuple[_Node | None, ...], backward) -> Tensor:
    """The output tensor of an op some input of which needs a gradient (an
    op with none returns ``Tensor(data)`` before it builds a closure).
    ``backward`` must capture only arrays, shapes and the entries of
    ``nodes``, never a tensor."""
    out = Tensor(data)
    out._node = _Node(backward, tuple(n for n in nodes if n is not None))
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

    na, nb = nodes = _nodes(a, b)
    if not any(nodes):
        return Tensor(data)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        # a may keep g itself, so b gets a copy in g's layout (strides steer BLAS rounding)
        _accumulate(na, _unbroadcast(g, a_shape))
        gb = _unbroadcast(g, b_shape)
        _accumulate(nb, gb.copy(order="K") if na is not None else gb)

    return _record(data, nodes, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    na, nb = nodes = _nodes(a, b)
    if not any(nodes):
        return Tensor(data)
    a_shape, b_shape = a.shape, b.shape
    # each factor is kept only for the other's gradient
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, a_shape))
        if nb is not None:
            g *= a_data
            _accumulate(nb, _unbroadcast(g, b_shape))

    return _record(data, nodes, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    data = x.data * c

    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)

    def backward(g):
        g *= c
        _accumulate(nx, g)

    return _record(data, nodes, backward)


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

    na, nb = nodes = _nodes(a, b)
    if not any(nodes):
        return Tensor(data)
    a_shape, b_shape = a.shape, b.shape
    # each operand is kept only for the other's gradient
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            _accumulate_matmul(na, g, np.swapaxes(b_data, -1, -2), a_shape)
        if nb is not None:
            _accumulate_matmul(nb, np.swapaxes(a_data, -1, -2), g, b_shape)

    return _record(data, nodes, backward)


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
    # one new array: the shifted copy is exponentiated and normalized in place
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)

    def backward(g):
        _accumulate(nx, _softmax_backward_(g, data, axis))

    return _record(data, nodes, backward)


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
    # Row moments as a sum over d, then one division: ``mean`` divides in
    # float64, which rounds to the same float32 bits.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu
    data = np.multiply(xhat, xhat)
    inv = np.add.reduce(data, axis=-1, keepdims=True)
    inv /= d
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=data)
    data += beta.data

    nx, ngamma, nbeta = nodes = _nodes(x, gamma, beta)
    if not any(nodes):
        return Tensor(data)
    # gamma and the row scales are read only for x's gradient
    gamma_data = gamma.data if nx is not None else None
    if nx is None:
        inv = None

    def backward(g):
        tmp = g * xhat
        dgamma = tmp.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        if nx is not None:
            # g becomes x's grad: (gg - mean(gg) - xhat * mean(gg * xhat)) * inv
            # with gg = g * gamma.
            g *= gamma_data
            m1 = np.add.reduce(g, axis=-1, keepdims=True)
            m1 /= d
            np.multiply(g, xhat, out=tmp)
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
            m2 /= d
            g -= m1
            np.multiply(xhat, m2, out=tmp)
            g -= tmp
            g *= inv
            _accumulate(nx, g)
        _accumulate(ngamma, dgamma)
        _accumulate(nbeta, dbeta)

    return _record(data, nodes, backward)


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
    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)
    x_data = x.data

    def backward(g):
        # g * (cdf + x * pdf), with pdf = exp(-x^2 / 2) / sqrt(2 pi)
        t = np.multiply(x_data, -0.5, out=np.empty_like(x_data))  # 0-d stays an array
        t *= x_data
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= x_data
        t += cdf
        g *= t
        _accumulate(nx, g)

    return _record(data, nodes, backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` on the last axis; leading axes fold into rows."""
    if x.ndim < 1 or w.ndim != 2:
        raise ShapeError(f"linear: x and rank-2 w required, got {x.shape}, {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x columns {x.shape} do not match w rows {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} does not match w {w.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    data = rows @ w.data
    data += b.data
    data = data.reshape(x.shape[:-1] + b.shape)

    nx, nw, nb = nodes = _nodes(x, w, b)
    if not any(nodes):
        return Tensor(data)
    x_shape = x.shape
    # x's rows are kept only for w's gradient, and w only for x's
    w_data = w.data if nx is not None else None
    if nw is None:
        rows = None

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if nx is not None:
            _accumulate(nx, (g @ w_data.T).reshape(x_shape))
        if nw is not None:
            _accumulate(nw, rows.T @ g)
        _accumulate(nb, g.sum(axis=0))

    return _record(data, nodes, backward)


# ``self_attention`` forms its map in blocks of query rows of at most about
# _ATTENTION_BLOCK_BYTES, and keeps the blocks of a map of at most
# _ATTENTION_KEEP_BYTES for backward rather than forming them again. A
# 128x128 batch-4 stage-1 block is then 64 rows. On the thread pool of a
# 2-CPU host, float32 128x128 batch-4 training steps took 209-217 ms with 2
# MiB blocks, against 225-285 ms with 512 KiB, 1 MiB, 4 MiB or 8 MiB ones.
_ATTENTION_BLOCK_BYTES, _ATTENTION_KEEP_BYTES = 2 << 20, 4 << 20

def self_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, c: float,
                   readers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Multi-head self-attention and the evidence that gate integrators read
    off its map, without holding the map.

    ``q``, ``k`` and ``v`` are (..., N, H*d) with head h in columns
    [h*d, (h+1)*d); head h's map is ``p_h = softmax(c * q_h @ k_h^T)`` over
    keys. Each ``(w, b)`` of ``readers`` is an integrator with ``w`` of
    (H*N, d_j). The result is (..., N, H*d + sum_j d_j): the heads' outputs
    ``p_h @ v_h`` side by side, then for each reader the evidence
    ``[p_1 ... p_H] @ w + b``. Both are row-local, so the map is formed one
    block of query rows at a time and dropped. A block holds a row's heads
    side by side, which is the head concatenation, so each reader's evidence
    is one product of the block's rows with ``w``. The closure keeps
    ``c * q``, k, v, the weights and each map row's max and sum of
    exponentials, from which backward forms the map again with the same
    bits, in blocks of half the rows; a small map's blocks are kept instead.
    A map of more than one block has its blocks run on the thread pool.
    """
    lead, (n, width) = q.shape[:-2], ((0, 0) + q.shape)[-2:]
    if q.ndim < 2 or heads < 1 or width % heads or not q.shape == k.shape == v.shape:
        raise ShapeError(f"self_attention: q {q.shape}, k {k.shape} and v {v.shape} are "
                         f"not three (..., N, {heads} x d) arrays")
    if n < 1:
        raise ShapeError(f"self_attention: q {q.shape} has N = 0 tokens; a map "
                         f"needs at least one key")
    for w, b in readers:
        if w.ndim != 2 or w.shape[0] != heads * n or b.shape != w.shape[1:]:
            raise ShapeError(f"self_attention: reader w {w.shape}, b {b.shape} do not "
                             f"fit {heads} heads x {n} keys")
    nodes = _nodes(q, k, v, *(t for pair in readers for t in pair))
    c, d = float(c), width // heads

    def heads_view(a: np.ndarray) -> np.ndarray:
        """The (..., H, N, d) view of a (..., N, H*d) array."""
        return a.reshape(a.shape[:-1] + (heads, d)).swapaxes(-2, -3)

    # copied so each head is contiguous: with strided views of q, k and v, a
    # float32 128x128 batch-4 training step was slower in 4 of 4 rounds on 2
    # CPUs (270-287 ms against 257-277 ms)
    qs = np.ascontiguousarray(heads_view(q.data * c))
    kt = np.ascontiguousarray(heads_view(k.data).swapaxes(-1, -2))  # (..., H, d, N)
    vh = np.ascontiguousarray(heads_view(v.data))
    ws = [w.data for w, _ in readers]
    cols = np.cumsum([width] + [w.shape[1] for w in ws])
    row_bytes = math.prod(lead) * heads * n * qs.itemsize
    step = max(1, _ATTENTION_BLOCK_BYTES // max(1, row_bytes))  # an empty batch has 0
    data = np.empty(lead + (n, int(cols[-1])), qs.dtype)
    # each map row's max logit and sum of shifted exponentials
    shift, total = np.empty((2,) + lead + (n, heads, 1), qs.dtype)

    def probs(rows: slice, first: bool) -> np.ndarray:
        """The (..., rows, H, N) block of the map, as ``softmax`` forms it
        from the logits; ``first`` records the rows' max and sum."""
        p = np.empty(lead + (len(range(n)[rows]), heads, n), qs.dtype)
        np.matmul(qs[..., rows, :], kt, out=np.swapaxes(p, -2, -3))
        if first:
            shift[..., rows, :, :] = p.max(axis=-1, keepdims=True)
        p -= shift[..., rows, :, :]
        np.exp(p, out=p)
        if first:
            total[..., rows, :, :] = p.sum(axis=-1, keepdims=True)
        p /= total[..., rows, :, :]
        return p

    def evidence(a: np.ndarray, rows: slice) -> list[np.ndarray]:
        """Each reader's columns of a block of rows of a result-shaped array."""
        return [a[..., rows, i:j] for i, j in zip(cols[:-1], cols[1:])]

    att = heads_view(data[..., :width])
    keep = any(nodes) and row_bytes * n <= _ATTENTION_KEEP_BYTES

    def block(r: int) -> np.ndarray | None:
        """Write the rows of the output from ``r`` on; the map block if kept."""
        rows = slice(r, r + step)
        p = probs(rows, True)
        np.matmul(np.swapaxes(p, -2, -3), vh, out=att[..., rows, :])
        for w, (_, b), e in zip(ws, readers, evidence(data, rows)):
            x = p.reshape(-1, heads * n) @ w
            x += b.data
            e[...] = x.reshape(e.shape)
        return p if keep else None

    blocks = list(_in_order(block, range(0, n, step), step * row_bytes))
    kept = blocks if keep else None

    nq, nk, nv, *nwb = nodes
    if not any(nodes):
        return Tensor(data)
    nws, nbs = nwb[::2], nwb[1::2]
    if nq is None and nk is None:  # v and the weights are read for the map's grad
        vh = ws = None
    if nq is None and nk is None and nv is None and not any(nws):
        qs = kt = kept = None

    def accumulate(acc: np.ndarray | None, x: np.ndarray | None) -> np.ndarray | None:
        return x if acc is None else acc if x is None else np.add(acc, x, out=acc)

    def backward(g):
        # the output's grad as the unblocked ops get it
        g_att = heads_view(np.ascontiguousarray(g[..., :width]))
        dq = np.empty(lead + (heads, n, d), g.dtype) if nq is not None else None
        # a block here is held with its grad, so it has half the rows
        bstep = step if kept is not None else max(1, step // 2)

        def block(r: int) -> tuple[np.ndarray | None, ...]:
            """Write dq's rows from ``r`` on; the rows' terms of dv, dk^T and
            each reader's dw."""
            rows = slice(r, r + bstep)
            p = kept[r // bstep] if kept is not None else probs(rows, False)
            ph, flat = np.swapaxes(p, -2, -3), p.reshape(-1, heads * n)
            e_rows = [e.reshape(-1, e.shape[-1]) for e in evidence(g, rows)]
            dv = np.swapaxes(ph, -1, -2) @ g_att[..., rows, :] if nv is not None else None
            dws = [flat.T @ e if nw is not None else None for e, nw in zip(e_rows, nws)]
            if vh is None:
                return dv, None, *dws
            # the map's grad, laid out as p: the readers' terms in order, then
            # the output's
            dp = None
            for e, w in zip(e_rows, ws):
                dp = accumulate(dp, e @ w.T)
            term = np.empty_like(p)
            np.matmul(g_att[..., rows, :], np.swapaxes(vh, -1, -2),
                      out=np.swapaxes(term, -2, -3))
            dp = accumulate(dp, term.reshape(flat.shape)).reshape(p.shape)
            ds = np.swapaxes(_softmax_backward_(dp, p, -1), -2, -3)
            if dq is not None:
                np.matmul(ds, np.swapaxes(kt, -1, -2), out=dq[..., rows, :])
            dkt = np.swapaxes(qs[..., rows, :], -1, -2) @ ds if nk is not None else None
            return dv, dkt, *dws

        # the blocks' terms summed in block order, whichever thread formed them
        sums = [None] * (2 + len(nws))
        # a block holds its map rows, their grad and the output's term of it
        starts = range(0, n, bstep) if qs is not None else range(0)
        for terms in _in_order(block, starts, 3 * bstep * row_bytes):
            sums = [accumulate(acc, x) for acc, x in zip(sums, terms)]
        dv, dkt, *dws = sums
        if dq is not None:
            dq *= c
        # each grad's head axis moved back next to its d axis
        for node, grad, axes in ((nq, dq, (-3, -2)), (nk, dkt, (-1, -3)), (nv, dv, (-3, -2))):
            if node is not None:
                _accumulate(node, np.moveaxis(grad, *axes).reshape(lead + (n, width)))
        for e, dw, nw, nb in zip(evidence(g, slice(None)), dws, nws, nbs):
            _accumulate(nw, dw)
            if nb is not None:
                _accumulate(nb, e.reshape(-1, e.shape[-1]).sum(axis=0))

    return _record(data, nodes, backward)


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
    nodes = _nodes(*tensors)
    if not any(nodes):
        return Tensor(data)
    parts = [(node, t.shape[axis]) for node, t in zip(nodes, tensors)]

    def backward(g):
        offset = 0
        for node, n in parts:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            _accumulate(node, g[tuple(idx)])
            offset += n

    return _record(data, nodes, backward)


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
    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)
    shape = x.shape

    def backward(g):
        # a later slice adds into the input's grad, not through a full-size copy
        if nx.grad is None:
            nx.grad = np.zeros(shape, g.dtype)
        nx.grad[idx] += g

    return _record(data, nodes, backward)


def take(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather from the flattened input; output takes the index array's shape.

    The backward pass scatter-adds, so repeated indices accumulate.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= x.data.size):
        raise ShapeError(f"take: index out of range for {x.data.size} elements")
    data = x.data.reshape(-1)[indices]
    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)
    shape = x.shape

    def backward(g):
        flat = np.zeros(math.prod(shape), g.dtype)
        np.add.at(flat, indices.reshape(-1), g.reshape(-1))
        _accumulate(nx, flat.reshape(shape))

    return _record(data, nodes, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, in row-major order, under a new shape."""
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {tuple(shape)}")

    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)
    x_shape = x.shape

    def backward(g):
        _accumulate(nx, g.reshape(x_shape))

    return _record(data, nodes, backward)


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
    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)

    def backward(g):
        _accumulate(nx, g.transpose(inverse))

    return _record(data, nodes, backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes, as a contiguous copy."""
    return permute(x, (1, 0))


def tsum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)
    (nx,) = nodes = _nodes(x)
    if not any(nodes):
        return Tensor(data)
    shape = x.shape

    def backward(g):
        _accumulate(nx, np.full(shape, g, g.dtype))

    return _record(data, nodes, backward)


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

    (nl,) = nodes = _nodes(logits)
    if not any(nodes):
        return Tensor(data)
    shape = logits.shape

    def backward(g):
        grad = np.exp(logp)
        grad[rows, labels] -= 1.0
        grad *= float(g) / n
        _accumulate(nl, grad.reshape(shape))

    return _record(data, nodes, backward)
