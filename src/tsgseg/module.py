"""Parameter containers and the module tree walk.

A module's parameters are discovered by walking its attributes: bare
``Parameter`` values, child modules, and lists of either. Names are the
attribute path (lists contribute their index), which is what the checkpoint
format keys on, so attribute names double as the persistence schema.
Modules build their tensors in float64; ``Module.cast`` moves a built tree
to another precision in one pass.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, gelu, layernorm, linear


class Parameter(Tensor):
    """A trainable leaf tensor; always participates in differentiation."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class providing recursive parameter discovery."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """All (name, parameter) pairs under this module.

        Shared parameters (the same object reachable by several paths) are
        reported once, under the first path encountered.
        """
        out: list[tuple[str, Parameter]] = []
        self._collect(prefix, out, set(), Parameter)
        return out

    def _collect(self, prefix: str, out, seen: set[int], kind: type) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        for name, value in vars(self).items():
            path = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            _collect_value(path, value, out, seen, kind)

    def cast(self, dtype) -> None:
        """Cast every tensor under this module, trainable or fixed, to ``dtype``."""
        tensors: list[tuple[str, Tensor]] = []
        self._collect("", tensors, set(), Tensor)
        for _, t in tensors:
            t.data = t.data.astype(dtype, copy=False)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def _collect_value(path: str, value, out, seen: set[int], kind: type) -> None:
    if isinstance(value, kind):
        if id(value) not in seen:
            seen.add(id(value))
            out.append((path, value))
    elif isinstance(value, Module):
        value._collect(path, out, seen, kind)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _collect_value(f"{path}.{i}", item, out, seen, kind)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int):
    """Glorot-normal weight draw for a (fan_in, fan_out) matrix."""
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``x @ w + b``."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 zero_init: bool = False, bias: bool = True):
        w = np.zeros((d_in, d_out)) if zero_init else glorot(rng, d_in, d_out)
        self.w = Parameter(w)
        # A disabled bias stays a plain zero tensor: it joins the forward
        # computation but is not a trainable parameter.
        if bias:
            self.b = Parameter(np.zeros(d_out))
        else:
            self.b = Tensor(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    """Learned per-row standardization."""

    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layernorm(x, self.gamma, self.beta)


class Mlp(Module):
    """Two-layer perceptron with a GELU between the layers."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int,
                 rng: np.random.Generator, zero_init_out: bool = False):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, d_out, rng, zero_init=zero_init_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))
