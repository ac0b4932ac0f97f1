"""AdamW with decoupled weight decay, plus the polynomial LR schedule."""

from __future__ import annotations

import numpy as np

from .module import Parameter


class OptimError(Exception):
    pass


BETAS = (0.9, 0.999)  # decay rates of the first and second moment estimates
EPS = 1e-8  # added to the root of the second moment before dividing


def poly_lr(step: int, total: int, lr0: float, power: float = 0.9) -> float:
    """lr0 * (1 - step/total)^power, from lr0 at step 0 down to 0 at total."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return lr0 * (1.0 - step / total) ** power


def _check_grad(name: str, grad, slot: np.ndarray) -> None:
    if not isinstance(grad, np.ndarray):
        raise OptimError(f"parameter {name!r}: gradient is a {type(grad).__name__}, "
                         f"not a numpy array")
    if grad.shape != slot.shape:
        raise OptimError(f"parameter {name!r}: gradient has shape {grad.shape}, "
                         f"the parameter {slot.shape}")
    if grad.dtype != slot.dtype:
        raise OptimError(f"parameter {name!r}: gradient is {grad.dtype}, "
                         f"the optimizer's vectors are {slot.dtype}")


class AdamW:
    """Decoupled weight decay: decay scales with lr but bypasses the moments.

    Every parameter has one slot, in list order, in each of the optimizer's
    five flat vectors: the values, the gradients, the two moments and a
    scratch vector. ``__init__`` copies the values into the value buffer and
    points each ``p.data`` at its slot; ``step`` updates that buffer in
    place, so each ``p.data`` is a view whose entries change at every step,
    and a caller that wants to keep a value across a step must copy it.
    ``step`` gathers every ``p.grad`` into the gradient buffer and leaves the
    caller's gradients as they are, and raises if a ``p.data`` is not its
    slot: new values go into ``p.data`` in place, as ``load_model`` writes
    them. The optimizer sets no attribute on a parameter but ``data``.
    """

    def __init__(self, named_params: list[tuple[str, Parameter]],
                 weight_decay: float = 0.01):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.step_count = 0
        if not self.named_params:
            raise OptimError("AdamW needs at least one parameter")
        dtype = self.named_params[0][1].data.dtype
        names: dict[int, str] = {}
        for name, p in self.named_params:
            if id(p) in names:
                raise OptimError(f"parameter {name!r} is listed twice "
                                 f"(first as {names[id(p)]!r})")
            names[id(p)] = name
            if p.data.dtype != dtype:
                raise OptimError(f"parameter {name!r} is {p.data.dtype}, "
                                 f"the first parameter {dtype}")
        ends = np.cumsum([p.data.size for _, p in self.named_params]).tolist()
        size = ends[-1]
        # One array per vector: a model kept after training then pins its
        # value buffer, and none of the optimizer's state.
        self.data = np.empty(size, dtype)
        self.grad = np.empty(size, dtype)
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.scratch = np.empty(size, dtype)
        self.slots = [self.data[end - p.data.size:end].reshape(p.shape)
                      for (_, p), end in zip(self.named_params, ends)]
        for (_, p), slot in zip(self.named_params, self.slots):
            np.copyto(slot, p.data)
            p.data = slot

    def step(self, lr: float) -> None:
        """One update over all parameters; every gradient must be populated.
        Nothing changes when a gradient or value fails its check."""
        for (name, p), slot in zip(self.named_params, self.slots):
            if p.data is not slot:
                new = np.asarray(p.data)
                raise OptimError(f"parameter {name!r}: value replaced by a {new.dtype} "
                                 f"array of shape {new.shape}; write into p.data in place")
            if p.grad is None:
                raise OptimError(f"parameter {name!r} has no gradient")
            _check_grad(name, p.grad, slot)
        np.concatenate([p.grad.reshape(-1) for _, p in self.named_params],
                       out=self.grad)
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        decay = lr * self.weight_decay
        x, g, m, v, s = self.data, self.grad, self.m, self.v, self.scratch
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g in place; then the
        # gradient buffer, free once the moments hold it, takes the step term,
        # and x = (x - lr wd x) - lr (m / bc1) / (sqrt(v / bc2) + eps) in place,
        # in the formula's operation order, so every entry goes through the
        # float operations of a per-tensor step.
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(m, bc1, out=g)
        g *= lr
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        g /= s
        np.multiply(x, decay, out=s)
        np.subtract(x, s, out=x)
        x -= g

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None
