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


def _check_array(name: str, what: str, arr, slot: np.ndarray) -> None:
    if not isinstance(arr, np.ndarray):
        raise OptimError(f"parameter {name!r}: {what} is a {type(arr).__name__}, "
                         f"not a numpy array")
    if arr.shape != slot.shape:
        raise OptimError(f"parameter {name!r}: {what} has shape {arr.shape}, "
                         f"the parameter {slot.shape}")
    if arr.dtype != slot.dtype:
        raise OptimError(f"parameter {name!r}: {what} is {arr.dtype}, "
                         f"the optimizer's buffers are {slot.dtype}")


class AdamW:
    """Decoupled weight decay: decay scales with lr but bypasses the moments.

    Every parameter has one slot, in list order, in each of the optimizer's
    flat vectors: two value buffers, one gradient buffer, the two moments
    and a scratch vector. ``__init__`` copies the values into the first
    buffer and points each ``p.data`` at its slot there; ``step`` writes the
    new values into the other buffer and points ``p.data`` at that slot, so
    the arrays a caller held before a step keep their values through it
    (not through the step after, which writes that buffer again). ``step``
    gathers every ``p.grad`` into the gradient buffer; a ``p.data`` a caller
    rebinds is copied into its slot at the next step. The optimizer sets no
    attribute on a parameter but ``data``.
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

        def slots(flat):
            return [flat[end - p.data.size:end].reshape(p.shape)
                    for (_, p), end in zip(self.named_params, ends)]

        # One array per vector: a model kept after training then pins its
        # value buffer, and none of the optimizer's state.
        self.buffers = (np.empty(size, dtype), np.empty(size, dtype))
        self.grad = np.empty(size, dtype)
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.scratch = np.empty(size, dtype)
        self.slots = (slots(self.buffers[0]), slots(self.buffers[1]))
        for (_, p), slot in zip(self.named_params, self.slots[0]):
            np.copyto(slot, p.data)
            p.data = slot

    def step(self, lr: float) -> None:
        """One update over all parameters; every gradient must be populated.
        Nothing changes when a gradient or value fails its check."""
        slots = self.slots[0]
        for (name, p), slot in zip(self.named_params, slots):
            if p.grad is None:
                raise OptimError(f"parameter {name!r} has no gradient")
            _check_array(name, "gradient", p.grad, slot)
            if p.data is not slot:
                _check_array(name, "value", p.data, slot)
        for (_, p), slot in zip(self.named_params, slots):
            if p.data is not slot:
                np.copyto(slot, p.data)
        np.concatenate([p.grad.reshape(-1) for _, p in self.named_params],
                       out=self.grad)
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        decay = lr * self.weight_decay
        g, m, v, s = self.grad, self.m, self.v, self.scratch
        data, new = self.buffers
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g in place; the new
        # value (p - lr wd p) - lr (m / bc1) / (sqrt(v / bc2) + eps) is built
        # in the other value buffer, which holds the step term first, in the
        # formula's operation order, so every entry goes through the float
        # operations of a per-tensor step.
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(m, bc1, out=new)
        new *= lr
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        new /= s
        np.multiply(data, decay, out=s)
        np.subtract(data, s, out=s)
        np.subtract(s, new, out=new)
        self.buffers, self.slots = self.buffers[::-1], self.slots[::-1]
        for (_, p), slot in zip(self.named_params, self.slots[0]):
            p.data = slot

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None
