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


class AdamW:
    """Decoupled weight decay: decay scales with lr but bypasses the moments."""

    def __init__(self, named_params: list[tuple[str, Parameter]],
                 weight_decay: float = 0.01):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def step(self, lr: float) -> None:
        """One update over all parameters; every gradient must be populated."""
        self.step_count += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        decay = lr * self.weight_decay
        for i, (name, p) in enumerate(self.named_params):
            if p.grad is None:
                raise OptimError(f"parameter {name!r} has no gradient")
            g, m, v = p.grad, self.m[i], self.v[i]
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g in place; the
            # new value p - lr wd p - lr (m / bc1) / (sqrt(v / bc2) + eps) is
            # built in scratch s, in the formula's operation order (out= keeps
            # a 0-d parameter's values arrays, not numpy scalars).
            s, u = np.empty_like(p.data), np.empty_like(p.data)
            np.multiply(g, 1.0 - b1, out=s)
            m *= b1
            m += s
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            np.divide(m, bc1, out=u)
            u *= lr
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            u /= s
            np.multiply(p.data, decay, out=s)
            np.subtract(p.data, s, out=s)
            s -= u
            p.data = s

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None
