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
        for i, (name, p) in enumerate(self.named_params):
            if p.grad is None:
                raise OptimError(f"parameter {name!r} has no gradient")
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            new = p.data - lr * self.weight_decay * p.data \
                - lr * m_hat / (np.sqrt(v_hat) + EPS)
            p.data = new.astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None
