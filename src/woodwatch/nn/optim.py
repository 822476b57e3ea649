"""Adam optimizer with the canonical hyperparameters of Kingma & Ba (2015)."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergedError

LR = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Holds first/second moment state per parameter and updates in place.

    theta -= LR * m_hat / (sqrt(v_hat) + EPS), with bias-corrected moments.
    """

    def __init__(self, params: list[np.ndarray]):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        for index, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in parameter {index}")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= LR * (m / bc1) / (np.sqrt(v / bc2) + EPS)
