"""Central-difference verification of analytic gradients.

Intended for small graphs (< 10^4 parameters); every parameter is
perturbed individually, so cost is two forward passes per scalar.
"""

from __future__ import annotations

import numpy as np

from .layers import ModelGraph, softmax_cross_entropy


def finite_diff_check(graph: ModelGraph, x: np.ndarray, onehot: np.ndarray,
                      epsilon: float = 1e-4, seed: int = 0) -> float:
    """Max over parameters of |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    The loss is softmax cross-entropy over the graph's logits, evaluated in
    train mode: the generator is re-seeded for every pass so dropout masks
    are identical across all perturbed evaluations and the loss stays a
    deterministic function of the parameters.
    """

    def loss_at_current_params() -> float:
        rng = np.random.default_rng(seed)
        logits = graph.forward(x, train=True, rng=rng)
        loss, _, _ = softmax_cross_entropy(logits, onehot)
        return loss

    rng = np.random.default_rng(seed)
    logits = graph.forward(x, train=True, rng=rng)
    _, _, dlogits = softmax_cross_entropy(logits, onehot)
    graph.backward(dlogits)
    analytic = [g.copy() for g in graph.grads()]

    worst = 0.0
    for param, grad in zip(graph.params(), analytic):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + epsilon
            loss_plus = loss_at_current_params()
            flat_p[i] = original - epsilon
            loss_minus = loss_at_current_params()
            flat_p[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = max(1e-8, abs(flat_g[i]) + abs(numeric))
            worst = max(worst, abs(flat_g[i] - numeric) / denom)
    return worst
