"""Decayed class-mass tracking over the whole stream history.

Each arriving label updates both per-class masses:

    w_y <- decay * w_y + (1 - decay) * [label == y]

and the imbalance statistic is w_pos - w_neg, in [-1, 1]: 0 for a balanced
stream, +/-1 when one class is absent. Larger decay means longer memory.
Masses start at 0, so they do not sum to 1 until the (1 - decay^t) transient
has washed out.

With d = decay, the statistic follows D_t = d * D_{t-1} + (1 - d) * X_t with
X_t = +1 for a positive label and -1 for a negative one. On a stream of
independent labels with P(positive) = p, once the transient has passed:

- its expectation is p_pos - p_neg = 2p - 1;
- its stationary std is sqrt(4p(1-p)(1-d)/(1+d)), about 0.199 at p = 0.25
  and d = 0.9, so a single reading is a noisy estimate of the imbalance;
- its running mean over n readings converges to 2p - 1, with std about
  sqrt(4p(1-p)/n) (the stationary std times sqrt((1+d)/((1-d)n))).
"""

from __future__ import annotations

from .data import POSITIVE


class ImbalanceMonitor:
    __slots__ = ("w_pos", "w_neg", "decay")

    def __init__(self, decay: float = 0.9):
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        self.w_pos = 0.0
        self.w_neg = 0.0

    def update(self, label: int) -> None:
        d = self.decay
        keep = 1.0 - d
        if label == POSITIVE:
            self.w_pos = d * self.w_pos + keep
            self.w_neg = d * self.w_neg
        else:
            self.w_pos = d * self.w_pos
            self.w_neg = d * self.w_neg + keep

    def ocis(self) -> float:
        return self.w_pos - self.w_neg
