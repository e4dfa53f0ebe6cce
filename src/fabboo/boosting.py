"""Online boosting over incremental trees, with imbalance-adjusted instance
weights and fairness-driven decision-boundary adjustment.

Training follows the smooth online-boosting recurrence: each instance runs
through the learners in order with weight w_i, where

    q_i = q_{i-1} + y * H_i(x) - gamma / (2 + gamma)
    w_{i+1} = min((1 - gamma)^(q_i / 2), 1)

and, when imbalance adjustment is on, w_{i+1} is divided by (1 + ocis) for
positive instances and (1 - ocis) for negative ones, so the minority class
gains weight as the decayed class masses diverge. With the adjustment off
this is exactly the plain smooth-boosting update.

Classification thresholds the ensemble confidence (1 + mean margin) / 2 at
0.5, except for protected instances when a fairness notion is active: those
use the adjusted boundary theta on their confidence in the notion's
favourable prediction (see fairness.RULES). Theta is chosen from the
confidences of protected instances recently denied that prediction, kept
in a bounded FIFO window. Whenever the cumulative fairness value exceeds
the tolerance against the protected group, theta is set to the n-th
highest window confidence, n being the number of decisions that would
need to flip to restore parity; otherwise theta rests at the neutral 0.5.

Neither recurrence reads the prediction, theta or the ledger, so the chain
can be cut after learner k: the margin sum and (q, w) of learners 1..k on
an arrival are all the rest of the chain needs. `score` and
`train_instance` continue from such a head, which is empty (sum 0, q = 0,
w = 1) unless a pipeline's helper process trains learners 1..k (see
pipeline.py).
"""

from __future__ import annotations

import math
from bisect import insort, bisect_left
from collections import deque
from dataclasses import dataclass

from .data import POSITIVE, NEGATIVE
from .fairness import RULES, FairnessLedger, Notion
from .imbalance import ImbalanceMonitor
from .tree import HoeffdingTree

# divisor floor for (1 +/- ocis) on single-class stream prefixes
_DIVISOR_FLOOR = 1e-3
# margin sum, q and w of an empty head of the chain
NO_HEAD = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class EnsembleParams:
    learners: int = 20
    gamma: float = 0.1
    imbalance_adjust: bool = True
    notion: Notion | None = None
    epsilon: float = 1e-4
    window: int = 2000
    decay: float = 0.9           # imbalance monitor decay
    smoothing: float = 1.0       # fairness-ledger denominator correction
    chunk: int | None = None     # chunked mitigation ledger (short-term mode)

    def __post_init__(self):
        if self.learners < 1:
            raise ValueError("learners must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("lambda must be in [0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not 0.0 <= self.smoothing < math.inf:
            raise ValueError("smoothing must be finite and >= 0")


class BoundaryWindow:
    """Sliding window over the last `capacity` stream arrivals, holding
    (confidence, seq) entries for rejected protected instances.

    Entries leave in strict seq order once they fall out of the horizon
    (seq <= now - capacity), so at most `capacity` entries exist at a time.
    The n-th highest confidence is served from a parallel sorted list.
    """

    __slots__ = ("capacity", "_fifo", "_sorted")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._fifo = deque()
        self._sorted = []

    def __len__(self) -> int:
        return len(self._fifo)

    def expire(self, now: int) -> None:
        """Drop entries older than the horizon ending at seq `now`."""
        fifo = self._fifo
        cutoff = now - self.capacity
        while fifo and fifo[0][1] <= cutoff:
            old_conf, _ = fifo.popleft()
            del self._sorted[bisect_left(self._sorted, old_conf)]

    def push(self, confidence: float, seq: int) -> None:
        self.expire(seq)
        self._fifo.append((confidence, seq))
        insort(self._sorted, confidence)

    def kth_highest(self, k: int) -> float:
        """Confidence of the k-th most confident entry (1-based); the single
        highest when the window holds fewer than k entries."""
        vals = self._sorted
        if not vals:
            raise IndexError("empty window")
        if k > len(vals):
            return vals[-1]
        return vals[len(vals) - k]

    def entries(self):
        return list(self._fifo)


class BoostedEnsemble:
    """Sequentially boosted trees with optional imbalance and fairness modes.

    `learner_factory()` builds each learner (default: a HoeffdingTree over
    `kinds`). A learner has `predict_margin(x)`, a margin in [-1, 1], and
    `train_weighted(x, label, w)`, which learns x with weight w >= 0 and
    returns its margin on x after that update.

    `tail` is the list of learners scored and trained here, all of them
    unless a pipeline's helper trains the first ones; `head` holds that
    helper's (margin sum, q, w) on the current arrival, and `head_error`
    an error it raised training on it, which `train_instance` raises.
    """

    def __init__(self, params: EnsembleParams, kinds, learner_factory=None):
        self.params = params
        if learner_factory is None:
            learner_factory = lambda: HoeffdingTree(kinds)
        self.learners = [learner_factory() for _ in range(params.learners)]
        self.theta = 0.5
        self.monitor = ImbalanceMonitor(params.decay)
        self.ledger = FairnessLedger(params.smoothing, params.chunk)
        self.window = BoundaryWindow(params.window)
        self._rule = None if params.notion is None else RULES[params.notion]
        self._seq = 0
        self._confidence = 0.5   # of the protected instance last predicted
        self.tail = self.learners
        self.head = NO_HEAD
        self.head_error = None

    # ----------------------------------------------------------------- score

    def score(self, features) -> float:
        """Ensemble confidence for the positive class, in [0, 1]."""
        total = margin_sum(self.tail, features, self.head[0])
        return (1.0 + total / len(self.learners)) / 2.0

    def predict(self, features, group: bool) -> int:
        s = self.score(features)
        rule = self._rule
        if group and rule is not None:
            # theta gates the notion's favourable prediction; the other
            # is its negation, as POSITIVE and NEGATIVE are 1 and -1
            c = self._confidence = s if rule.favourable == POSITIVE else 1.0 - s
            return rule.favourable if rule.passes(c, self.theta) else -rule.favourable
        return POSITIVE if s >= 0.5 else NEGATIVE

    # ----------------------------------------------------------------- train

    def train_instance(self, features, label: int, ocis: float) -> None:
        """One boosting pass over the learners (the weight recurrence
        above), continued from the head's (q, w)."""
        if self.head_error is not None:
            raise self.head_error
        _, q, w = self.head
        self.chain(self.tail, features, label, ocis, q, w)

    def chain(self, learners, features, label: int, ocis: float,
              q: float, w: float) -> tuple[float, float]:
        """The weight recurrence over `learners` from (q, w); returns
        (q, w) after the last of them."""
        p = self.params
        gamma = p.gamma
        drift = gamma / (2.0 + gamma)
        base = 1.0 - gamma
        # the instance's class divisor; dividing by 1.0 leaves w as it is
        div = (max(1.0 + ocis if label == POSITIVE else 1.0 - ocis,
                   _DIVISOR_FLOOR) if p.imbalance_adjust else 1.0)
        for learner in learners:
            h = learner.train_weighted(features, label, w)
            q += label * h - drift
            w = base ** (q * 0.5)
            if w > 1.0:
                w = 1.0
            w /= div
        return q, w

    def learn(self, features, group: bool, label: int, predicted: int) -> None:
        """Full per-instance update: fairness bookkeeping, boundary
        adjustment, imbalance update, then boosted training.

        Prequential protocol: `learn` follows `predict` on the same
        instance, and `predicted` is what that call returned; the boundary
        window reuses the confidence it computed."""
        self._seq += 1
        if self.params.notion is not None:
            self.ledger.record(group, label, predicted)
            self._observe_and_adjust(group, label, predicted)
        self.monitor.update(label)
        self.train_instance(features, label, self.monitor.ocis())

    def _observe_and_adjust(self, group, label, predicted) -> None:
        rule = self._rule
        # a protected instance that the notion's rates count (rule.label is
        # None or its label), denied the favourable prediction; a push
        # expires the window as well
        if group and predicted != rule.favourable and rule.label in (None, label):
            self.window.push(self._confidence, self._seq)
        else:
            self.window.expire(self._seq)
        value = self.ledger.value(self.params.notion)
        theta = 0.5
        # value > 0 needs non-protected base events: the flips are defined
        if value > self.params.epsilon:
            n = self.ledger.required_flips(self.params.notion)
            if n > 0 and len(self.window) > 0:
                theta = self.window.kth_highest(n)
        self.theta = theta


def margin_sum(learners, features, total: float) -> float:
    """`total` plus the learners' margins on `features`, in order."""
    for learner in learners:
        total += learner.predict_margin(features)
    return total


# method: (imbalance weights, needs a notion, chunked ledger)
_VARIANTS = {
    "fabboo": (True, True, False),
    "osboost": (False, False, False),
    "ofib": (False, True, False),
    "cfbb": (True, True, True),
    "imbalance_only": (True, False, False),
}
METHODS = tuple(_VARIANTS)
CHUNK = 1000   # default chunk size of the cfbb ledger


def method_params(method: str, notion: Notion | None, *, chunk: int = CHUNK,
                  **params) -> EnsembleParams:
    """Ensemble configuration for each named method variant.

    osboost: plain boosting; imbalance_only: imbalance adjustment without a
    fairness notion; ofib: fairness without imbalance adjustment; cfbb:
    fairness on a chunked (short-term) ledger; fabboo: the full method.

    `chunk` is cfbb's chunk size, checked for every method. `params` go
    to EnsembleParams as they are: any of its fields but the three that
    the method sets (imbalance_adjust, notion and chunk); an omitted one
    keeps its EnsembleParams default.
    """
    if method not in _VARIANTS:
        raise ValueError(f"unknown method {method!r}")
    adjust, needs_notion, chunked = _VARIANTS[method]
    if needs_notion and notion is None:
        raise ValueError(f"method {method!r} requires a fairness notion")
    if not needs_notion and notion is not None:
        raise ValueError(f"method {method!r} does not take a fairness notion")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return EnsembleParams(
        imbalance_adjust=adjust,
        notion=notion,
        chunk=chunk if chunked else None,
        **params,
    )
