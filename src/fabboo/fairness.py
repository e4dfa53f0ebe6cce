"""Group/outcome counters and the cumulative parity-based fairness metrics.

The ledger keeps lifetime counts of prediction events in one block of
counts per group, `z` (protected) and `o` (non-protected). A block counts
the group's arrivals, those labelled positive and negative, its positive
predictions, true positives and true negatives; `record` updates the
arriving instance's block along one code path. Three metrics are derived
from the two blocks, each a rate difference "non-protected minus
protected" in [-1, 1], smoothed by adding `smoothing` to every
denominator:

    statistical parity   positive-prediction rate difference
    equal opportunity    true-positive-rate difference
    predictive equality  true-negative-rate difference

`RULES` defines each notion in one row, a `NotionRule`: the ledger reads
its counts, the ensemble (boosting.py) the rest.

`required_flips` inverts each metric for the number of protected decisions
that would have to flip to restore parity right now. It uses the raw
(unsmoothed) counts and exact integer arithmetic:

    floor(base_z * favorable_zbar / base_zbar - favorable_z)

and may be negative when the protected group is ahead (reverse
discrimination).

In chunked mode both blocks reset every `chunk_size` recorded events, so
the metrics reflect only the current chunk (short-term monitoring).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from operator import attrgetter, ge, gt

from .data import NEGATIVE, POSITIVE


class Notion(Enum):
    SP = "sp"
    EQOP = "eqop"
    PEQ = "peq"


class UndefinedRateError(Exception):
    """The non-protected conditioning count is zero; callers must treat
    this as 'no adjustment'."""


class GroupCounts:
    """One group's outcome counts: arrivals, positive and negative labels,
    positive predictions, true positives and true negatives."""

    __slots__ = ("seen", "pos", "neg", "pred_pos", "tp", "tn")

    def __init__(self):
        self.seen = self.pos = self.neg = 0
        self.pred_pos = self.tp = self.tn = 0


# label: the true label the rates condition on, None for every arrival;
# favourable: the prediction they count; passes(confidence, theta): the
# test of a protected confidence in the favourable prediction against
# theta; counts(group): that group's (favourable, base) counts
NotionRule = namedtuple("NotionRule", "label favourable passes counts")

# PEQ's confidence must lie strictly above theta, so that at the neutral
# 0.5 every notion decides a protected instance as the plain s >= 0.5 does
RULES = {
    Notion.SP: NotionRule(None, POSITIVE, ge, attrgetter("pred_pos", "seen")),
    Notion.EQOP: NotionRule(POSITIVE, POSITIVE, ge, attrgetter("tp", "pos")),
    Notion.PEQ: NotionRule(NEGATIVE, NEGATIVE, gt, attrgetter("tn", "neg")),
}


class FairnessLedger:
    __slots__ = ("smoothing", "chunk_size", "_in_chunk", "z", "o")

    def __init__(self, smoothing: float = 1.0, chunk_size: int | None = None):
        if not 0.0 <= smoothing < math.inf:
            raise ValueError("smoothing must be finite and >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.smoothing = smoothing
        self.chunk_size = chunk_size
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._in_chunk = 0
        self.z = GroupCounts()
        self.o = GroupCounts()

    def record(self, group: bool, true_label: int, predicted_label: int) -> None:
        if self._in_chunk == self.chunk_size:   # never when unchunked
            self._reset_counters()
        self._in_chunk += 1
        c = self.z if group else self.o
        c.seen += 1
        if true_label == POSITIVE:
            c.pos += 1
            if predicted_label == POSITIVE:
                c.pred_pos += 1
                c.tp += 1
        else:
            c.neg += 1
            if predicted_label == POSITIVE:
                c.pred_pos += 1
            else:
                c.tn += 1

    def _rates(self, notion: Notion) -> tuple[int, int, int, int]:
        """(favorable_zbar, base_zbar, favorable_z, base_z) raw counts."""
        counts = RULES[notion].counts
        return counts(self.o) + counts(self.z)

    def value(self, notion: Notion) -> float:
        """Smoothed cumulative rate difference, non-protected minus protected.

        With smoothing 0 a zero-base rate is defined as 0.
        """
        fav_o, base_o, fav_z, base_z = self._rates(notion)
        l = self.smoothing
        rate_o = fav_o / (base_o + l) if base_o + l > 0 else 0.0
        rate_z = fav_z / (base_z + l) if base_z + l > 0 else 0.0
        return rate_o - rate_z

    def required_flips(self, notion: Notion) -> int:
        """Protected outcomes to flip for parity now; exact integer floor."""
        fav_o, base_o, fav_z, base_z = self._rates(notion)
        if base_o == 0:
            raise UndefinedRateError(f"no non-protected base events for {notion.value}")
        # floor(base_z * fav_o / base_o - fav_z) without float rounding
        return (base_z * fav_o - fav_z * base_o) // base_o
