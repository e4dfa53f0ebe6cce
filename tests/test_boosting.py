"""Ensemble scoring, the boosting weight recurrence, imbalance adjustment,
boundary window selection and the adjustment gate."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import (BoostedEnsemble, BoundaryWindow, EnsembleParams, Notion,
                    method_params)
from fabboo.boosting import METHODS
from fabboo.data import POSITIVE, NEGATIVE

KINDS = ("num",)


class StubLearner:
    """Fixed-margin learner that records the training weights it receives."""

    def __init__(self, margin=0.0):
        self.margin = margin
        self.weights = []

    def train_weighted(self, x, label, weight):
        self.weights.append(weight)
        return self.margin

    def predict_margin(self, x):
        return self.margin


def stub_ensemble(margins, **kw):
    stubs = [StubLearner(m) for m in margins]
    it = iter(stubs)
    params = EnsembleParams(learners=len(margins), notion=kw.pop("notion", None),
                            **kw)
    ens = BoostedEnsemble(params, KINDS, learner_factory=lambda: next(it))
    return ens, stubs


# ------------------------------------------------------------------- score

def test_empty_learners_score_half():
    ens, _ = stub_ensemble([0.0, 0.0])
    assert ens.score((1.0,)) == 0.5


def test_score_direct_arithmetic():
    ens, _ = stub_ensemble([1.0, 0.0])
    assert ens.score((1.0,)) == pytest.approx(0.75)


def test_score_invariant_under_learner_permutation():
    margins = [0.8, -0.4, 0.1, 0.5]
    scores = set()
    for perm in itertools.permutations(margins):
        ens, _ = stub_ensemble(list(perm))
        scores.add(round(ens.score((0.0,)), 15))
    assert len(scores) == 1


# ---------------------------------------------------------------- classify

def test_neutral_boundary_rules_coincide():
    for notion in (Notion.SP, Notion.EQOP, Notion.PEQ):
        for margin in (-0.6, -0.2, 0.0, 0.2, 0.6):
            ens, _ = stub_ensemble([margin], notion=notion)
            assert ens.theta == 0.5
            assert ens.predict((0.0,), True) == ens.predict((0.0,), False)


def test_sp_boundary_branches():
    ens, _ = stub_ensemble([-0.2], notion=Notion.SP)  # score 0.4
    ens.theta = 0.3
    assert ens.predict((0.0,), True) == POSITIVE
    assert ens.predict((0.0,), False) == NEGATIVE


def test_peq_boundary_branch():
    ens, _ = stub_ensemble([0.2], notion=Notion.PEQ)  # score 0.6
    ens.theta = 0.3
    # negative-class confidence 0.4 exceeds the boundary
    assert ens.predict((0.0,), True) == NEGATIVE
    assert ens.predict((0.0,), False) == POSITIVE


def test_lowering_theta_never_rejects_more():
    ens, _ = stub_ensemble([-0.2], notion=Notion.SP)
    accepted = []
    for theta in (0.5, 0.45, 0.4, 0.35, 0.3):
        ens.theta = theta
        accepted.append(ens.predict((0.0,), True) == POSITIVE)
    assert accepted == sorted(accepted)  # False ... True, monotone


# ------------------------------------------------------------------- train

def test_osboost_weight_recurrence():
    # gamma = 0.1, first learner margin 1.0 and positive label:
    # q1 = 1 - 0.1/2.1, w2 = min(0.9 ** (q1/2), 1)
    ens, stubs = stub_ensemble([1.0, 0.0], gamma=0.1, imbalance_adjust=False)
    ens.train_instance((0.0,), POSITIVE, 0.0)
    assert stubs[0].weights == [1.0]
    q1 = 1.0 - 0.1 / 2.1
    assert q1 == pytest.approx(0.95238, abs=1e-5)
    assert stubs[1].weights[0] == pytest.approx(0.95106, abs=1e-5)
    assert stubs[1].weights[0] == pytest.approx(0.9 ** (q1 / 2))


def test_weight_caps_at_one():
    # a wrong confident learner drives q negative; the cap keeps w at 1
    ens, stubs = stub_ensemble([-1.0, 0.0], gamma=0.1, imbalance_adjust=False)
    ens.train_instance((0.0,), POSITIVE, 0.0)
    assert stubs[1].weights[0] == 1.0


def test_imbalance_adjustment_arithmetic():
    # base w2 = 0.8 is engineered via margin choice below; instead check the
    # division directly with margin 0 -> base w2 = 0.9 ** (q/2)
    ens, stubs = stub_ensemble([0.0, 0.0], gamma=0.1, imbalance_adjust=True)
    ens.train_instance((0.0,), POSITIVE, -0.5)
    base = min((1 - 0.1) ** ((0.0 - 0.1 / 2.1) / 2), 1.0)
    assert stubs[1].weights[0] == pytest.approx(base / 0.5)

    ens2, stubs2 = stub_ensemble([0.0, 0.0], gamma=0.1, imbalance_adjust=True)
    ens2.train_instance((0.0,), NEGATIVE, -0.5)
    base2 = min((1 - 0.1) ** ((0.0 - 0.1 / 2.1) / 2), 1.0)
    assert stubs2[1].weights[0] == pytest.approx(base2 / 1.5)


def test_explicit_adjustment_values():
    # adjusted weight for base 0.8: positive / (1 + ocis), negative / (1 - ocis)
    assert 0.8 / (1.0 + -0.5) == pytest.approx(1.6)
    assert 0.8 / (1.0 - -0.5) == pytest.approx(0.8 / 1.5)


def test_zero_ocis_matches_osboost_exactly():
    plain, plain_stubs = stub_ensemble([0.3, -0.2, 0.1], gamma=0.1,
                                       imbalance_adjust=False)
    adjusted, adj_stubs = stub_ensemble([0.3, -0.2, 0.1], gamma=0.1,
                                        imbalance_adjust=True)
    for label in (POSITIVE, NEGATIVE, POSITIVE):
        plain.train_instance((0.0,), label, 0.0)
        adjusted.train_instance((0.0,), label, 0.0)
    for a, b in zip(plain_stubs, adj_stubs):
        assert a.weights == b.weights


def test_divisor_clamped_on_degenerate_ocis():
    ens, stubs = stub_ensemble([0.0, 0.0], gamma=0.1, imbalance_adjust=True)
    ens.train_instance((0.0,), POSITIVE, -1.0)  # divisor floor 1e-3
    assert stubs[1].weights[0] <= 1000.0


def test_weights_stay_positive_and_bounded():
    rng = random.Random(60)
    ens, stubs = stub_ensemble([rng.uniform(-1, 1) for _ in range(8)],
                               gamma=0.1, imbalance_adjust=True)
    for _ in range(300):
        label = rng.choice((POSITIVE, NEGATIVE))
        ens.train_instance((0.0,), label, rng.uniform(-0.999, 0.999))
    for stub in stubs:
        assert all(0.0 < w <= 1000.0 for w in stub.weights)


# ------------------------------------------------------------------ window

def test_window_sort_and_index():
    w = BoundaryWindow(10)
    for conf, seq in ((0.45, 1), (0.40, 2), (0.30, 3)):
        w.push(conf, seq)
    assert w.kth_highest(2) == 0.40


def test_window_insufficient_entries_rule():
    w = BoundaryWindow(10)
    w.push(0.45, 1)
    assert w.kth_highest(5) == 0.45


def test_window_fifo_eviction():
    w = BoundaryWindow(3)
    for i, conf in enumerate((0.9, 0.1, 0.5, 0.7)):
        w.push(conf, i)
    assert len(w) == 3
    assert [seq for _, seq in w.entries()] == [1, 2, 3]
    assert w.kth_highest(1) == 0.7  # the 0.9 entry was evicted


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), steps=st.lists(st.tuples(
    st.booleans(), st.integers(1, 12),
    st.sampled_from((0.1, 0.25, 0.5)) | st.floats(0.0, 1.0)), max_size=60))
def test_window_matches_list_model(capacity, steps):
    """Random push/expire sequences with increasing seq against a plain
    list: the same entries in arrival order, and the k-th highest
    confidence for every k, the highest when fewer than k are held."""
    w = BoundaryWindow(capacity)
    model = []
    seq = 0
    for push, gap, conf in steps:
        seq += gap
        model = [(c, s) for c, s in model if s > seq - capacity]
        if push:
            w.push(conf, seq)
            model.append((conf, seq))
        else:
            w.expire(seq)
        assert len(w) == len(model)
        assert w.entries() == model
        ranked = sorted((c for c, _ in model), reverse=True)
        for k in range(1, capacity + 2):
            if not ranked:
                with pytest.raises(IndexError):
                    w.kth_highest(k)
            else:
                want = ranked[k - 1] if k <= len(ranked) else ranked[0]
                assert w.kth_highest(k) == want


# ----------------------------------------------------- observe-and-adjust

def drive(ens, events):
    """events: (group, label, score_margin) triples pushed through the
    predict/learn cycle with a single-stub ensemble."""
    stub = ens.learners[0]
    for group, label, margin in events:
        stub.margin = margin
        pred = ens.predict((0.0,), group)
        ens.learn((0.0,), group, label, pred)
    return ens


def test_tolerance_gate_keeps_neutral_boundary():
    ens, _ = stub_ensemble([0.0], notion=Notion.SP, epsilon=10.0)
    rng = random.Random(1)
    events = [(rng.random() < 0.5, rng.choice((POSITIVE, NEGATIVE)),
               rng.uniform(-1, 1)) for _ in range(200)]
    drive(ens, events)
    assert ens.theta == 0.5


def test_discrimination_pulls_theta_from_window():
    ens, _ = stub_ensemble([0.0], notion=Notion.SP, epsilon=1e-4)
    # non-protected accepted, protected rejected at varying confidence
    events = []
    for i in range(30):
        events.append((False, POSITIVE, 0.4))        # accepted non-protected
        events.append((True, POSITIVE, -0.2 - (i % 3) * 0.1))  # rejected
    drive(ens, events)
    assert ens.theta != 0.5
    assert ens.theta in [c for c, _ in ens.window.entries()]


def test_reverse_discrimination_resets_theta():
    ens, _ = stub_ensemble([0.0], notion=Notion.SP, epsilon=1e-4)
    events = []
    for _ in range(30):
        events.append((True, POSITIVE, 0.4))    # protected accepted
        events.append((False, POSITIVE, -0.4))  # non-protected rejected
    drive(ens, events)
    assert ens.theta == 0.5


def test_notion_none_never_touches_boundary():
    ens, _ = stub_ensemble([0.0], notion=None)
    rng = random.Random(5)
    events = [(rng.random() < 0.4, rng.choice((POSITIVE, NEGATIVE)),
               rng.uniform(-1, 1)) for _ in range(300)]
    drive(ens, events)
    assert ens.theta == 0.5
    assert len(ens.window) == 0


def test_eqop_window_filters_by_true_label():
    ens, _ = stub_ensemble([0.0], notion=Notion.EQOP, epsilon=1e9)
    drive(ens, [(True, NEGATIVE, -0.4)])   # true negative: not monitored
    assert len(ens.window) == 0
    drive(ens, [(True, POSITIVE, -0.4)])   # rejected true positive: monitored
    assert len(ens.window) == 1


def test_peq_window_stores_negative_class_confidence():
    ens, _ = stub_ensemble([0.0], notion=Notion.PEQ, epsilon=1e9)
    drive(ens, [(True, NEGATIVE, 0.4)])    # accepted true negative: monitored
    assert len(ens.window) == 1
    (conf, _), = ens.window.entries()
    assert conf == pytest.approx(1.0 - 0.7)  # 1 - score


# ---------------------------------------------------------- method builder

def test_method_flag_combinations():
    assert method_params("osboost", None).imbalance_adjust is False
    assert method_params("imbalance_only", None).imbalance_adjust is True
    ofib = method_params("ofib", Notion.SP)
    assert ofib.imbalance_adjust is False and ofib.chunk is None
    cfbb = method_params("cfbb", Notion.EQOP, chunk=500)
    assert cfbb.imbalance_adjust is True and cfbb.chunk == 500
    with pytest.raises(ValueError):
        method_params("osboost", Notion.SP)
    with pytest.raises(ValueError):
        method_params("fabboo", None)
    with pytest.raises(ValueError):
        method_params("nope", None)
    # README's table of method variants, row by row: imbalance weights,
    # fairness boundary (a notion) and the ledger's chunk (default 1000)
    table = {
        "osboost": (False, None, None),
        "imbalance_only": (True, None, None),
        "ofib": (False, Notion.PEQ, None),
        "cfbb": (True, Notion.PEQ, 1000),
        "fabboo": (True, Notion.PEQ, None),
    }
    assert sorted(METHODS) == sorted(table)
    for method, (adjust, notion, chunk) in table.items():
        params = method_params(method, notion)
        assert params.imbalance_adjust is adjust
        assert params.notion is notion
        assert params.chunk == chunk
