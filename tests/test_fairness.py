"""Ledger counting, the three cumulative metrics, and the flip counts,
checked against an independent brute-force oracle on raw event lists."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import FairnessLedger, Notion, UndefinedRateError
from fabboo.data import POSITIVE, NEGATIVE


# ----------------------------------------------------------------- oracle

def brute_force(events, notion, smoothing):
    """Recount every event and evaluate the metric definition directly."""
    def rate_counts(group):
        if notion is Notion.SP:
            base = sum(1 for g, _, _ in events if g == group)
            fav = sum(1 for g, _, p in events if g == group and p == POSITIVE)
        elif notion is Notion.EQOP:
            base = sum(1 for g, y, _ in events if g == group and y == POSITIVE)
            fav = sum(1 for g, y, p in events
                      if g == group and y == POSITIVE and p == POSITIVE)
        else:
            base = sum(1 for g, y, _ in events if g == group and y == NEGATIVE)
            fav = sum(1 for g, y, p in events
                      if g == group and y == NEGATIVE and p == NEGATIVE)
        return fav, base

    fav_o, base_o = rate_counts(False)
    fav_z, base_z = rate_counts(True)
    value = fav_o / (base_o + smoothing) - fav_z / (base_z + smoothing)
    if base_o == 0:
        flips = None
    else:
        exact = Fraction(base_z) * Fraction(fav_o, base_o) - fav_z
        flips = exact.__floor__()
    return value, flips


LABELS = st.sampled_from((POSITIVE, NEGATIVE))
# (group, true label, predicted label) streams
EVENTS = st.lists(st.tuples(st.booleans(), LABELS, LABELS), max_size=40)


def random_events(rng, n):
    return [(rng.random() < 0.4, rng.choice((POSITIVE, NEGATIVE)),
             rng.choice((POSITIVE, NEGATIVE))) for _ in range(n)]


# ------------------------------------------------------------------ record

def test_record_protected_true_positive():
    led = FairnessLedger()
    led.record(True, POSITIVE, POSITIVE)
    z = led.z
    assert (z.seen, z.pos, z.pred_pos, z.tp) == (1, 1, 1, 1)
    assert z.tn == 0 and led.o.seen == 0


def test_record_nonprotected_false_positive():
    led = FairnessLedger()
    led.record(False, NEGATIVE, POSITIVE)
    o = led.o
    assert (o.seen, o.neg, o.pred_pos) == (1, 1, 1)
    assert o.tn == 0 and o.tp == 0


def test_chunked_reset_on_boundary():
    led = FairnessLedger(chunk_size=3)
    for _ in range(3):
        led.record(True, POSITIVE, POSITIVE)
    led.record(False, NEGATIVE, NEGATIVE)
    # fourth record lands in a fresh chunk
    assert led.z.seen == 0 and led.o.seen == 1 and led.o.tn == 1


# ------------------------------------------------------------------ values

def test_fresh_ledger_is_fair():
    led = FairnessLedger()
    for notion in Notion:
        assert led.value(notion) == 0.0


def test_sp_example_value():
    led = FairnessLedger(smoothing=1.0)
    for accepted in range(10):
        led.record(False, POSITIVE, POSITIVE if accepted < 5 else NEGATIVE)
    for accepted in range(10):
        led.record(True, POSITIVE, POSITIVE if accepted < 2 else NEGATIVE)
    assert led.value(Notion.SP) == pytest.approx(5 / 11 - 2 / 11)


def test_symmetric_groups_all_zero():
    led = FairnessLedger()
    for group in (True, False):
        for y, p in ((POSITIVE, POSITIVE), (POSITIVE, NEGATIVE),
                     (NEGATIVE, NEGATIVE), (NEGATIVE, POSITIVE)):
            led.record(group, y, p)
    for notion in Notion:
        assert led.value(notion) == 0.0


# ------------------------------------------------------------------- flips

def _ledger_with(fav_o, base_o, fav_z, base_z, notion):
    led = FairnessLedger()
    if notion is Notion.SP:
        make = lambda p: (POSITIVE, POSITIVE if p else NEGATIVE)
    elif notion is Notion.EQOP:
        make = lambda p: (POSITIVE, POSITIVE if p else NEGATIVE)
    else:
        make = lambda p: (NEGATIVE, NEGATIVE if p else POSITIVE)
    for group, fav, base in ((False, fav_o, base_o), (True, fav_z, base_z)):
        for i in range(base):
            y, p = make(i < fav)
            led.record(group, y, p)
    return led


def test_flips_sp_example():
    led = _ledger_with(50, 100, 30, 100, Notion.SP)
    assert led.required_flips(Notion.SP) == 20


def test_flips_parity_is_zero():
    led = _ledger_with(40, 80, 20, 40, Notion.SP)
    assert led.required_flips(Notion.SP) == 0


def test_flips_eqop_negative_branch():
    led = _ledger_with(30, 40, 18, 20, Notion.EQOP)
    assert led.required_flips(Notion.EQOP) == -3


def test_flips_undefined_rate():
    led = FairnessLedger()
    led.record(True, POSITIVE, NEGATIVE)
    with pytest.raises(UndefinedRateError):
        led.required_flips(Notion.SP)


# -------------------------------------------------------------- properties

def test_oracle_equivalence_random_event_streams():
    rng = random.Random(20240817)
    for trial in range(300):
        events = random_events(rng, rng.randrange(1, 60))
        led = FairnessLedger(smoothing=1.0)
        for g, y, p in events:
            led.record(g, y, p)
        for notion in Notion:
            expect_value, expect_flips = brute_force(events, notion, 1.0)
            assert led.value(notion) == expect_value
            if expect_flips is None:
                continue
            _, base_o, _, _ = led._rates(notion)
            if base_o > 0:
                assert led.required_flips(notion) == expect_flips


def test_accepting_protected_never_raises_sp():
    rng = random.Random(7)
    for _ in range(200):
        led = FairnessLedger()
        for g, y, p in random_events(rng, 30):
            led.record(g, y, p)
        before = led.value(Notion.SP)
        led.record(True, POSITIVE, POSITIVE)
        assert led.value(Notion.SP) <= before


def test_values_bounded():
    rng = random.Random(99)
    for _ in range(200):
        led = FairnessLedger(smoothing=rng.choice((0.0, 0.5, 1.0, 3.0)))
        for g, y, p in random_events(rng, rng.randrange(0, 40)):
            led.record(g, y, p)
        for notion in Notion:
            assert abs(led.value(notion)) <= 1.0


def test_parity_repair_leaves_floor_residual():
    rng = random.Random(4242)
    repaired = 0
    for _ in range(500):
        led = FairnessLedger()
        for g, y, p in random_events(rng, rng.randrange(4, 50)):
            led.record(g, y, p)
        o, z = led.o, led.z
        if o.seen == 0 or z.seen == 0:
            continue
        n = led.required_flips(Notion.SP)
        if n <= 0 or z.pred_pos + n > z.seen:
            continue
        z.pred_pos += n  # grant exactly n extra favorable outcomes
        raw = o.pred_pos / o.seen - z.pred_pos / z.seen
        assert 0.0 <= raw < 1.0 / z.seen
        repaired += 1
    assert repaired > 50  # the property was actually exercised


@settings(max_examples=300, deadline=None)
@given(events=EVENTS, chunk_size=st.sampled_from((None, *range(1, 9))),
       smoothing=st.sampled_from((0.5, 1.0, 3.0)))
def test_ledger_matches_oracle_since_last_reset(events, chunk_size, smoothing):
    """After every record, each value and flip count equals the oracle's
    over the events of the current chunk (all of them when unchunked)."""
    led = FairnessLedger(smoothing, chunk_size)
    for k, event in enumerate(events, 1):
        led.record(*event)
        start = 0 if chunk_size is None else (k - 1) // chunk_size * chunk_size
        for notion in Notion:
            expect_value, expect_flips = brute_force(events[start:k], notion,
                                                     smoothing)
            assert led.value(notion) == expect_value
            if expect_flips is None:
                with pytest.raises(UndefinedRateError):
                    led.required_flips(notion)
            else:
                assert led.required_flips(notion) == expect_flips


@settings(max_examples=300, deadline=None)
@given(events=EVENTS,
       smoothing=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_positive_value_means_flips_are_defined(events, smoothing):
    """The boundary asks for the flips only when the value exceeds
    epsilon >= 0, so a positive value must never meet an undefined rate."""
    led = FairnessLedger(smoothing)
    for event in events:
        led.record(*event)
        for notion in Notion:
            if led.value(notion) > 0:
                led.required_flips(notion)
