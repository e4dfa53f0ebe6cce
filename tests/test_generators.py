"""Synthetic stream generators: schedules, drift plans, bias injection and
the pinned presets."""

import hashlib
import math
import statistics
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats as scipy_stats

from fabboo import (DriftEvent, GeneratorConfig, GeneratorError, Schedule,
                    Xorshift64Star, generate, preset, with_overrides)
from fabboo.data import Instance, NEGATIVE, POSITIVE
from fabboo.generators import NON_PROTECTED_TOKEN, PRESET_NAMES, PROTECTED_TOKEN
from fabboo.tree import HoeffdingTree, TreeParams


def small_config(**kw):
    base = dict(pos_means=(0.5,), neg_means=(-0.5,), stds=(1.0,),
                ratio=Schedule.constant(0.5), bias=Schedule.constant(0.0),
                length=1000, seed=3)
    base.update(kw)
    return GeneratorConfig(**base)


# --------------------------------------------------------------- schedules

def test_schedule_linear_interpolation():
    s = Schedule(((1.0, 0.0), (11.0, 1.0)))
    assert s.value(1) == 0.0
    assert s.value(6) == pytest.approx(0.5)
    assert s.value(11) == 1.0
    assert s.value(999) == 1.0


def test_unsorted_points_rejected():
    with pytest.raises(GeneratorError):
        Schedule(((5.0, 0.1), (1.0, 0.2)))


# ------------------------------------------------------------------ drifts

def test_sudden_drift_steps():
    ev = DriftEvent("sudden", 100, 0, 2.0)
    assert ev.shift(99) == 0.0
    assert ev.shift(100) == 2.0
    assert ev.shift(10_000) == 2.0


def test_gradual_drift_ramps():
    ev = DriftEvent("gradual", 100, 200, 1.0)
    assert ev.shift(99) == 0.0
    assert ev.shift(200) == pytest.approx(0.5)
    assert ev.shift(300) == 1.0
    assert ev.shift(999) == 1.0


def test_recurrent_drift_returns_exactly():
    ev = DriftEvent("recurrent", 100, 200, 1.0)
    assert ev.shift(200) == pytest.approx(1.0)
    assert ev.shift(250) == pytest.approx(0.5)
    assert ev.shift(300) == 0.0
    assert ev.shift(5000) == 0.0


# -------------------------------------------------------------- generation

def test_empty_stream():
    assert list(generate(small_config(length=0))) == []


def test_determinism_per_seed():
    cfg = small_config(length=200)
    assert list(generate(cfg)) == list(generate(cfg))
    other = with_overrides(cfg, seed=4)
    assert list(generate(cfg)) != list(generate(other))


def test_group_attribute_mirrors_flag():
    for inst in generate(small_config(length=300, bias=Schedule.constant(0.3))):
        assert (inst.features[-1] == "A") == inst.group


def test_zero_bias_equalizes_group_rates():
    cfg = small_config(length=50_000, ratio=Schedule.constant(0.5))
    pos = {True: 0, False: 0}
    seen = {True: 0, False: 0}
    for inst in generate(cfg):
        seen[inst.group] += 1
        pos[inst.group] += inst.label == POSITIVE
    gap = pos[False] / seen[False] - pos[True] / seen[True]
    assert abs(gap) < 0.02


def test_bias_target_realized():
    b = 0.25
    cfg = small_config(length=50_000, ratio=Schedule.constant(0.4),
                       bias=Schedule.constant(b))
    pos = {True: 0, False: 0}
    seen = {True: 0, False: 0}
    for inst in generate(cfg):
        seen[inst.group] += 1
        pos[inst.group] += inst.label == POSITIVE
    gap = pos[False] / seen[False] - pos[True] / seen[True]
    assert gap == pytest.approx(b, abs=0.02)


def test_infeasible_bias_rejected_at_construction():
    with pytest.raises(GeneratorError, match="infeasible"):
        small_config(ratio=Schedule.constant(0.05), bias=Schedule.constant(0.5))


def test_sudden_drift_floors_frozen_tree():
    # oracle: a non-adaptive tree loses >= 20 accuracy points in the 5k
    # instances after a sudden exact concept swap (shift = class gap);
    # far larger shifts recover too fast to show in the 5k average because
    # the displaced concept lands in fresh, quickly relearned regions
    cfg = small_config(pos_means=(0.5,) * 3, neg_means=(-0.5,) * 3,
                       stds=(1.0,) * 3, length=30_000, seed=11,
                       drifts=(DriftEvent("sudden", 25_000, 0, 1.0),))
    tree = HoeffdingTree(cfg.schema().kinds(), TreeParams(adaptive=False))
    correct_before = correct_after = 0
    for inst in generate(cfg):
        pred = POSITIVE if tree.predict_margin(inst.features) >= 0.0 else -1
        if 20_000 < inst.seq <= 25_000:
            correct_before += pred == inst.label
        elif inst.seq > 25_000:
            correct_after += pred == inst.label
        tree.train_weighted(inst.features, inst.label, 1.0)
    acc_before = correct_before / 5000
    acc_after = correct_after / 5000
    assert acc_before - acc_after >= 0.20


# ----------------------------------------------------------------- presets

def test_unknown_preset_rejected():
    with pytest.raises(GeneratorError):
        preset("nope")


def test_paper_synth_class_ratio():
    cfg = preset("paper_synth")
    target = 1.0 / 4.13
    positives = sum(1 for inst in generate(cfg) if inst.label == POSITIVE)
    share = positives / cfg.length
    assert abs(share - target) / target <= 0.02


def test_ratio_fixed_share():
    cfg = preset("ratio_fixed")
    positives = sum(1 for inst in generate(cfg) if inst.label == POSITIVE)
    assert positives / cfg.length == pytest.approx(0.25, abs=0.01)


def test_ratio_schedule_window_fidelity():
    cfg = preset("ratio_fluctuating")
    window = 10_000
    counts = [0] * (cfg.length // window)
    for inst in generate(cfg):
        counts[(inst.seq - 1) // window] += inst.label == POSITIVE
    for w, count in enumerate(counts):
        lo = w * window
        schedule_mean = statistics.fmean(
            cfg.ratio.value(lo + k) for k in range(1, window + 1, 50))
        assert abs(count / window - schedule_mean) <= 0.03


def test_recurrent_preset_returns_to_base_means():
    cfg = preset("drift_recurrent")
    (ev,) = cfg.drifts
    assert ev.shift(ev.start + ev.duration) == 0.0
    assert ev.shift(cfg.length) == 0.0


def test_drift_locality_stationary_outside_interval():
    # disjoint windows of the pre-drift segment: per-attribute two-sample
    # t-tests pass at alpha = 0.01 with Bonferroni correction
    cfg = preset("drift_sudden")
    a, b = [], []
    for inst in generate(cfg):
        if inst.seq > 20_000:
            break
        (a if inst.seq <= 10_000 else b).append(inst)
    d = len(cfg.pos_means)
    alpha = 0.01 / (2 * d)
    for label in (1, -1):
        for j in range(d):
            xs = [i.features[j] for i in a if i.label == label]
            ys = [i.features[j] for i in b if i.label == label]
            _, p = scipy_stats.ttest_ind(xs, ys, equal_var=False)
            assert p > alpha, f"class {label} attribute {j} drifted: p={p}"


def test_length_override_trims_drifts():
    cfg = preset("paper_synth")
    short = with_overrides(cfg, length=30_000)
    assert short.length == 30_000
    assert all(ev.start <= 30_000 for ev in short.drifts)


# ------------------------------------------------------ reference oracle

def reference_generate(config):
    """generate() as written before its per-stream work was hoisted: every
    arrival evaluates both schedules, the drift sum and the class means,
    and draws through Xorshift64Star."""
    rng = Xorshift64Star(config.seed)
    r = config.protected_share
    pos_means = config.pos_means
    neg_means = config.neg_means
    stds = config.stds
    d = len(pos_means)
    drifts = config.drifts
    for t in range(1, config.length + 1):
        p = config.ratio.value(t)
        b = config.bias.value(t)
        positive = rng.uniform() < p
        a = p - (1.0 - r) * b
        if positive:
            p_z = a * r / p if p > 0.0 else 0.0
        else:
            p_z = (1.0 - a) * r / (1.0 - p) if p < 1.0 else 0.0
        group = rng.uniform() < p_z
        shift = 0.0
        for ev in drifts:
            shift += ev.shift(t)
        feats = []
        if positive:
            for j in range(d):
                mu = pos_means[j] - shift * (pos_means[j] - neg_means[j])
                feats.append(rng.normal(mu, stds[j]))
        else:
            for j in range(d):
                mu = neg_means[j] + shift * (pos_means[j] - neg_means[j])
                feats.append(rng.normal(mu, stds[j]))
        feats.append(PROTECTED_TOKEN if group else NON_PROTECTED_TOKEN)
        yield Instance(tuple(feats), group,
                       POSITIVE if positive else NEGATIVE, t)


def assert_same_stream(config):
    for got, want in zip_longest(generate(config), reference_generate(config)):
        assert got == want


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_the_reference(name):
    """Whole streams, cut 1,000 arrivals past the end of the last drift
    (5,000 arrivals without drifts), at two seeds."""
    config = preset(name)
    cut = max((ev.start + ev.duration for ev in config.drifts),
              default=4000) + 1000
    for seed in (1, 2):
        assert_same_stream(with_overrides(config, length=cut, seed=seed))


# SHA-256 of repr(preset(name)): every field of every preset, drift
# events and schedule points included (the test above checks generate()
# against whatever preset() returns, so it pins no preset's config)
PRESET_DIGESTS = {
    "paper_synth":
        "d5b52b6e712caf39ca25037f8e7e4a44597dae6043c1ca3c924611d2ffc4381d",
    "ratio_fixed":
        "d77c61e8926f77d4372c38647318553b4e69e6d96590d1f839e1cbd2c62101e4",
    "ratio_increasing":
        "c32a368bdc590332bb69def7996329379fb1ce9a88b3bf74646db4796b3dbbfb",
    "ratio_decreasing":
        "e5099d00132bd1a20a6a2e4f997a7ade11d8ef3e8a78a0fe5be52a8b5ef6c63d",
    "ratio_fluctuating":
        "63d2341575edb6f165f76221b9673bd8b221aaec4b93e4d482d331559cc9bcf0",
    "drift_sudden":
        "c84ebefb11eadbd569d11af715d373d17892947f1f3ef7c0be81c0956628f85d",
    "drift_gradual":
        "9290ed96ef8bea93f22b5a0790644751ee9c4b713cea6eedbce13a66a8f83fde",
    "drift_recurrent":
        "ee73a53df5f88e83f670ffb39e0711186c64ee7ba160c77a9b1a747674ff6834",
}


def test_every_preset_config_is_pinned():
    assert tuple(PRESET_DIGESTS) == PRESET_NAMES
    for name, digest in PRESET_DIGESTS.items():
        config = repr(preset(name))
        assert hashlib.sha256(config.encode()).hexdigest() == digest, config


def _schedule(values):
    return st.one_of(
        values.map(Schedule.constant),
        st.lists(st.tuples(st.integers(1, 60), values), min_size=2,
                 max_size=4).map(lambda pts: Schedule(tuple(
                     (float(t), v) for t, v in sorted(pts, key=lambda p: p[0])))))


_DRIFT = st.builds(
    lambda kind, start, duration, magnitude: DriftEvent(
        kind, start, 0 if kind == "sudden" else duration, magnitude),
    st.sampled_from(("sudden", "gradual", "recurrent")),
    st.integers(1, 40), st.integers(1, 30), st.floats(-1.5, 1.5))


@st.composite
def small_configs(draw):
    d = draw(st.integers(1, 4))
    means = st.floats(-3.0, 3.0)
    length = draw(st.integers(0, 50))
    drifts = [ev for ev in draw(st.lists(_DRIFT, max_size=4))
              if ev.start <= max(length, 1)]
    try:
        return GeneratorConfig(
            pos_means=tuple(draw(means) for _ in range(d)),
            neg_means=tuple(draw(means) for _ in range(d)),
            stds=tuple(draw(st.floats(0.1, 3.0)) for _ in range(d)),
            ratio=draw(_schedule(st.one_of(st.sampled_from((0.0, 1.0)),
                                           st.floats(0.0, 1.0)))),
            bias=draw(_schedule(st.one_of(st.just(0.0), st.floats(-0.3, 0.3)))),
            length=length,
            seed=draw(st.integers(0, 2**64 - 1)),
            drifts=tuple(drifts))
    except GeneratorError:   # a bias the ratio cannot carry
        assume(False)


@settings(max_examples=300, deadline=None)
@given(small_configs())
@example(small_config(length=0))
@example(small_config(length=20, pos_means=(1.0, 0.5, 0.2),
                      neg_means=(-1.0, 0.0, 0.1), stds=(1.0, 2.0, 0.5),
                      drifts=(DriftEvent("sudden", 5, 0, 1.0),)))
def test_small_configs_match_the_reference(config):
    """Odd attribute counts carry the Box-Muller spare across instances;
    events overlap and come in any order; ratios reach 0 and 1."""
    assert_same_stream(config)
