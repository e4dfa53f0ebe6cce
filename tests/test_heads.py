"""k boundaries on one ensemble (`run_heads`): training reads no boundary,
so every pair of one training class (the fields of `boosting.TRAINING`)
can decide on the scores of one ensemble that trains once per arrival.

Each head must get what its own `run_prequential` run gets: the same
trace row for row, the same summary (wall_s aside), and an ensemble that
ends with the same trees, on the serial path and through the pipeline.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import (BoostedEnsemble, EvalConfig, Notion, generate,
                    method_params, preset, run_heads, run_prequential,
                    with_overrides)
from fabboo import parallel
from fabboo.boosting import TRAINING

from conftest import forks

# the pairs of each training class: the methods share learners, gamma and
# lambda here and differ only in the imbalance adjustment
CLASSES = {
    True: [("fabboo", n) for n in Notion] + [("cfbb", n) for n in Notion]
          + [("imbalance_only", None)],
    False: [("ofib", n) for n in Notion] + [("osboost", None)],
}
LEARNERS = 3
PIPELINE_AT = 150


@st.composite
def heads_case(draw):
    adjust = draw(st.booleans())
    pairs = draw(st.lists(st.sampled_from(CLASSES[adjust]), min_size=1,
                          max_size=4))
    heads = []
    for m, n in pairs:
        params = method_params(m, n, learners=LEARNERS,
                               chunk=draw(st.integers(20, 400)),
                               window=draw(st.integers(1, 300)),
                               epsilon=draw(st.sampled_from(
                                   [0.0, 1e-4, 0.02, 0.1])))
        config = EvalConfig(stride=draw(st.integers(1, 7)),
                            trace_notion=n or Notion.SP)
        heads.append((params, config, None))
    # paper_synth moves theta within a few hundred arrivals
    gen = with_overrides(preset(draw(st.sampled_from(
        ["paper_synth", "ratio_increasing", "drift_sudden"]))),
        length=draw(st.integers(PIPELINE_AT + 1, 1500)),
        seed=draw(st.integers(1, 10_000)))
    return heads, gen


def check_heads(heads, gen, cpus):
    model = BoostedEnsemble(heads[0][0], gen.schema().kinds())
    with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", PIPELINE_AT), \
            forks() as forked:
        results = run_heads(model, generate(gen), heads, cpus=cpus)
    assert len(forked) == (cpus > 1)
    trees = [l.describe() for l in model.learners]
    for (params, config, _), (trace, summary) in zip(heads, results):
        alone = BoostedEnsemble(params, gen.schema().kinds())
        want, want_summary = run_prequential(alone, generate(gen), config,
                                             cpus=1)
        assert list(trace) == list(want)
        assert replace(summary, wall_s=0.0) == \
            replace(want_summary, wall_s=0.0)
        assert [l.describe() for l in alone.learners] == trees


@settings(max_examples=25, deadline=None)
@given(heads_case())
def test_heads_match_their_own_runs(case):
    check_heads(*case, cpus=1)


@settings(max_examples=12, deadline=None)
@given(heads_case())
def test_pipelined_heads_match_their_own_runs(case):
    check_heads(*case, cpus=2)


@pytest.mark.parametrize("field, value", [
    ("learners", LEARNERS + 1), ("gamma", 0.2), ("decay", 0.5),
    ("imbalance_adjust", False),
])
def test_a_head_that_trains_differently_is_refused(field, value):
    assert field in TRAINING
    gen = with_overrides(preset("ratio_fixed"), length=50, seed=1)
    params = method_params("fabboo", Notion.SP, learners=LEARNERS)
    model = BoostedEnsemble(params, gen.schema().kinds())
    heads = [(params, EvalConfig(), None),
             (replace(params, **{field: value}), EvalConfig(), None)]
    pulled = []
    source = (pulled.append(inst) or inst for inst in generate(gen))
    with pytest.raises(ValueError, match="must train as its ensemble"):
        run_heads(model, source, heads)
    assert pulled == []
