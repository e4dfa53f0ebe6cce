"""Behaviour lock: SHA-256 digests of the stride-1 trace.csv of every valid
method x notion pair at N=5, on short cuts of four presets.

Any change to the prediction stream, the boundary, the metrics or the trace
format moves a digest. The drift cut moves the `drift_sudden` swap to arrival
1,000 so that subtree promotions happen inside 3,000 arrivals; the test
asserts how many each cut makes, so the promotion path is pinned too. Every
digest is checked twice: on one CPU, where the run is serial, and with the
boosting pipeline forked at arrival 500.

The digests are computed per training class. Training reads no boundary,
so the pairs that agree on the fields of `boosting.TRAINING` train the
same trees; here they differ only in the imbalance adjustment, which
makes two classes. Each (cut, class, path) trains one ensemble and runs
every pair of the class as a head on its scores (`run_heads`): 16
trainings for the 88 digests, each head's trace that of the pair's own
run.

A `fabboo run` on a CSV export is pinned the same way, through the CLI's
load and shuffle: each shuffle's trace in shuffled order, run serially and
with one pooled helper, and the trace in stored order.

The digests lock behaviour; a change that alters outputs on purpose
re-records them, in a commit that changes nothing else, and may move only
the digests its kind of change reaches:

- a tree-drift change (drift detection, alternates, promotion): only the
  digests of cuts that promote, which `PROMOTIONS` names (today the 11 of
  `drift_sudden`);
- a boundary or ledger change: only the 36 digests that have a notion
  (the 9 `fabboo`, `ofib` and `cfbb` pairs of each of the 4 cuts), plus
  the 3 `CSV_DIGESTS`; the 8 `osboost` and `imbalance_only` digests stay;
- a generator extension (a new preset or generator option): none; it adds
  digests for what it adds and lists them.
"""

import hashlib
from dataclasses import replace
from unittest import mock

import pytest

from fabboo import (BoostedEnsemble, EvalConfig, Notion, generate,
                    method_params, preset, run_heads, save_csv,
                    with_overrides, write_trace)
from fabboo import cli, parallel

from conftest import forks

PAIRS = [(m, n) for m in ("fabboo", "ofib", "cfbb")
         for n in (Notion.SP, Notion.EQOP, Notion.PEQ)] + \
        [("osboost", None), ("imbalance_only", None)]


def _drift_cut():
    gen = preset("drift_sudden")
    gen = replace(gen, drifts=tuple(replace(ev, start=1_000)
                                    for ev in gen.drifts))
    return with_overrides(gen, length=3_000, seed=1)


CUTS = {
    "paper_synth": lambda: with_overrides(preset("paper_synth"), length=2_000,
                                          seed=1),
    "ratio_fixed": lambda: with_overrides(preset("ratio_fixed"), length=2_000,
                                          seed=1),
    "drift_sudden": _drift_cut,
    # long enough for the imbalance-adjusted methods to predict positives,
    # so that fabboo, cfbb, ofib and imbalance_only separate
    "ratio_fixed_5k": lambda: with_overrides(preset("ratio_fixed"),
                                             length=5_000, seed=1),
}

DIGESTS = {
    "drift_sudden/fabboo/sp":
        "f94e7c40d6f5f785a7fbca7bfc3882c9001e747726f6b547409fdab58dcb3e99",
    "drift_sudden/fabboo/eqop":
        "4d89469ec530705accf6b91ba8462fc17f09802f29b0016b31c66e8a79553852",
    "drift_sudden/fabboo/peq":
        "6fc9968cad8778417bbb82cf79d5557b10f23353cceba112a6c55b841ec031d0",
    "drift_sudden/ofib/sp":
        "bfa8d95b603516bbcb7404c877941ab843714d0a3d9b1ec3669395ae24613291",
    "drift_sudden/ofib/eqop":
        "86c2d6545ba5f5ed1120f8a876fd4a533124358760a7522da0fd0aa946fdd690",
    "drift_sudden/ofib/peq":
        "4309dedaa82de968166c7bcccbd4c50a2af297169f31321b6c710f8f4ddb4f0f",
    "drift_sudden/cfbb/sp":
        "ea89732270f5847c2853614266abd13aa57fdae01b459c4ff237875cdc5f0143",
    "drift_sudden/cfbb/eqop":
        "82ab27cdc38aeb36b4d53ea268642e160638e43e9f0e39389ef77f44860cb27f",
    "drift_sudden/cfbb/peq":
        "914ba66668262e2860c53b5919f36c66412a84ccd2f4918fea7c16a2ec1b5c15",
    "drift_sudden/osboost/none":
        "a969f6c07bc70df29999b6fc9d23d12e1d2a34ba58104d6fd6cb88bb69a9a5bc",
    "drift_sudden/imbalance_only/none":
        "b72e5efa08a5dc55f149ae9e2d53f4ffeda8a240a39b4d46d1fd827f61cd8160",
    "paper_synth/fabboo/sp":
        "e447e5310f5f9d9809da68a387d57c3febbbba0d342f8d9065883165a5570537",
    "paper_synth/fabboo/eqop":
        "02ddff0fc1bfa900ba14c0ff58cd465add56d125338a0b13136672ffb73a9716",
    "paper_synth/fabboo/peq":
        "f36e0bd200dee10da094094db9e140ec8f77c24e78f5ac65ceda2c1d31c810bf",
    "paper_synth/ofib/sp":
        "6c103d7d9a6196f4c1047e1ab311bbf5ea6266c14c5ffbcb3d44ce293e3695ef",
    "paper_synth/ofib/eqop":
        "24a32084a58bbb2de29ee8a7b3399951ecefc507a15613685e3c972689f2aaaa",
    "paper_synth/ofib/peq":
        "682a7878709a641b99bcbcc0df02a82850939aaa0b36e249bc936a55e380a667",
    "paper_synth/cfbb/sp":
        "dd64ad78ce333824f0f8040e22677ec8cf5b6b0e8d2890bc77ba913f25194256",
    "paper_synth/cfbb/eqop":
        "02ddff0fc1bfa900ba14c0ff58cd465add56d125338a0b13136672ffb73a9716",
    "paper_synth/cfbb/peq":
        "a1661a6dd6a56333722fd2b4b77e0e02d9118b688a230fae259681d0763c744a",
    "paper_synth/osboost/none":
        "cb086e01ce984d96d60d3dc889f8ee745371bfa041743768df115bb051bdd434",
    "paper_synth/imbalance_only/none":
        "71450288ef46f093518ac2b8b83bc30f3ebe52a8aead45c046788f24332da74f",
    "ratio_fixed/fabboo/sp":
        "36ef3a0d3c78974024192ea10785f035d95f3a89e70ddda54591eef4fd28bd8c",
    "ratio_fixed/fabboo/eqop":
        "96cd7b7fde2797d7afe5bd0341e1a595d3b7af770de83ad50dbedfeda13322e0",
    "ratio_fixed/fabboo/peq":
        "9a00f93e30d96dc5e0853af1055fba03e00d0c30dd71f0b31bf91eaba2f686e2",
    "ratio_fixed/ofib/sp":
        "36ef3a0d3c78974024192ea10785f035d95f3a89e70ddda54591eef4fd28bd8c",
    "ratio_fixed/ofib/eqop":
        "96cd7b7fde2797d7afe5bd0341e1a595d3b7af770de83ad50dbedfeda13322e0",
    "ratio_fixed/ofib/peq":
        "9a00f93e30d96dc5e0853af1055fba03e00d0c30dd71f0b31bf91eaba2f686e2",
    "ratio_fixed/cfbb/sp":
        "36ef3a0d3c78974024192ea10785f035d95f3a89e70ddda54591eef4fd28bd8c",
    "ratio_fixed/cfbb/eqop":
        "96cd7b7fde2797d7afe5bd0341e1a595d3b7af770de83ad50dbedfeda13322e0",
    "ratio_fixed/cfbb/peq":
        "9a00f93e30d96dc5e0853af1055fba03e00d0c30dd71f0b31bf91eaba2f686e2",
    "ratio_fixed/osboost/none":
        "36ef3a0d3c78974024192ea10785f035d95f3a89e70ddda54591eef4fd28bd8c",
    "ratio_fixed/imbalance_only/none":
        "36ef3a0d3c78974024192ea10785f035d95f3a89e70ddda54591eef4fd28bd8c",
    "ratio_fixed_5k/fabboo/sp":
        "c63c084681085931475a0e730a4232bace570e4613923ec1e9120394bc34aa04",
    "ratio_fixed_5k/fabboo/eqop":
        "c0feebd9945fd5cb3f20092b21b398ec9e51e6e6e6d33ded88defb395dc730cb",
    "ratio_fixed_5k/fabboo/peq":
        "dab7dbfe4e9d0e75e303997d116b7bdabb57b5f0b40d91532ee9a8c8ba44a0a3",
    "ratio_fixed_5k/ofib/sp":
        "3a106043e35938108b9c8bb4bb7b8f41bc91d433cdae7b86b82410881c239915",
    "ratio_fixed_5k/ofib/eqop":
        "a87cfa3d41da9739988334f8c559da91cca4aa18d2591788b6f73e74ca2a9fc4",
    "ratio_fixed_5k/ofib/peq":
        "8a8b78b0cc070e8aff45436431a465e1c0f5c1b01b6781f358a3c6ab06b62d10",
    "ratio_fixed_5k/cfbb/sp":
        "7ff042d0c51d0ed7517ef7e7d17e78d39583ec966bd00f8fa6e8345cb71e7ab6",
    "ratio_fixed_5k/cfbb/eqop":
        "4556ba8407e0ea1a0c44228c1af7797477f2f39e09becf69258b63ab008d1bd2",
    "ratio_fixed_5k/cfbb/peq":
        "dab7dbfe4e9d0e75e303997d116b7bdabb57b5f0b40d91532ee9a8c8ba44a0a3",
    "ratio_fixed_5k/osboost/none":
        "3a106043e35938108b9c8bb4bb7b8f41bc91d433cdae7b86b82410881c239915",
    "ratio_fixed_5k/imbalance_only/none":
        "22b688cbca371b196d7205677a6aeb1fbf72d0d8ad5b7416921de4e8168ac085",
}


# subtree promotions of the N=5 ensemble, summed over its learners, the
# same for every pair of a cut: a drift-detector change shows here which
# cuts it made adaptive
PROMOTIONS = {"paper_synth": 0, "ratio_fixed": 0, "drift_sudden": 5,
              "ratio_fixed_5k": 0}


@pytest.fixture(scope="module")
def class_runs():
    """Digests, promotions and forked helpers of each (cut, imbalance
    adjustment, CPUs) run, made when a test first asks for one."""
    return {}


def run_cut(runs, cut, method, notion, tmp_path, cpus=1):
    """Run one pair on one cut on `cpus` CPUs, as a head of its training
    class's run, which `runs` keeps; returns (sha256 of its stride-1
    trace.csv, total subtree promotions, pids of the helpers the class's
    run forked)."""
    params = method_params(method, notion, learners=5)
    run_key = (cut, params.imbalance_adjust, cpus)
    if run_key not in runs:
        pairs = [(m, n) for m, n in PAIRS
                 if method_params(m, n).imbalance_adjust
                 == params.imbalance_adjust]
        gen = CUTS[cut]()
        model = BoostedEnsemble(params, gen.schema().kinds())
        heads = [(method_params(m, n, learners=5),
                  EvalConfig(trace_notion=n or Notion.SP), None)
                 for m, n in pairs]
        with forks() as forked:
            results = run_heads(model, generate(gen), heads, cpus=cpus)
        digests = {}
        for (m, n), (trace, _) in zip(pairs, results):
            path = tmp_path / f"{m}-{n.value if n else 'none'}.csv"
            write_trace(path, trace)
            digests[m, n] = hashlib.sha256(path.read_bytes()).hexdigest()
        promotions = sum(t.replacements for t in model.learners)
        runs[run_key] = digests, promotions, forked
    digests, promotions, forked = runs[run_key]
    return digests[method, notion], promotions, forked


PAIR_IDS = [f"{m}-{n.value if n else 'none'}" for m, n in PAIRS]


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("method,notion", PAIRS, ids=PAIR_IDS)
def test_trace_digest(tmp_path, class_runs, cut, method, notion):
    key = f"{cut}/{method}/{notion.value if notion else 'none'}"
    digest, promotions, _ = run_cut(class_runs, cut, method, notion,
                                    tmp_path)
    assert digest == DIGESTS[key], key
    assert promotions == PROMOTIONS[cut], key


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("method,notion", PAIRS, ids=PAIR_IDS)
def test_pipelined_trace_digest(tmp_path, class_runs, cut, method, notion):
    key = f"{cut}/{method}/{notion.value if notion else 'none'}"
    with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", 500):
        digest, promotions, forked = run_cut(class_runs, cut, method, notion,
                                             tmp_path, cpus=2)
    assert len(forked) == 1
    assert digest == DIGESTS[key], key
    assert promotions == PROMOTIONS[cut], key


# ------------------------------------------------------------- CSV runs

# the first CSV_ROWS rows of paper_synth (seed 1) as a CSV, run by
# `fabboo run` at N=5, stride 1: each shuffle's trace.csv digest. The
# pooled run forks one helper for shuffle 1 and must give the same bytes.
CSV_ROWS = parallel.MIN_ARRIVALS + 200
CSV_CONFIG = """[source]
kind = csv
path = {path}
features = f1:num, f2:num, f3:num, f4:num, f5:num, f6:num, group:cat(A|B)
protected = group=A
label = label:cat(pos|neg)=pos
order = {order}

[method]
method = fabboo
fairness = sp
learners = 5

[run]
shuffles = {shuffles}
seed = 1
stride = 1
"""

CSV_DIGESTS = {
    "shuffled/shuffle-00":
        "6e9a5bb4181ed5f1545e1a8ddcd1c38982315a72bfa68d1f5c3d5ea68ed57eb9",
    "shuffled/shuffle-01":
        "a7b52ec060aacd34191f281ffe6705e9dc951f2fe69c7e38da154da65d355cd2",
    "stored/shuffle-00":
        "095c53cbe4c231c966e94867cae6078fe7467b9eb02367e2ab6f21c64cc48ece",
}


def csv_run_digests(tmp_path, order, shuffles):
    gen = with_overrides(preset("paper_synth"), length=CSV_ROWS, seed=1)
    data = tmp_path / "paper_synth.csv"
    save_csv(data, gen.schema(), generate(gen))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CSV_CONFIG.format(path=data, order=order,
                                     shuffles=shuffles), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return {f"{order}/{d.name}":
            hashlib.sha256((d / "trace.csv").read_bytes()).hexdigest()
            for d in sorted(out.glob("shuffle-*"))}


@pytest.mark.parametrize("cpus, helpers", [(1, 0), (2, 1)],
                         ids=["serial", "pooled"])
def test_csv_run_trace_digests(tmp_path, monkeypatch, cpus, helpers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    with forks() as forked:
        got = csv_run_digests(tmp_path, "shuffled", 2)
    assert len(forked) == helpers
    assert got == {k: v for k, v in CSV_DIGESTS.items()
                   if k.startswith("shuffled/")}


def test_csv_stored_run_trace_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert csv_run_digests(tmp_path, "stored", 1) == \
        {"stored/shuffle-00": CSV_DIGESTS["stored/shuffle-00"]}
