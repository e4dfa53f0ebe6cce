"""The fabboo names that the benchmark in bench/ reaches from outside,
and the outputs the benchmark checks against its recorded digests.

`bench/spans.py` wraps library functions by (owner, attribute) for
`bench/run.py --trace 1`, and the workloads call the package's public
names. A rename in the library would break the benchmark without failing
any other test.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import fabboo
from fabboo import cli, parallel, pipeline, prequential

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# what bench/workloads.py calls besides the span targets
WORKLOAD_NAMES = [
    (fabboo, "BoostedEnsemble"), (fabboo, "EvalConfig"), (fabboo, "Notion"),
    (fabboo, "generate"), (fabboo, "method_params"), (fabboo, "preset"),
    (fabboo, "save_csv"), (fabboo, "with_overrides"), (cli, "generate"),
    (cli, "main"), (prequential, "run_prequential"),
    (prequential, "write_trace"),
]


def test_span_targets_and_workload_names_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # the package's `metrics` name is the function, so import by path
    mods = SimpleNamespace(fabboo=fabboo, **{
        name: importlib.import_module(f"fabboo.{name}")
        for name in ("cli", "generators", "prequential", "metrics",
                     "fairness", "imbalance", "boosting", "tree")})
    targets = spans.targets(mods)
    missing = [name for owner, attr, name in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    for name in ("build_model", "shuffled", "load_csv", "run_prequential",
                 "write_trace", "execute_run", "main"):
        assert (cli, name) in [(owner, attr) for owner, attr, _ in targets]
    spans.span_codes(mods)   # every target is a Python function
    for owner, attr in WORKLOAD_NAMES:
        assert hasattr(owner, attr), attr


def test_a_csv_run_reaches_data_through_the_wrapped_names(tmp_path,
                                                         monkeypatch):
    """bench/spans.py times a CSV run's load and shuffles by wrapping
    cli.load_csv and cli.shuffled; a run that reached its data another
    way would leave data.load_csv_s and data.shuffled_s at 0."""
    load = mock.Mock(wraps=cli.load_csv)
    shuffle = mock.Mock(wraps=cli.shuffled)
    monkeypatch.setattr(cli, "load_csv", load)
    monkeypatch.setattr(cli, "shuffled", shuffle)
    data = tmp_path / "d.csv"
    data.write_text("age,sex,y\n31,F,good\n45,M,bad\n29,F,bad\n",
                    encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[source]\nkind = csv\nfeatures = age:num, sex:cat(F|M)\n"
                   "protected = sex=F\nlabel = y:cat(good|bad)=good\n"
                   "order = shuffled\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--dataset", str(data),
                     "--learners", "2", "--shuffles", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert (load.call_count, shuffle.call_count) == (1, 2)


def test_forked_export_matches_the_benchmark_golden_digest(tmp_path,
                                                          monkeypatch):
    """The full paper_synth stream, exported with its rows written by a
    helper process, has the digest that bench/run.py's export_synth
    workload is held to; a lost tail or a reordered batch changes it."""
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    fork = mock.Mock(wraps=pipeline._fork)
    monkeypatch.setattr(pipeline, "_fork", fork)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    out = tmp_path / "paper_synth.csv"
    assert cli.main(["export", "--preset", "paper_synth", "--seed",
                     str(golden["seed"]), "--out", str(out)]) == 0
    assert fork.call_count == 1
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == golden["sha256"]["export_synth"]


@pytest.mark.parametrize("name", ["synth_fabboo", "drift_osboost"])
def test_model_workload_matches_the_benchmark_golden_digest(tmp_path,
                                                           monkeypatch, name):
    """One pass of a prequential workload at the golden seed, through its
    own prepare, setup, call and collect, as bench/run.py makes it: the
    run keeps its returned trace, which passes the oracle and has the
    recorded digest."""
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    monkeypatch.syspath_prepend(str(BENCH))   # workloads imports oracle
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[name](golden["seed"])
    mods = SimpleNamespace(fabboo=fabboo, prequential=prequential, cli=cli)
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    wl.prepare(mods, work)
    ctx = wl.setup(mods, out)
    wl.call(mods, ctx, None, None)
    assert type(ctx.trace) is prequential.Trace
    got = wl.collect(mods, ctx, out)
    assert got.problems == []
    assert got.digest == golden["sha256"][name]


def test_csv_workload_matches_the_benchmark_golden_digest(tmp_path,
                                                         monkeypatch):
    """One pass of csv_shuffles at the golden seed, through its own
    prepare, setup, call and collect: `fabboo run` on the exported CSV
    leaves shuffle directories that pass the oracle and have the recorded
    digest, so a changed output fails here and not only in the benchmark's
    traced passes, whose coverage check fails now and then on its own."""
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    monkeypatch.syspath_prepend(str(BENCH))   # workloads imports oracle
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS["csv_shuffles"](golden["seed"])
    mods = SimpleNamespace(fabboo=fabboo, prequential=prequential, cli=cli)
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    wl.prepare(mods, work)
    ctx = wl.setup(mods, out)
    wl.call(mods, ctx, None, None)
    got = wl.collect(mods, ctx, out)
    assert got.problems == []
    assert got.digest == golden["sha256"]["csv_shuffles"]
