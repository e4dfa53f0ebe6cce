"""Config parsing/round-trip, validity rules and the CLI surface."""

import argparse
import ast
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import (BoostedEnsemble, EnsembleParams, EvalConfig, Notion,
                    method_params, parse_config_text, config_to_text,
                    run_prequential, write_trace)
from fabboo import cli, parallel, pipeline
from fabboo.boosting import METHODS
from fabboo.cli import main
from fabboo.config import (KEYS, ConfigError, ExperimentConfig,
                           parse_config_file)
from fabboo.data import AttributeSpec, DatasetSchema, DataError
from fabboo.generators import (PRESET_NAMES, DriftEvent, GeneratorConfig,
                               Schedule)
from fabboo.prequential import TRACE_HEADER, Summary

from conftest import forks

CSV_CONFIG = """
[source]
kind = csv
path = {path}
features = age:num, sex:cat(F|M)
protected = sex=F
label = y:cat(good|bad)=good
order = shuffled

[method]
method = fabboo
fairness = sp
learners = 4
gamma = 0.1
lambda = 0.9
window = 50
epsilon = 0.0001
smoothing = 1.0
chunk = 100

[run]
shuffles = 2
seed = 5
stride = 1

[output]
dir = {out}
"""

GENERATOR_CONFIG = """
[source]
kind = generator
attributes = 3
class_gap = 0.8
length = 400
ratio = 0.4
bias_schedule = 1:0.0, 200:0.2, 400:0.0
drifts = sudden:200:0:0.8

[method]
method = imbalance_only
fairness = none
learners = 2

[run]
shuffles = 1
seed = 9
stride = 10

[output]
dir = {out}
"""


def test_parse_and_validate_csv_config(tmp_path):
    text = CSV_CONFIG.format(path="d.csv", out="o")
    cfg = parse_config_text(text)
    cfg.validate()
    assert cfg.method == "fabboo" and cfg.notion is Notion.SP
    assert cfg.schema.protected_value == "F"
    assert cfg.window == 50 and cfg.shuffles == 2


def test_config_round_trip_identity():
    for text in (CSV_CONFIG.format(path="d.csv", out="o"),
                 GENERATOR_CONFIG.format(out="o")):
        cfg = parse_config_text(text)
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg


def test_label_token_containing_equals():
    text = CSV_CONFIG.format(path="d.csv", out="o").replace(
        "label = y:cat(good|bad)=good", "label = y:cat(>50K|<=50K)=<=50K")
    cfg = parse_config_text(text)
    assert cfg.schema.positive_value == "<=50K"


def test_invalid_method_notion_combinations():
    base = parse_config_text(GENERATOR_CONFIG.format(out="o"))
    from dataclasses import replace
    with pytest.raises(ConfigError):
        replace(base, method="osboost", notion=Notion.SP).validate()
    with pytest.raises(ConfigError):
        replace(base, method="fabboo", notion=None).validate()
    with pytest.raises(ConfigError):
        replace(base, shuffles=0).validate()
    with pytest.raises(ConfigError):
        replace(base, source_kind="csv", csv_path=None).validate()


def test_defaults_come_from_the_ensemble_params():
    assert ExperimentConfig().ensemble_params() == \
        method_params("fabboo", Notion.SP)
    params, evaluation = EnsembleParams(), EvalConfig()
    assert (evaluation.decay, evaluation.smoothing) == \
        (params.decay, params.smoothing)


def test_stored_order_forbids_multiple_shuffles(tmp_path):
    text = CSV_CONFIG.format(path="d.csv", out="o").replace(
        "order = shuffled", "order = stored")
    cfg = parse_config_text(text)
    with pytest.raises(ConfigError, match="stored"):
        cfg.validate()


# ------------------------------------------------ config.cfg and the flags

CSV_CONFIG_TEXT = """\
[source]
kind = csv
path = d.csv
features = age:num, sex:cat(F|M)
protected = sex=F
label = y:cat(good|bad)=good
order = shuffled

[method]
method = fabboo
fairness = sp
learners = 4
gamma = 0.1
lambda = 0.9
window = 50
epsilon = 0.0001
smoothing = 1.0
chunk = 100

[run]
shuffles = 2
seed = 5
stride = 1

[output]
dir = o
"""

GENERATOR_CONFIG_TEXT = """\
[source]
kind = generator
pos_means = 0.4, 0.4, 0.4
neg_means = -0.4, -0.4, -0.4
stds = 1.0, 1.0, 1.0
ratio_schedule = 1.0:0.4
bias_schedule = 1.0:0.0, 200.0:0.2, 400.0:0.0
length = 400
protected_share = 0.4
drifts = sudden:200:0:0.8

[method]
method = imbalance_only
fairness = none
learners = 2
gamma = 0.1
lambda = 0.9
window = 2000
epsilon = 0.0001
smoothing = 1.0
chunk = 1000

[run]
shuffles = 1
seed = 9
stride = 10

[output]
dir = o
"""

PRESET_ARGV = ["run", "--preset", "drift_sudden", "--length", "3000",
               "--method", "cfbb", "--fairness", "eqop", "--learners", "7",
               "--gamma", "0.25", "--lambda", "0.5", "--window", "300",
               "--epsilon", "0.01", "--smoothing", "2", "--chunk", "250",
               "--shuffles", "3", "--seed", "11", "--stride", "20",
               "--out", "p"]

PRESET_CONFIG_TEXT = """\
[source]
kind = preset
preset = drift_sudden
length = 3000

[method]
method = cfbb
fairness = eqop
learners = 7
gamma = 0.25
lambda = 0.5
window = 300
epsilon = 0.01
smoothing = 2.0
chunk = 250

[run]
shuffles = 3
seed = 11
stride = 20

[output]
dir = p
"""


def test_config_text_is_pinned():
    assert config_to_text(parse_config_text(
        CSV_CONFIG.format(path="d.csv", out="o"))) == CSV_CONFIG_TEXT
    assert config_to_text(parse_config_text(
        GENERATOR_CONFIG.format(out="o"))) == GENERATOR_CONFIG_TEXT
    args = cli.build_parser().parse_args(PRESET_ARGV)
    assert config_to_text(cli.apply_flags(ExperimentConfig(), args)) == \
        PRESET_CONFIG_TEXT


# (flag, type, help) of every run flag, in --help order
RUN_FLAGS = [
    ("--config", None, "experiment config file"),
    ("--dataset", None, "CSV dataset path (needs schema keys from a config "
                        "file)"),
    ("--preset", None, "named synthetic stream"),
    ("--length", int, "stream length override"),
    ("--order", None, None),
    ("--method", None, None),
    ("--fairness", None, "sp | eqop | peq | none"),
    ("--learners", int, "ensemble size N"),
    ("--gamma", float, "boosting edge parameter"),
    ("--lambda", float, "imbalance-monitor decay"),
    ("--window", int, "boundary window capacity M"),
    ("--epsilon", float, "discrimination tolerance"),
    ("--smoothing", float, "fairness denominator correction l"),
    ("--chunk", int, "chunk size (cfbb)"),
    ("--shuffles", int, None),
    ("--seed", int, None),
    ("--stride", int, "trace row stride"),
    ("--out", None, "output directory"),
]


def test_run_and_sweep_flags_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def flags(command):
        return [(a.option_strings[-1], a.type, a.help)
                for a in sub.choices[command]._actions if a.dest != "help"]

    assert flags("run") == RUN_FLAGS
    assert flags("sweep") == RUN_FLAGS + [
        ("--param", None, "parameter to sweep (N=learners, M=window)"),
        ("--values", None, "comma-separated parameter values")]


def test_flag_choices_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "sweep"):
        choices = {a.option_strings[-1]: a.choices
                   for a in sub.choices[command]._actions if a.choices}
        assert choices.pop("--order") == ("shuffled", "stored")
        assert tuple(choices.pop("--method")) == METHODS
        assert choices == ({} if command == "run" else
                           {"--param": ["lambda", "learners", "m", "n",
                                        "window"]})


@pytest.mark.parametrize("param, key, values", [
    ("learners", "learners", ("1", "3")),
    ("n", "learners", ("1", "3")),
    ("lambda", "lambda", ("0.5", "0.8")),
    ("window", "window", ("10", "20")),
    ("m", "window", ("10", "20")),
])
def test_each_sweep_name_sets_its_key(tmp_path, param, key, values):
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "ratio_fixed", "--length", "50",
                 "--learners", "2", "--param", param,
                 "--values", ",".join(values), "--out", str(out)]) == 0
    for value in values:
        text = (out / f"{param}={value}" / "config.cfg").read_text(
            encoding="utf-8")
        assert f"\n{key} = {value}\n" in text


# ------------------------------------------------- what a config file holds

PRESET_SOURCE = """\
[source]
kind = preset
preset = ratio_fixed
length = 20
"""

GENERATOR_SOURCE = """\
[source]
kind = generator
length = 20
"""

GENERATOR_KEYS = ("kind, attributes, class_gap, noise, ratio, bias, "
                  "pos_means, neg_means, stds, ratio_schedule, "
                  "bias_schedule, length, protected_share, drifts")

CSV_SOURCE = """\
[source]
kind = csv
path = d.csv
"""
CSV_FEATURES = "features = a:num, s:cat(F|M)\n"
CSV_PROTECTED = "protected = s=F\n"
CSV_LABEL = "label = y:cat(good|bad)=good\n"
GENERATOR_RATIO_BIAS = "ratio = 0.4\nbias = 0.0\n"


@pytest.mark.parametrize("text, message", [
    (PRESET_SOURCE + "[method]\nlamda = 0.5\nlearners = 2\n",
     "'lamda' is not a key of [method] (did you mean 'lambda'?)"),
    (PRESET_SOURCE + "[runn]\nshuffles = 3\n",
     "'runn' is not a config section (did you mean 'run'?)"),
    (PRESET_SOURCE + "[Method]\nlearners = 3\n",
     "'Method' is not a config section (did you mean 'method'?)"),
    (PRESET_SOURCE + "[DEFAULT]\nlearners = 3\n",
     "'DEFAULT' is not a config section "
     "(expected one of: source, method, run, output)"),
    (PRESET_SOURCE + "path = d.csv\nfeatures = a:num\n",
     "'path' is not a key of a preset [source] "
     "(expected one of: kind, preset, length)"),
    (GENERATOR_SOURCE + "ratio = 0.4\nbias = 0.0\norder = stored\n",
     f"'order' is not a key of a generator [source] "
     f"(expected one of: {GENERATOR_KEYS})"),
    (GENERATOR_SOURCE + "pos_means = 0.4, 0.4\nratio = 0.4\nbias = 0.0\n",
     "missing 'neg_means', a key of a generator [source]"),
    (GENERATOR_SOURCE + "pos_means = 0.4\nneg_means = -0.4\nratio = 0.4\n",
     "missing 'stds', a key of a generator [source]"),
    (GENERATOR_SOURCE + "ratio = 0.4\n",
     "missing 'bias_schedule', a key of a generator [source]"),
    (GENERATOR_SOURCE + "noise = 2\nstds = 1\nratio = 0.4\nbias = 0.0\n",
     "give 'noise' or 'stds', not both"),
    (GENERATOR_SOURCE.replace("20", "3x0") + "ratio = 0.4\nbias = 0.0\n",
     "bad value for 'length': '3x0'"),
    (GENERATOR_SOURCE + "ratio = 0.4\nbias = 0.0\ndrifts = sudden:x:0:1\n",
     "bad value for 'drifts': 'sudden:x:0:1'"),
    (GENERATOR_SOURCE + "ratio_schedule = 1:0.4, x:0.5\nbias = 0.0\n",
     "bad value for 'ratio_schedule': '1:0.4, x:0.5'"),
    (GENERATOR_SOURCE + "ratio = 0.4\nbias = 0.0\ndrifts = sideways:1:0:1\n",
     "bad value for 'drifts': 'sideways:1:0:1' "
     "(unknown drift kind 'sideways')"),
    ("[]\n", "malformed config: line 1 is not a [section] header, "
     "a comment or 'key = value' under a header"),
    ("[source]\nkind preset\n", "malformed config: line 2 is not a "
     "[section] header, a comment or 'key = value' under a header"),
    (CSV_SOURCE + CSV_FEATURES + CSV_PROTECTED + CSV_LABEL
     + "order = random\n", "unknown order 'random'"),
    (PRESET_SOURCE + "[method]\nfairness = spp\n",
     "bad value for 'fairness': 'spp' (unknown fairness notion 'spp')"),
    (CSV_SOURCE + "features = a:int\n" + CSV_PROTECTED + CSV_LABEL,
     "bad value for 'features': 'a:int' (bad feature spec 'a:int')"),
    (CSV_SOURCE + "features = s:cat(F|M), s:num\n" + CSV_PROTECTED
     + CSV_LABEL, "duplicate attribute names in schema"),
    (CSV_SOURCE + CSV_FEATURES + "protected = b=F\n" + CSV_LABEL,
     "protected attribute 'b' not declared"),
    (CSV_SOURCE + CSV_FEATURES + "protected = a=1\n" + CSV_LABEL,
     "protected attribute must be categorical"),
    (CSV_SOURCE + CSV_FEATURES + "protected = s=X\n" + CSV_LABEL,
     "protected value 'X' not in alphabet of 's'"),
    (CSV_SOURCE + CSV_FEATURES + CSV_PROTECTED
     + "label = y:cat(good|bad)=ok\n",
     "positive label 'ok' not in label alphabet"),
    (CSV_SOURCE + CSV_FEATURES + CSV_PROTECTED + "label = y:cat(good)=good\n",
     "label alphabet needs at least two values"),
    (GENERATOR_SOURCE + GENERATOR_RATIO_BIAS
     + "pos_means = 0.4, 0.4\nneg_means = -0.4, -0.4\nstds = 1\n",
     "per-class mean and std vectors must share length"),
    (GENERATOR_SOURCE + GENERATOR_RATIO_BIAS
     + "pos_means = 0.4\nneg_means = -0.4\nstds = 0\n",
     "stds must be positive"),
    (GENERATOR_SOURCE.replace("20", "-1") + GENERATOR_RATIO_BIAS,
     "length must be >= 0"),
    (GENERATOR_SOURCE + GENERATOR_RATIO_BIAS + "protected_share = 1\n",
     "protected_share must be in (0, 1)"),
    (GENERATOR_SOURCE + GENERATOR_RATIO_BIAS + "drifts = sudden:30:0:1\n",
     "drift start outside the stream"),
    (GENERATOR_SOURCE + GENERATOR_RATIO_BIAS + "drifts = gradual:10:0:1\n",
     "bad value for 'drifts': 'gradual:10:0:1' "
     "(gradual drift needs a positive duration)"),
    (GENERATOR_SOURCE + "ratio_schedule =\nbias = 0.0\n",
     "bad value for 'ratio_schedule': '' "
     "(schedule needs at least one control point)"),
    (GENERATOR_SOURCE + "ratio = 1.5\nbias = 0.0\n",
     "class ratio 1.5 outside [0,1] at t=1"),
    (PRESET_SOURCE + "kind = preset\n",
     "malformed config: line 5 repeats key 'kind' of [source]"),
    (PRESET_SOURCE + "[source]\nkind = preset\n",
     "malformed config: line 5 repeats section [source]"),
    ("[source]\nKind = preset\nkind = preset\n",
     "malformed config: line 3 repeats key 'kind' of [source]"),
    (GENERATOR_SOURCE.replace("20", "0") + GENERATOR_RATIO_BIAS,
     "length must be >= 1 for a run"),
], ids=["misspelt-key", "misspelt-section", "section-case", "default-section",
        "csv-key-under-preset", "csv-key-under-generator",
        "half-given-means", "means-without-stds", "no-bias",
        "shorthand-and-key", "bad-length", "bad-drift-start",
        "bad-schedule-point", "bad-drift-kind",
        "no-section-header", "line-without-equals", "unknown-order",
        "unknown-notion", "bad-feature-kind", "duplicate-attribute",
        "undeclared-protected", "numeric-protected",
        "protected-value-outside-alphabet", "positive-label-outside-alphabet",
        "one-value-label-alphabet", "means-and-stds-lengths",
        "non-positive-std", "negative-length", "protected-share-one",
        "drift-past-length", "gradual-drift-without-duration",
        "empty-ratio-schedule", "ratio-above-one", "repeated-key",
        "repeated-section", "repeated-key-in-other-case", "zero-length"])
def test_bad_config_file_exits_2_naming_the_key(tmp_path, capsys, text,
                                                message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--learners", "2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not out.exists()


def test_empty_output_dir_in_file_exits_2(tmp_path, capsys, monkeypatch):
    """An empty [output] dir would put the run's files in the working
    directory."""
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(PRESET_SOURCE + "[method]\nlearners = 2\n"
                        "[output]\ndir =\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: output dir must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_keys_are_case_insensitive():
    cfg = parse_config_text(PRESET_SOURCE + "[method]\nLambda = 0.5\n"
                            "LEARNERS = 3\n\n[run]\nSeed = 4\n")
    assert (cfg.decay, cfg.learners, cfg.seed) == (0.5, 3, 4)


def test_adult_example_config_parses_and_validates():
    """The published settings (N=20, lambda=0.9, M=2000, epsilon=1e-4),
    read without the CSV itself."""
    cfg = parse_config_file(Path(__file__).parents[1] / "configs" /
                            "adult_example.cfg")
    cfg.validate()
    assert (cfg.learners, cfg.decay, cfg.window, cfg.epsilon) == \
        (20, 0.9, 2000, 1e-4)
    assert (cfg.method, cfg.notion, cfg.shuffles) == ("fabboo", Notion.SP, 10)
    assert len(cfg.schema.attributes) == 14
    assert cfg.schema.positive_value == ">50K"


def test_a_valid_run_imports_no_difflib(tmp_path):
    """difflib only serves the error path; a run must not pay its import."""
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(PRESET_SOURCE.replace("20", "1") +
                        "[method]\nlearners = 2\n[run]\nseed = 3\n"
                        f"[output]\ndir = {tmp_path / 'out'}\n",
                        encoding="utf-8")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\nfrom fabboo import cli\n"
            f"rc = cli.main(['run', '--config', {str(cfg_file)!r}])\n"
            "print(rc, 'difflib' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "aggregate.txt").exists()


# ------------------------------------------------- config.cfg round trip

TEXT = st.text(st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=8)
NAMES = st.text("abxyz09_-.", min_size=1, max_size=4)
TOKENS = st.text("abxyz09_-.<=>", min_size=1, max_size=4)


@st.composite
def schemas(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    alphabets = [draw(st.none() | st.lists(TOKENS, min_size=1, max_size=3,
                                           unique=True)) for _ in names]
    protected = draw(st.integers(0, len(names) - 1))
    alphabets[protected] = alphabets[protected] or ["A", "B"]
    labels = draw(st.lists(TOKENS, min_size=2, max_size=3, unique=True))
    return DatasetSchema(
        tuple(AttributeSpec(n, "num") if a is None
              else AttributeSpec(n, "cat", tuple(a))
              for n, a in zip(names, alphabets)),
        names[protected], draw(st.sampled_from(alphabets[protected])),
        draw(NAMES), tuple(labels), draw(st.sampled_from(labels)))


@st.composite
def generators(draw):
    """Feasible streams: a class ratio in [0.2, 0.8] and a bias of at most
    0.1 keep both groups' positive rates inside [0, 1]."""
    d = draw(st.integers(1, 4))
    length = draw(st.integers(1, 10_000))

    def vector(values):
        return tuple(draw(st.lists(values, min_size=d, max_size=d)))

    def schedule(low, high):
        ts = draw(st.lists(st.floats(1, length), min_size=1, max_size=3,
                           unique=True))
        return Schedule(tuple((t, draw(st.floats(low, high)))
                              for t in sorted(ts)))

    def drift():
        kind = draw(st.sampled_from(["sudden", "gradual", "recurrent"]))
        return DriftEvent(kind, draw(st.integers(1, length)),
                          0 if kind == "sudden" else draw(st.integers(1, 99)),
                          draw(st.floats(-2, 2)))

    return GeneratorConfig(
        vector(st.floats(-3, 3)), vector(st.floats(-3, 3)),
        vector(st.floats(0.01, 3)), schedule(0.2, 0.8), schedule(-0.1, 0.1),
        length, protected_share=draw(st.floats(0.05, 0.95)),
        drifts=tuple(drift() for _ in range(draw(st.integers(0, 2)))))


SOURCES = st.one_of(
    st.fixed_dictionaries({
        "source_kind": st.just("csv"), "csv_path": TEXT, "schema": schemas(),
        "order": st.sampled_from(["shuffled", "stored"])}),
    st.fixed_dictionaries({
        "source_kind": st.just("preset"),
        "preset_name": st.sampled_from(PRESET_NAMES),
        "length": st.none() | st.integers(0, 10 ** 6)}),
    # a generator's config.cfg bakes a length override into the stream
    st.fixed_dictionaries({"source_kind": st.just("generator"),
                           "generator": generators()}))

NUMBERS = {int: st.integers(), float: st.floats(allow_nan=False)}

RUN_SETTINGS = st.fixed_dictionaries({
    "method": st.sampled_from(METHODS),
    "notion": st.sampled_from([*Notion, None]),
    "out_dir": TEXT,
    **{name: NUMBERS[key.parse] for name, key in KEYS.items()
       if key.section in ("method", "run") and key.parse in NUMBERS}})


@settings(max_examples=200, deadline=None)
@given(SOURCES, RUN_SETTINGS)
def test_config_text_round_trips(source, run_settings):
    cfg = ExperimentConfig(**source, **run_settings)
    assert parse_config_text(config_to_text(cfg)) == cfg


# ----------------------------------------------------------------- the CLI

def write_dataset(tmp_path, rows=60):
    lines = ["age,sex,y"]
    for i in range(rows):
        lines.append(f"{20 + i % 40},{'F' if i % 3 == 0 else 'M'},"
                     f"{'good' if (i * 7) % 10 < 4 else 'bad'}")
    p = tmp_path / "d.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def test_run_writes_traces_and_aggregate(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=data, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 0
    out = tmp_path / "out"
    for i in range(2):
        run_dir = out / f"shuffle-{i:02d}"
        trace = (run_dir / "trace.csv").read_text(encoding="utf-8")
        assert trace.splitlines()[0] == TRACE_HEADER
        assert len(trace.splitlines()) == 61  # header + one row per instance
        assert (run_dir / "summary.txt").exists()
    agg = (out / "aggregate.txt").read_text(encoding="utf-8")
    assert "bal_acc = " in agg and "±" in agg


def test_run_invalid_combination_exits_2(tmp_path, capsys):
    data = write_dataset(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=data, out=tmp_path / "out"),
                        encoding="utf-8")
    code = main(["run", "--config", str(cfg_file),
                 "--method", "osboost"])  # keeps fairness = sp
    assert code == 2


@pytest.mark.parametrize("flags, key", [
    (["--learners", "0"], "learners"),
    (["--gamma", "0"], "gamma"),
    (["--gamma", "1"], "gamma"),
    (["--lambda", "-0.1"], "lambda"),
    (["--lambda", "1"], "lambda"),
    (["--window", "0"], "window"),
    (["--epsilon", "-1"], "epsilon"),
    (["--smoothing", "-1"], "smoothing"),
    (["--chunk", "0"], "chunk"),
    (["--chunk", "0", "--method", "cfbb"], "chunk"),
    (["--shuffles", "0"], "shuffles"),
    (["--stride", "0"], "stride"),
    (["--method", "osboost"], "fairness"),
    (["--fairness", "none"], "fairness"),
    (["--dataset", "absent.csv", "--learners", "0"], "learners"),
    (["--length", "10"], "length"),
    (["--epsilon", "nan"], "epsilon"),
    (["--epsilon", "inf"], "epsilon"),
    (["--smoothing", "nan"], "smoothing"),
    (["--smoothing", "inf"], "smoothing"),
    (["--preset", "ratio_fixed", "--order", "stored"], "order"),
    (["--preset", "nope"], "unknown preset 'nope'"),
    (["--preset", "ratio_fixed", "--length", "0"], "length"),
    (["--preset", "ratio_fixed", "--length", "-1"],
     "length must be >= 1 for a run"),
    (["--dataset", "absent.csv", "--preset", "ratio_fixed"],
     "give --dataset or --preset, not both"),
    (["--preset", "ratio_fixed", "--dataset", "absent.csv"],
     "give --dataset or --preset, not both"),
    (["--out", ""], "output dir must not be empty"),
])
def test_bad_value_exits_2_before_any_output(tmp_path, capsys, monkeypatch,
                                            flags, key):
    monkeypatch.chdir(tmp_path)   # where a run with an empty --out writes
    data = write_dataset(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=data, out=tmp_path / "out"),
                        encoding="utf-8")
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    assert main(["run", "--config", str(cfg_file)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("config error: ") and key in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("param, values, key", [
    ("lambda", "0.5,1.5", "lambda"),
    ("n", "1,1,01", "sweep value '1' repeats '1'"),
    ("lambda", "0.5,0.50", "sweep value '0.50' repeats '0.5'"),
], ids=["out_of_range", "repeated", "repeated_spelt_apart"])
def test_bad_sweep_value_exits_2_before_any_output(tmp_path, capsys, param,
                                                   values, key):
    out = tmp_path / "sweep"
    assert main(["sweep", "--preset", "ratio_fixed", "--length", "200",
                 "--learners", "2", "--param", param,
                 "--values", values, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("config error: ") and key in line
    assert not out.exists()


def test_sweep_with_an_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    """Each value's run goes under `--out`; an empty one would put the
    runs and the table in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--preset", "ratio_fixed", "--length", "200",
                 "--learners", "2", "--param", "n", "--values", "1,2",
                 "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: output dir must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def test_run_missing_file_exits_3(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=tmp_path / "absent.csv",
                                          out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 3


@pytest.mark.parametrize("option, name, kind, message", [
    ("--dataset", "absent.csv", "data", "No such file or directory"),
    ("--dataset", "adir", "data", "Is a directory"),
    ("--config", "absent.cfg", "config", "No such file or directory"),
    ("--config", "adir", "config", "Is a directory"),
    ("--config", "latin1.cfg", "config", "byte e9 on line 2 is not UTF-8"),
], ids=["missing_dataset", "dataset_directory", "missing_config",
        "config_directory", "latin1_config"])
def test_unreadable_input_file_exits_naming_it(tmp_path, capsys, option,
                                               name, kind, message):
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"[source]\nkind = pr\xe9set\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=tmp_path / "unused.csv",
                                          out=tmp_path / "out"),
                        encoding="utf-8")
    path = tmp_path / name
    argv = ["run", option, str(path), "--out", str(tmp_path / "out")]
    if option == "--dataset":
        argv += ["--config", str(cfg_file)]
    assert main(argv) == (3 if kind == "data" else 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{kind} error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_malformed_data_exits_3(tmp_path):
    bad = tmp_path / "d.csv"
    bad.write_text("age,sex,y\nxx,F,good\n", encoding="utf-8")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=bad, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 3


@pytest.mark.parametrize("data, message", [
    (b"age,sex,y\n31,F,good\n3\xe9,M,bad\n",
     "byte e9 on line 3 is not UTF-8"),
    # past the text layer's first 8 KB chunk
    (b"age,sex,y\n" + b"31,F,good\n" * 2000 + b"3\xe9,M,bad\n",
     "byte e9 on line 2002 is not UTF-8"),
    (b"age,sex,y\n31,F,good\n" + b"4" * 200_000 + b",M,bad\n",
     "field larger than field limit (131072) at line 3"),
    (b"age,sex,y\n31,X,good\n", "unmapped protected value at row 1"),
    (b"age,sex,y\n31,F,fair\n", "unmapped label value at row 1"),
    (b"age,sex,y\n31,F,good\n45,M\n", "wrong field count at row 2"),
    (b"", "empty file (no header row)"),
], ids=["latin1_byte", "late_latin1_byte", "huge_field",
        "unmapped_protected", "unmapped_label", "short_row", "empty_file"])
def test_unreadable_data_exits_3(tmp_path, capsys, data, message):
    bad = tmp_path / "d.csv"
    bad.write_bytes(data)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=bad, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_non_finite_data_exits_3(tmp_path, capsys):
    bad = tmp_path / "d.csv"
    bad.write_text("age,sex,y\n31,F,good\n1e999,M,bad\n", encoding="utf-8")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=bad, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 3
    assert "non-finite value '1e999' at row 2, column 'age'" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_duplicate_column_exits_3(tmp_path, capsys):
    bad = tmp_path / "d.csv"
    bad.write_text("age,age,sex,y\nx,31,F,good\n", encoding="utf-8")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=bad, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 3
    assert "duplicate column 'age'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "shuffle-00").exists()


@pytest.mark.parametrize("order", ["shuffled", "stored"])
def test_header_only_data_exits_3_before_any_output(tmp_path, capsys, order):
    empty = tmp_path / "d.csv"
    empty.write_text("age,sex,y\n", encoding="utf-8")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=empty, out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file), "--order", order,
                 "--shuffles", "1"]) == 3
    assert capsys.readouterr().err == \
        f"data error: {empty}: no data rows after the header\n"
    assert not (tmp_path / "out").exists()


def test_flag_overrides_beat_config(tmp_path):
    data = write_dataset(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=data, out=tmp_path / "a"),
                        encoding="utf-8")
    code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "b"),
                 "--shuffles", "1", "--stride", "10"])
    assert code == 0
    assert (tmp_path / "b" / "shuffle-00" / "trace.csv").exists()
    assert not (tmp_path / "a").exists()


def test_paired_shuffles_share_instance_order(tmp_path):
    data = write_dataset(tmp_path)
    outs = []
    for method, fairness in (("osboost", "none"), ("fabboo", "sp")):
        out = tmp_path / method
        cfg_file = tmp_path / f"{method}.cfg"
        cfg_file.write_text(CSV_CONFIG.format(path=data, out=out),
                            encoding="utf-8")
        assert main(["run", "--config", str(cfg_file), "--method", method,
                     "--fairness", fairness, "--learners", "2"]) == 0
        outs.append(out)

    def stream_columns(out):
        lines = (out / "shuffle-01" / "trace.csv").read_text().splitlines()[1:]
        return [tuple(l.split(",")[2:4]) for l in lines]  # (label, group)

    assert stream_columns(outs[0]) == stream_columns(outs[1])


def test_stored_order_follows_the_file(tmp_path):
    data = write_dataset(tmp_path)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=data, out=tmp_path / "out")
                        .replace("order = shuffled", "order = stored"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file), "--shuffles", "1"]) == 0
    trace = (tmp_path / "out" / "shuffle-00" / "trace.csv").read_text()
    got = [tuple(l.split(",")[2:4]) for l in trace.splitlines()[1:]]
    rows = [l.split(",") for l in data.read_text().splitlines()[1:]]
    assert got == [("1" if y == "good" else "-1", "1" if sex == "F" else "0")
                   for _, sex, y in rows]


def test_generator_source_run(tmp_path):
    cfg_file = tmp_path / "gen.cfg"
    cfg_file.write_text(GENERATOR_CONFIG.format(out=tmp_path / "out"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file)]) == 0
    assert (tmp_path / "out" / "shuffle-00" / "trace.csv").exists()


def test_generator_length_flag_survives_in_config_cfg(tmp_path):
    """--length 150 cuts the stream before its drift at arrival 200; the
    written config.cfg must reproduce the run."""
    cfg_file = tmp_path / "gen.cfg"
    cfg_file.write_text(GENERATOR_CONFIG.format(out=tmp_path / "cut"),
                        encoding="utf-8")
    assert main(["run", "--config", str(cfg_file), "--length", "150"]) == 0
    written = tmp_path / "cut" / "config.cfg"
    assert main(["run", "--config", str(written),
                 "--out", str(tmp_path / "again")]) == 0
    trace = [(tmp_path / d / "shuffle-00" / "trace.csv").read_bytes()
             for d in ("cut", "again")]
    assert trace[0] == trace[1]
    assert len(trace[0].splitlines()) == 1 + 150 // 10


def test_module_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "fabboo.cli", "run", "--preset",
                    "ratio_fixed", "--length", "50", "--learners", "2",
                    "--out", str(out)], capture_output=True, check=True,
                   timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert (out / "aggregate.txt").exists()


def test_sweep_table(tmp_path):
    cfg_file = tmp_path / "gen.cfg"
    cfg_file.write_text(GENERATOR_CONFIG.format(out=tmp_path / "sweep"),
                        encoding="utf-8")
    code = main(["sweep", "--config", str(cfg_file), "--param", "learners",
                 "--values", "1,3"])
    assert code == 0
    table = (tmp_path / "sweep" / "sweep_learners.txt").read_text()
    lines = table.splitlines()
    assert lines[0].split()[0] == "learners"
    assert len(lines) == 3
    assert (tmp_path / "sweep" / "learners=1" / "aggregate.txt").exists()


def test_sweep_empty_values_rejected(tmp_path):
    cfg_file = tmp_path / "gen.cfg"
    cfg_file.write_text(GENERATOR_CONFIG.format(out=tmp_path / "sweep"),
                        encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_file), "--param", "lambda",
                 "--values", " , "]) == 2


# ------------------------------------------------------- parallel shuffles

POOLED_ROWS = parallel.MIN_ARRIVALS + 200


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs, whatever the machine has; lists the pid of every
    helper process the CLI forks, in the order it forks them. Pooled
    shuffles never pipeline, so in a pooled run these are the pool's."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with forks() as started:
        yield started


def source_argv(tmp_path, kind):
    """`fabboo run` arguments for a CSV or a preset source of POOLED_ROWS
    arrivals, N=2, stride 1; --seed, --shuffles and --out follow."""
    if kind == "preset":
        return ["run", "--preset", "ratio_fixed", "--length",
                str(POOLED_ROWS), "--learners", "2", "--stride", "1"]
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(
        path=write_dataset(tmp_path, POOLED_ROWS), out=tmp_path / "unused"),
        encoding="utf-8")
    return ["run", "--config", str(cfg_file), "--learners", "2"]


def without_wall_s(text):
    return [l for l in text.splitlines() if not l.startswith("wall_s")]


ONE_HELPER = (2, 3, [[0, 1], [2]])            # one helper next to the parent
TWO_HELPERS = (3, 5, [[0, 1], [2, 3], [4]])   # one contiguous slice each


@pytest.mark.parametrize("kind, cpus, shuffles, slices", [
    ("csv", *ONE_HELPER), ("preset", *ONE_HELPER),
    ("csv", *TWO_HELPERS), ("preset", *TWO_HELPERS),
], ids=["csv", "preset", "csv-two-helpers", "preset-two-helpers"])
def test_pooled_shuffles_match_serial_runs(tmp_path, monkeypatch, pools, kind,
                                           cpus, shuffles, slices):
    """The caller runs the first ceil(shuffles / cpus) shuffles and each
    helper one contiguous slice of the rest."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    ran = tmp_path / "ran"     # shuffle index -> the pid that ran it
    ran.mkdir()
    run_shuffle = cli._run_shuffle

    def recording(cfg, kinds, source, i, cpus):
        (ran / str(i)).write_text(str(os.getpid()), encoding="utf-8")
        return run_shuffle(cfg, kinds, source, i, cpus)

    monkeypatch.setattr(cli, "_run_shuffle", recording)
    argv = source_argv(tmp_path, kind)
    pooled = tmp_path / "pooled"
    assert main(argv + ["--seed", "5", "--shuffles", str(shuffles),
                        "--out", str(pooled)]) == 0
    assert len(pools) == len(slices) - 1
    by_pid = {}
    for i in range(shuffles):
        pid = int((ran / str(i)).read_text(encoding="utf-8"))
        by_pid.setdefault(pid, []).append(i)
    assert by_pid == dict(zip([os.getpid()] + pools, slices))
    summaries = []
    for i in range(shuffles):
        serial = tmp_path / f"serial-{i}"
        assert main(argv + ["--seed", str(5 + i), "--shuffles", "1",
                            "--out", str(serial)]) == 0
        want, got = serial / "shuffle-00", pooled / f"shuffle-{i:02d}"
        assert (got / "trace.csv").read_bytes() == \
            (want / "trace.csv").read_bytes()
        text = (want / "summary.txt").read_text(encoding="utf-8")
        assert without_wall_s((got / "summary.txt").read_text(
            encoding="utf-8")) == without_wall_s(text)
        summaries.append(Summary(**{
            k: ast.literal_eval(v) for k, _, v in
            (line.partition(" = ") for line in text.splitlines())}))
    assert len(pools) == len(slices) - 1   # the one-shuffle runs stayed serial
    assert without_wall_s((pooled / "aggregate.txt").read_text(
        encoding="utf-8")) == without_wall_s(cli.aggregate_text(summaries))


@pytest.mark.parametrize("rows, other_thread", [(60, False),
                                                 (POOLED_ROWS, True)])
def test_short_or_threaded_run_starts_no_pool(tmp_path, monkeypatch, rows,
                                              other_thread):
    def no_pool():
        raise AssertionError("a pool helper was forked")

    monkeypatch.setattr(pipeline, "_fork", no_pool)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=write_dataset(tmp_path, rows),
                                          out=tmp_path / "out"),
                        encoding="utf-8")
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(30,))
    if other_thread:
        waiter.start()
    try:
        assert main(["run", "--config", str(cfg_file),
                     "--shuffles", "3"]) == 0
    finally:
        stop.set()
        if other_thread:
            waiter.join(5)
    assert not waiter.is_alive()
    assert (tmp_path / "out" / "shuffle-02" / "trace.csv").exists()


def no_pipeline(*args):
    raise AssertionError("a pipeline was started")


@pytest.mark.parametrize("rows, shuffles, cpus, other_thread", [
    (60, 1, 2, False),             # too short
    (POOLED_ROWS, 1, 2, True),     # a second thread
    (POOLED_ROWS, 1, 1, False),    # one usable CPU
    (POOLED_ROWS, 3, 2, False),    # pooled shuffles: one CPU each,
    (POOLED_ROWS, 2, 4, False),    # however many CPUs there are
])
def test_runs_that_start_no_pipeline(tmp_path, monkeypatch, pools, rows,
                                     shuffles, cpus, other_thread):
    """The pipeline's entry raises, in the caller and in the pool's
    helpers, so any pipeline fails the run; the pipeline would start at
    the pool's threshold."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(parallel, "PIPELINE_MIN_ARRIVALS",
                        parallel.MIN_ARRIVALS)
    monkeypatch.setattr(pipeline, "start", no_pipeline)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CSV_CONFIG.format(path=write_dataset(tmp_path, rows),
                                          out=tmp_path / "out"),
                        encoding="utf-8")
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(30,))
    if other_thread:
        waiter.start()
    try:
        assert main(["run", "--config", str(cfg_file), "--learners", "2",
                     "--shuffles", str(shuffles)]) == 0
    finally:
        stop.set()
        if other_thread:
            waiter.join(5)
    assert len(pools) == (min(shuffles, cpus) - 1 if shuffles > 1 else 0)
    assert (tmp_path / "out" / f"shuffle-{shuffles - 1:02d}" /
            "trace.csv").exists()


def test_lone_run_pipelines_and_matches_one_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "PIPELINE_MIN_ARRIVALS",
                        parallel.MIN_ARRIVALS)
    argv = source_argv(tmp_path, "csv") + ["--shuffles", "1"]
    outputs = []
    with forks() as forked:
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(((out / "shuffle-00" / "trace.csv").read_bytes(),
                            without_wall_s((out / "shuffle-00" /
                                            "summary.txt")
                                           .read_text(encoding="utf-8"))))
    assert len(forked) == 1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error, code, prefix", [
    (DataError("bad row in a helper"), 3, "data error"),
    (RuntimeError("a helper failed"), 1, "error"),
])
def test_helper_failure_sets_exit_code(tmp_path, monkeypatch, capsys, pools,
                                       error, code, prefix):
    parent, evaluate = os.getpid(), cli.run_prequential

    def fail_in_helper(*args, **kwargs):
        if os.getpid() != parent:
            raise error
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "run_prequential", fail_in_helper)
    argv = source_argv(tmp_path, "csv")
    assert main(argv + ["--shuffles", "3", "--out",
                        str(tmp_path / "out")]) == code
    assert len(pools) == 1
    assert f"{prefix}: {error}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "aggregate.txt").exists()


# ---------------------------------------------------------- streamed traces

def config_of(argv):
    """The ExperimentConfig that main(argv) runs."""
    args = cli.build_parser().parse_args(argv)
    cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
    return cli.apply_flags(cfg, args)


def list_trace_bytes(path, cfg, i, trace=None):
    """write_trace to `path` of shuffle i of `cfg`, run serially into a
    list (`trace`, a new one when None); returns the file's bytes."""
    kinds, _, source = cli.build_sources(cfg)
    rows = [] if trace is None else trace
    try:
        run_prequential(cli.build_model(cfg, kinds), source(i),
                        cfg.eval_config(), rows, cpus=1)
    finally:
        write_trace(path, rows)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["csv", "preset"])
@pytest.mark.parametrize("path, cpus, shuffles, helpers", [
    ("serial", 1, 2, 0), ("pooled", 2, 2, 1), ("pipelined", 2, 1, 1),
])
def test_streamed_trace_equals_write_trace_of_a_list(tmp_path, monkeypatch,
                                                      pools, kind, path,
                                                      cpus, shuffles, helpers):
    """Each shuffle's trace.csv, written row by row as the run goes, has
    the bytes of write_trace of the same run's trace list; on a lone run,
    the pipeline's helper is forked while the file is open."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(parallel, "PIPELINE_MIN_ARRIVALS",
                        parallel.MIN_ARRIVALS)
    argv = source_argv(tmp_path, kind) + [
        "--seed", "5", "--shuffles", str(shuffles),
        "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(pools) == helpers
    cfg = config_of(argv)
    for i in range(shuffles):
        got = tmp_path / "out" / f"shuffle-{i:02d}" / "trace.csv"
        want = list_trace_bytes(tmp_path / f"list-{i}.csv", cfg, i)
        assert want.count(b"\n") == POOLED_ROWS + 1
        assert got.read_bytes() == want


class ModelFault(ArithmeticError):
    pass


class Marked(tuple):
    """The features of the arrival a model fails to learn from."""


@pytest.mark.parametrize("fault", ["source", "model"])
@pytest.mark.parametrize("cpus, failing", [(1, 0), (1, 1), (2, 0), (2, 1)],
                         ids=["serial-0", "serial-1", "caller-0", "helper-1"])
def test_a_failed_shuffle_leaves_its_rows_and_no_summary(
        tmp_path, monkeypatch, capsys, pools, fault, cpus, failing):
    """Shuffle `failing` of two fails at arrival 700, in its source or in
    its model: its trace.csv holds the 699 rows before that arrival, the
    bytes of write_trace of the same failed run's trace list, and its
    directory has no summary.txt. On two CPUs the caller runs shuffle 0
    and a helper shuffle 1."""
    at, seed = 700, 5
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    generate, learn = cli.generate, BoostedEnsemble.learn

    def breaking(gen):
        for inst in generate(gen):
            if gen.seed == seed + failing and inst.seq == at:
                if fault == "source":
                    raise RuntimeError(f"source broke at arrival {at}")
                inst = inst._replace(features=Marked(inst.features))
            yield inst

    def failing_learn(self, features, *args):
        if type(features) is Marked:
            raise ModelFault(f"model broke at arrival {at}")
        return learn(self, features, *args)

    monkeypatch.setattr(cli, "generate", breaking)
    monkeypatch.setattr(BoostedEnsemble, "learn", failing_learn)
    argv = source_argv(tmp_path, "preset") + [
        "--seed", str(seed), "--shuffles", "2",
        "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert len(pools) == cpus - 1
    assert f"error: {fault} broke at arrival {at}" in capsys.readouterr().err
    rows = []
    with pytest.raises((RuntimeError, ModelFault)):
        list_trace_bytes(tmp_path / "list.csv", config_of(argv), failing,
                         rows)
    assert len(rows) == at - 1
    run_dir = tmp_path / "out" / f"shuffle-{failing:02d}"
    assert (run_dir / "trace.csv").read_bytes() == \
        (tmp_path / "list.csv").read_bytes()
    assert not (run_dir / "summary.txt").exists()
    assert not (tmp_path / "out" / "aggregate.txt").exists()


def test_a_run_holds_no_trace_rows(tmp_path, monkeypatch):
    """The traced memory peak of a stride-1 `fabboo run` barely grows from
    1,000 to 4,000 arrivals: the trace goes to its file as it is made. A
    list of the 3,000 more rows would take about 1 MB."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)

    def peak_mb(arrivals):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(["run", "--preset", "ratio_fixed", "--length",
                     str(arrivals), "--learners", "1", "--stride", "1",
                     "--out", str(tmp_path / str(arrivals))]) == 0
        return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20

    tracemalloc.start()
    try:
        short, long = peak_mb(1_000), peak_mb(4_000)
    finally:
        tracemalloc.stop()
    assert long - short < 0.25


def test_export_round_trip(tmp_path):
    out = tmp_path / "stream.csv"
    assert main(["export", "--preset", "ratio_fixed", "--length", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    from fabboo import load_csv, preset, with_overrides, generate
    cfg = with_overrides(preset("ratio_fixed"), length=200, seed=3)
    ds = load_csv(out, cfg.schema())
    assert len(ds) == 200
    direct = list(generate(cfg))
    assert [i.label for i in ds] == [i.label for i in direct]
    assert [i.group for i in ds] == [i.group for i in direct]
    got = [i.features for i in ds]
    want = [i.features for i in direct]
    assert got == want  # repr round-trip keeps floats exact


def test_export_creates_missing_directories(tmp_path):
    argv = ["export", "--preset", "paper_synth", "--length", "10", "--out"]
    nested = tmp_path / "a" / "b" / "x.csv"
    assert main(argv + [str(nested)]) == 0
    assert main(argv + [str(tmp_path / "x.csv")]) == 0
    assert nested.read_bytes() == (tmp_path / "x.csv").read_bytes()
