"""Experiment configuration: file format, validation and serialization.

Configs are INI text: section headers, then `key = value` lines. Keys are
case-insensitive; section names are not. The sections and their keys:

    [source]  kind = csv | preset | generator, and that kind's keys
    [method]  method, fairness, learners, gamma, lambda, window, epsilon,
              smoothing, chunk
    [run]     shuffles, seed, stride
    [output]  dir

A `csv` source takes `path`, the schema (`features`, `protected`,
`label`) and `order`; a `preset` source takes `preset` and an optional
`length` override; a `generator` source takes an explicit Gaussian
stream: `attributes`/`class_gap`/`noise` or `pos_means`/`neg_means`/
`stds` lists, `ratio`/`bias` constants or `ratio_schedule`/
`bias_schedule` point lists "t:value, t:value", `length`,
`protected_share`, and `drifts` as "kind:start:duration:magnitude"
entries. README.md shows each key's syntax, and
`configs/adult_example.cfg` is a complete file.

Each `ExperimentConfig` field declares its key once, as a `Key` in the
field's metadata: its section and source kind, its config key and how
the key's text is read and written, and the run/sweep flag that sets
it. `parse_config_text`, `config_to_text` and the CLI's flags read these
declarations in field order. Each key is read, and taken out of its
section, by `_value`. A key or section left over (misspelt, or foreign
to the source kind) is a ConfigError naming it and the closest name the
parser reads.
"""

from __future__ import annotations

import configparser
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .boosting import CHUNK, METHODS, EnsembleParams, method_params
from .data import AttributeSpec, DatasetSchema, DataError, not_utf8
from .fairness import Notion
from .generators import (DriftEvent, GeneratorConfig, PRESET_NAMES, Schedule,
                         preset, with_overrides)
from .prequential import EvalConfig


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ------------------------------------------------------------------- reading

_NEEDED = object()   # the default of a key that must be given


class _Unread(dict):
    """The unread keys of a section, or sections of a config. `take` reads
    one and records its name, the names a leftover is matched against."""

    def __init__(self, items, what: str):
        super().__init__(items)
        self.what, self.taken = what, []    # what: e.g. "key of [method]"

    def take(self, name: str) -> str | None:
        self.taken.append(name)
        return self.pop(name, None)

    def check_read(self) -> None:
        for name in self:
            from difflib import get_close_matches   # on this error path only
            close = get_close_matches(name, self.taken, 1)
            hint = (f"did you mean {close[0]!r}?" if close
                    else "expected one of: " + ", ".join(self.taken))
            raise ConfigError(f"{name!r} is not a {self.what} ({hint})")


def _value(section: _Unread, key: str, parse=str, default=None):
    """Take `key` out of `section` and convert it with `parse`; `default`
    if the section lacks it."""
    text = section.take(key)
    if text is None:
        if default is _NEEDED:
            raise ConfigError(f"missing {key!r}, a {section.what}")
        return default
    try:
        return parse(text)
    except (ValueError, DataError) as e:
        # a builtin conversion's message adds nothing to the quoted text
        detail = "" if type(e) is ValueError else f" ({e})"
        raise ConfigError(f"bad value for {key!r}: {text!r}{detail}") from None


def _listed(parse):
    """A parser of a comma-separated list of what `parse` reads."""
    return lambda text: tuple(parse(p.strip()) for p in text.split(",")
                              if p.strip())


# --------------------------------------------------------------- schema text

def _categories(kind: str) -> tuple[str, ...] | None:
    """The alphabet of a "cat(a|b|...)" kind, None for another kind."""
    kind = kind.strip()
    if kind.startswith("cat(") and kind.endswith(")"):
        return tuple(v.strip() for v in kind[4:-1].split("|") if v.strip())
    return None


def _parse_feature(part: str) -> AttributeSpec:
    name, _, kind = (s.strip() for s in part.partition(":"))
    cats = _categories(kind)
    if not name or (cats is None and kind != "num"):
        raise ConfigError(f"bad feature spec {part!r}")
    return AttributeSpec(name, "num" if cats is None else "cat", cats or ())


def _parse_label(spec: str) -> tuple[str, tuple[str, ...], str]:
    """(name, alphabet, positive value) of "name:cat(a|b)=positive", split
    at the '=' right after the alphabet's closing paren, so label tokens
    containing '=' (e.g. "<=50K") survive."""
    rparen = spec.rfind(")")
    name, _, kind = spec[:rparen + 1].partition(":")
    values = _categories(kind)
    if values is None or spec[rparen + 1:rparen + 2] != "=":
        raise ValueError(spec)
    return name.strip(), values, spec[rparen + 2:].strip()


def _parse_schema(src: _Unread) -> DatasetSchema:
    features = _value(src, "features", _listed(_parse_feature), _NEEDED)
    protected = _value(src, "protected",   # (attribute, value)
                       lambda t: t.partition("=")[::2], _NEEDED)
    label = _value(src, "label", _parse_label, _NEEDED)
    try:
        return DatasetSchema(features, *map(str.strip, protected), *label)
    except DataError as e:
        raise ConfigError(str(e))


def _schema_keys(s: DatasetSchema) -> list[tuple[str, str]]:
    """The (key, text) lines `_parse_schema` reads."""
    return [("features", ", ".join(
                f"{a.name}:num" if a.kind == "num"
                else f"{a.name}:cat({'|'.join(a.categories)})"
                for a in s.attributes)),
            ("protected", f"{s.protected_attribute}={s.protected_value}"),
            ("label", f"{s.label_name}:cat({'|'.join(s.label_values)})"
                      f"={s.positive_value}")]


# ------------------------------------------------------------ generator text

def _point(text: str) -> tuple[float, float]:
    t, _, v = text.partition(":")
    return float(t), float(v)


def _schedule(text: str) -> Schedule:
    return Schedule(_listed(_point)(text))


def _drift(text: str) -> DriftEvent:
    kind, start, duration, magnitude = text.split(":")
    return DriftEvent(kind, int(start), int(duration), float(magnitude))


def _joined(entries) -> str:
    """The text `_listed` reads: entries joined by ", ", the parts of a
    tuple entry by ":" (a float's str is its repr)."""
    return ", ".join(":".join(map(str, e)) if isinstance(e, tuple) else str(e)
                     for e in entries)


# (key, GeneratorConfig field, parse, format) of each generator key, in
# config-file order; a format that gives None leaves its line out
_GENERATOR_KEYS = (
    ("pos_means", "pos_means", _listed(float), _joined),
    ("neg_means", "neg_means", _listed(float), _joined),
    ("stds", "stds", _listed(float), _joined),
    ("ratio_schedule", "ratio", _schedule, lambda s: _joined(s.points)),
    ("bias_schedule", "bias", _schedule, lambda s: _joined(s.points)),
    ("length", "length", int, str),
    ("protected_share", "protected_share", float, repr),
    ("drifts", "drifts", _listed(_drift),
     lambda drifts: _joined(map(astuple, drifts)) or None),
)


def _parse_generator(src: _Unread) -> GeneratorConfig:
    for short, key in (("attributes", "pos_means"), ("class_gap", "pos_means"),
                       ("noise", "stds"), ("ratio", "ratio_schedule"),
                       ("bias", "bias_schedule")):   # shorthand, key it fills
        if short in src and key in src:
            raise ConfigError(f"give {short!r} or {key!r}, not both")
    d = _value(src, "attributes", int, 6)
    gap = _value(src, "class_gap", float, 0.4)
    std = _value(src, "noise", float, 1.0)
    defaults = {field: Schedule.constant(v) for field in ("ratio", "bias")
                if (v := _value(src, field, float)) is not None}
    defaults.update(length=50000, drifts=GeneratorConfig.drifts,
                    protected_share=GeneratorConfig.protected_share)
    if not src.keys() & {"pos_means", "neg_means", "stds"}:
        defaults.update(pos_means=(gap / 2.0,) * d,
                        neg_means=(-gap / 2.0,) * d, stds=(std,) * d)
    values = {field: _value(src, key, parse, defaults.get(field, _NEEDED))
              for key, field, parse, _ in _GENERATOR_KEYS}
    try:
        return GeneratorConfig(**values)
    except ValueError as e:
        raise ConfigError(str(e))


def _generator_keys(gen: GeneratorConfig) -> list[tuple[str, str | None]]:
    """The (key, text) lines `_parse_generator` reads."""
    return [(k, write(getattr(gen, f))) for k, f, _, write in _GENERATOR_KEYS]


def parse_notion(text: str) -> Notion | None:
    text = text.strip().lower()
    if text in ("none", ""):
        return None
    try:
        return Notion(text)
    except ValueError:
        raise ConfigError(f"unknown fairness notion {text!r}")


# --------------------------------------------------------------- the keys

class Key(NamedTuple):
    """How the config file holds one `ExperimentConfig` field, and the
    run/sweep flag that sets it.

    `parse` reads the key's text and `write` gives it back, or None to
    leave the line out. A field with no `name` is held by several keys:
    its `parse` reads them from the section and its `write` gives their
    (key, text) pairs. A [source] key is read only under its source
    `kind`. A flag's value is read by `parse`, and with `switch` the
    flag also selects `kind`. `sweep` holds the field's names for
    `fabboo sweep --param`."""
    section: str
    name: str | None
    parse: Callable = str
    write: Callable = lambda value: None if value is None else str(value)
    kind: str | None = None
    flag: str | None = None
    help: str | None = None
    choices: tuple | None = None
    sweep: tuple[str, ...] = ()
    switch: bool = False


def _key(default, *args, **kwargs):
    """A field holding `default`, declared by `Key(*args, **kwargs)`."""
    return field(default=default, metadata={"key": Key(*args, **kwargs)})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. The fields are in the order of their run/sweep
    flags and of their keys in a config file."""
    source_kind: str = _key("preset", "source", "kind")
    csv_path: str | None = _key(
        None, "source", "path", kind="csv", flag="--dataset", switch=True,
        help="CSV dataset path (needs schema keys from a config file)")
    schema: DatasetSchema | None = _key(
        None, "source", None, _parse_schema, _schema_keys, kind="csv")
    preset_name: str | None = _key(
        None, "source", "preset", kind="preset", flag="--preset", switch=True,
        help="named synthetic stream")
    length: int | None = _key(   # preset/generator length override
        None, "source", "length", int, kind="preset", flag="--length",
        help="stream length override")
    order: str = _key("shuffled", "source", "order", kind="csv",
                      flag="--order", choices=("shuffled", "stored"))
    generator: GeneratorConfig | None = _key(
        None, "source", None, _parse_generator, _generator_keys,
        kind="generator")
    method: str = _key("fabboo", "method", "method", flag="--method",
                       choices=METHODS)
    notion: Notion | None = _key(
        Notion.SP, "method", "fairness", parse_notion,
        lambda notion: notion.value if notion else "none", flag="--fairness",
        help="sp | eqop | peq | none")
    learners: int = _key(EnsembleParams.learners, "method", "learners", int,
                         flag="--learners", help="ensemble size N",
                         sweep=("learners", "n"))
    gamma: float = _key(EnsembleParams.gamma, "method", "gamma", float,
                        flag="--gamma", help="boosting edge parameter")
    decay: float = _key(EnsembleParams.decay, "method", "lambda", float,
                        flag="--lambda", help="imbalance-monitor decay",
                        sweep=("lambda",))
    window: int = _key(EnsembleParams.window, "method", "window", int,
                       flag="--window", help="boundary window capacity M",
                       sweep=("window", "m"))
    epsilon: float = _key(EnsembleParams.epsilon, "method", "epsilon", float,
                          flag="--epsilon", help="discrimination tolerance")
    smoothing: float = _key(EnsembleParams.smoothing, "method", "smoothing",
                            float, flag="--smoothing",
                            help="fairness denominator correction l")
    chunk: int = _key(CHUNK, "method", "chunk", int, flag="--chunk",
                      help="chunk size (cfbb)")
    shuffles: int = _key(1, "run", "shuffles", int, flag="--shuffles")
    seed: int = _key(1, "run", "seed", int, flag="--seed")
    stride: int = _key(100, "run", "stride", int, flag="--stride",
                       help="trace row stride")
    out_dir: str = _key("out", "output", "dir", flag="--out",
                        help="output directory")

    def ensemble_params(self) -> EnsembleParams:
        return method_params(**{name: getattr(self, name)
                                for name, key in KEYS.items()
                                if key.section == "method"})

    def eval_config(self) -> EvalConfig:
        return EvalConfig(stride=self.stride,
                          trace_notion=self.notion or Notion.SP,
                          decay=self.decay, smoothing=self.smoothing)

    def generator_config(self) -> GeneratorConfig:
        """The stream of a preset or generator source, `length` applied."""
        gen = (preset(self.preset_name) if self.source_kind == "preset"
               else self.generator)
        return with_overrides(gen, length=self.length)

    def validate(self) -> None:
        """Check the whole run before any data is read. The method and its
        parameters are checked by the ensemble and evaluation types built
        from them."""
        try:
            self.ensemble_params()
            self.eval_config()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.shuffles < 1:
            raise ConfigError("shuffles must be >= 1")
        if not self.out_dir:   # else the run writes into the working directory
            raise ConfigError("output dir must not be empty")
        if self.source_kind == "csv":
            if not self.csv_path or self.schema is None:
                raise ConfigError("csv source needs path and schema")
            if self.order not in KEYS["order"].choices:
                raise ConfigError(f"unknown order {self.order!r}")
            if self.order == "stored" and self.shuffles > 1:
                raise ConfigError("stored order admits only shuffles = 1")
            if self.length is not None:
                raise ConfigError("length applies only to preset and "
                                  "generator sources")
        elif self.order != "shuffled":
            raise ConfigError("order applies only to csv sources")
        elif self.source_kind not in ("preset", "generator"):
            raise ConfigError(f"unknown source kind {self.source_kind!r}")
        elif (self.source_kind == "preset"
              and self.preset_name not in PRESET_NAMES):
            raise ConfigError(f"unknown preset {self.preset_name!r}")
        elif self.source_kind == "generator" and self.generator is None:
            raise ConfigError("generator source needs a generator section")
        # an override is checked as given, since the stream it would build
        # refuses a negative length with a message of its own
        elif (self.length if self.length is not None
              else self.generator_config().length) < 1:
            raise ConfigError("length must be >= 1 for a run")


# the declaration of each field, in field order
KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}
# the field each `fabboo sweep --param` name sets
SWEEPS = {sweep: name for name, key in KEYS.items() for sweep in key.sweep}


# ------------------------------------------------------------------- parsing

def parse_config_text(text: str) -> ExperimentConfig:
    # no "%" interpolation, and [DEFAULT] is an unknown section like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.ParsingError as e:
        # configparser's message spans lines; a line before any section
        # header is `lineno`, other unparsable lines are in `errors`
        lineno = getattr(e, "lineno", None) or e.errors[0][0]
        raise ConfigError(f"malformed config: line {lineno} is not a [section]"
                          f" header, a comment or 'key = value' under a header")
    except configparser.DuplicateOptionError as e:
        raise ConfigError(f"malformed config: line {e.lineno} repeats key "
                          f"{e.option!r} of [{e.section}]")
    except configparser.DuplicateSectionError as e:
        raise ConfigError(f"malformed config: line {e.lineno} repeats "
                          f"section [{e.section}]")
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}")
    config = _Unread({name: _Unread(cp[name], f"key of [{name}]")
                      for name in cp.sections()}, "config section")
    sections = {name: config.take(name) or _Unread({}, "")
                for name in ("source", "method", "run", "output")}
    values = {}
    for name, key in KEYS.items():
        if key.kind not in (None, values.get("source_kind")):
            continue   # a key of another source kind
        section = sections[key.section]
        values[name] = (key.parse(section) if key.name is None else
                        _value(section, key.name, key.parse,
                               getattr(ExperimentConfig, name)))
        if name == "source_kind":   # the kind decides which keys follow
            if values[name] not in ("csv", "preset", "generator"):
                raise ConfigError(f"unknown source kind {values[name]!r}")
            section.what = f"key of a {values[name]} [source]"
    for unread in (config, *sections.values()):
        unread.check_read()
    return ExperimentConfig(**values)


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:   # missing, a directory, not readable
        raise ConfigError(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {not_utf8(path, e)}") from None
    return parse_config_text(text)


# --------------------------------------------------------------- serializing

def config_to_text(cfg: ExperimentConfig) -> str:
    if cfg.source_kind == "generator":   # bake a length override in
        cfg = replace(cfg, generator=cfg.generator_config())
    lines, section = [], None
    for name, key in KEYS.items():
        if key.kind not in (None, cfg.source_kind):
            continue
        if key.section != section:
            section = key.section
            lines += ["", f"[{section}]"]
        value = getattr(cfg, name)
        pairs = (key.write(value) if key.name is None
                 else [(key.name, key.write(value))])
        lines += [f"{k} = {text}" for k, text in pairs if text is not None]
    return "\n".join(lines[1:]) + "\n"
