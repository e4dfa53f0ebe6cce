"""Experiment configuration: file format, validation and serialization.

Configs are flat key/value text with section headers (INI syntax). The
same keys can be overridden from the command line. Example:

    [source]
    kind = csv
    path = data/adult.csv
    features = age:num, sex:cat(Female|Male)
    protected = sex=Female
    label = income:cat(>50K|<=50K)=>50K
    order = shuffled

    [method]
    method = fabboo
    fairness = sp
    learners = 20
    gamma = 0.1
    lambda = 0.9
    window = 2000
    epsilon = 0.0001
    smoothing = 1.0
    chunk = 1000

    [run]
    shuffles = 10
    seed = 1
    stride = 100

    [output]
    dir = out

Sources come in three kinds: `csv` (path + schema as above), `preset`
(named synthetic stream, optional `length` override) and `generator`
(explicit Gaussian stream spec: `attributes`/`class_gap` or explicit
`pos_means`/`neg_means`/`stds` lists, `ratio`/`bias` constants or
`ratio_schedule`/`bias_schedule` point lists "t:value, t:value", and
`drifts` as "kind:start:duration:magnitude" entries).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .boosting import CHUNK, EnsembleParams, method_params
from .data import AttributeSpec, DatasetSchema, DataError
from .fairness import Notion
from .generators import (DriftEvent, GeneratorConfig, PRESET_NAMES, Schedule,
                         preset, with_overrides)
from .prequential import EvalConfig


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# (section, key, field, type, help) of each scalar run parameter, in
# config-file order: parsing, serialisation and the run/sweep flags read it
PARAMS = (
    ("method", "learners", "learners", int, "ensemble size N"),
    ("method", "gamma", "gamma", float, "boosting edge parameter"),
    ("method", "lambda", "decay", float, "imbalance-monitor decay"),
    ("method", "window", "window", int, "boundary window capacity M"),
    ("method", "epsilon", "epsilon", float, "discrimination tolerance"),
    ("method", "smoothing", "smoothing", float,
     "fairness denominator correction l"),
    ("method", "chunk", "chunk", int, "chunk size (cfbb)"),
    ("run", "shuffles", "shuffles", int, None),
    ("run", "seed", "seed", int, None),
    ("run", "stride", "stride", int, "trace row stride"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    source_kind: str = "preset"          # csv | preset | generator
    csv_path: str | None = None
    schema: DatasetSchema | None = None
    order: str = "shuffled"              # shuffled | stored (csv only)
    preset_name: str | None = None
    generator: GeneratorConfig | None = None
    length: int | None = None            # preset/generator length override
    method: str = "fabboo"
    notion: Notion | None = Notion.SP
    learners: int = EnsembleParams.learners
    gamma: float = EnsembleParams.gamma
    decay: float = EnsembleParams.decay  # imbalance decay (the lambda knob)
    window: int = EnsembleParams.window
    epsilon: float = EnsembleParams.epsilon
    smoothing: float = EnsembleParams.smoothing
    chunk: int = CHUNK
    shuffles: int = 1
    seed: int = 1
    stride: int = 100
    out_dir: str = "out"

    def ensemble_params(self) -> EnsembleParams:
        return method_params(self.method, self.notion, **{
            field: getattr(self, field)
            for section, _, field, _, _ in PARAMS if section == "method"})

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
        if self.source_kind == "csv":
            if not self.csv_path or self.schema is None:
                raise ConfigError("csv source needs path and schema")
            if self.order not in ("shuffled", "stored"):
                raise ConfigError(f"unknown order {self.order!r}")
            if self.order == "stored" and self.shuffles > 1:
                raise ConfigError("stored order admits only shuffles = 1")
            if self.length is not None:
                raise ConfigError("length applies only to preset and "
                                  "generator sources")
        elif self.source_kind == "preset":
            if self.preset_name not in PRESET_NAMES:
                raise ConfigError(f"unknown preset {self.preset_name!r}")
        elif self.source_kind == "generator":
            if self.generator is None:
                raise ConfigError("generator source needs a generator section")
        else:
            raise ConfigError(f"unknown source kind {self.source_kind!r}")


# --------------------------------------------------------------- schema text

def _parse_features(text: str) -> tuple[AttributeSpec, ...]:
    attrs = []
    for part in _split_list(text):
        name, _, kind = part.partition(":")
        name = name.strip()
        kind = kind.strip()
        if not name or not kind:
            raise ConfigError(f"bad feature spec {part!r}")
        if kind == "num":
            attrs.append(AttributeSpec(name, "num"))
        elif kind.startswith("cat(") and kind.endswith(")"):
            cats = tuple(v.strip() for v in kind[4:-1].split("|") if v.strip())
            attrs.append(AttributeSpec(name, "cat", cats))
        else:
            raise ConfigError(f"bad feature kind in {part!r}")
    if not attrs:
        raise ConfigError("empty feature list")
    return tuple(attrs)


def _format_features(attrs) -> str:
    parts = []
    for a in attrs:
        if a.kind == "num":
            parts.append(f"{a.name}:num")
        else:
            parts.append(f"{a.name}:cat({'|'.join(a.categories)})")
    return ", ".join(parts)


def _parse_schema(section) -> DatasetSchema:
    try:
        features = _parse_features(section["features"])
        prot_name, _, prot_value = section["protected"].partition("=")
        label_spec = section["label"]
    except KeyError as e:
        raise ConfigError(f"csv source needs key {e.args[0]!r}")
    # split at the '=' right after the alphabet's closing paren, so label
    # tokens containing '=' (e.g. "<=50K") survive
    rparen = label_spec.rfind(")")
    if rparen < 0 or rparen + 1 >= len(label_spec) or label_spec[rparen + 1] != "=":
        raise ConfigError(f"bad label spec {label_spec!r}")
    head = label_spec[:rparen + 1]
    positive = label_spec[rparen + 2:]
    label_name, _, kind = head.partition(":")
    if not (kind.strip().startswith("cat(") and kind.strip().endswith(")")):
        raise ConfigError(f"bad label spec {label_spec!r}")
    values = tuple(v.strip() for v in kind.strip()[4:-1].split("|") if v.strip())
    try:
        return DatasetSchema(
            attributes=features,
            protected_attribute=prot_name.strip(),
            protected_value=prot_value.strip(),
            label_name=label_name.strip(),
            label_values=values,
            positive_value=positive.strip(),
        )
    except DataError as e:
        raise ConfigError(str(e))


def _split_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


# ------------------------------------------------------------ generator text

def _parse_schedule(section, base: str) -> Schedule:
    if f"{base}_schedule" in section:
        points = []
        for part in _split_list(section[f"{base}_schedule"]):
            t, _, v = part.partition(":")
            points.append((float(t), float(v)))
        return Schedule(tuple(points))
    if base in section:
        return Schedule.constant(float(section[base]))
    raise ConfigError(f"generator needs {base!r} or {base}_schedule")


def _format_schedule(s: Schedule) -> str:
    return ", ".join(f"{t!r}:{v!r}" for t, v in s.points)


def _parse_generator(section) -> GeneratorConfig:
    if "pos_means" in section:
        pos = tuple(float(v) for v in _split_list(section["pos_means"]))
        neg = tuple(float(v) for v in _split_list(section["neg_means"]))
        stds = tuple(float(v) for v in _split_list(section["stds"]))
    else:
        d = int(section.get("attributes", "6"))
        gap = float(section.get("class_gap", "0.4"))
        std = float(section.get("noise", "1.0"))
        pos = (gap / 2.0,) * d
        neg = (-gap / 2.0,) * d
        stds = (std,) * d
    drifts = []
    for part in _split_list(section.get("drifts", "")):
        bits = part.split(":")
        if len(bits) != 4:
            raise ConfigError(f"bad drift spec {part!r}")
        drifts.append(DriftEvent(bits[0], int(bits[1]), int(bits[2]),
                                 float(bits[3])))
    try:
        return GeneratorConfig(
            pos_means=pos, neg_means=neg, stds=stds,
            ratio=_parse_schedule(section, "ratio"),
            bias=_parse_schedule(section, "bias"),
            length=int(section.get("length", "50000")),
            protected_share=float(section.get("protected_share", "0.4")),
            drifts=tuple(drifts),
        )
    except ValueError as e:
        raise ConfigError(str(e))


# ------------------------------------------------------------------- parsing

def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}")

    cfg = ExperimentConfig()
    updates: dict = {}
    if cp.has_section("source"):
        src = cp["source"]
        kind = src.get("kind", "preset")
        updates["source_kind"] = kind
        if kind == "csv":
            updates["csv_path"] = src.get("path")
            updates["schema"] = _parse_schema(src)
            updates["order"] = src.get("order", "shuffled")
        elif kind == "preset":
            updates["preset_name"] = src.get("preset")
        elif kind == "generator":
            updates["generator"] = _parse_generator(src)
        if "length" in src and kind != "generator":
            updates["length"] = int(src["length"])
    if cp.has_section("method"):
        m = cp["method"]
        if "method" in m:
            updates["method"] = m["method"]
        if "fairness" in m:
            updates["notion"] = parse_notion(m["fairness"])
    for section, key, field, conv, _ in PARAMS:
        if cp.has_option(section, key):
            raw = cp[section][key]
            try:
                updates[field] = conv(raw)
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {raw!r}")
    if cp.has_section("output") and "dir" in cp["output"]:
        updates["out_dir"] = cp["output"]["dir"]
    return replace(cfg, **updates)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_notion(text: str) -> Notion | None:
    text = text.strip().lower()
    if text in ("none", ""):
        return None
    try:
        return Notion(text)
    except ValueError:
        raise ConfigError(f"unknown fairness notion {text!r}")


# --------------------------------------------------------------- serializing

def config_to_text(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    out.write("[source]\n")
    out.write(f"kind = {cfg.source_kind}\n")
    if cfg.source_kind == "csv":
        out.write(f"path = {cfg.csv_path}\n")
        s = cfg.schema
        out.write(f"features = {_format_features(s.attributes)}\n")
        out.write(f"protected = {s.protected_attribute}={s.protected_value}\n")
        out.write(f"label = {s.label_name}:cat({'|'.join(s.label_values)})"
                  f"={s.positive_value}\n")
        out.write(f"order = {cfg.order}\n")
    elif cfg.source_kind == "preset":
        out.write(f"preset = {cfg.preset_name}\n")
    else:
        g = cfg.generator_config()
        out.write(f"pos_means = {', '.join(repr(v) for v in g.pos_means)}\n")
        out.write(f"neg_means = {', '.join(repr(v) for v in g.neg_means)}\n")
        out.write(f"stds = {', '.join(repr(v) for v in g.stds)}\n")
        out.write(f"ratio_schedule = {_format_schedule(g.ratio)}\n")
        out.write(f"bias_schedule = {_format_schedule(g.bias)}\n")
        out.write(f"length = {g.length}\n")
        out.write(f"protected_share = {g.protected_share!r}\n")
        if g.drifts:
            out.write("drifts = " + ", ".join(
                f"{d.kind}:{d.start}:{d.duration}:{d.magnitude!r}"
                for d in g.drifts) + "\n")
    if cfg.length is not None and cfg.source_kind == "preset":
        out.write(f"length = {cfg.length}\n")
    out.write("\n[method]\n")
    out.write(f"method = {cfg.method}\n")
    out.write(f"fairness = {cfg.notion.value if cfg.notion else 'none'}\n")
    section = "method"
    for sec, key, field, _, _ in PARAMS:
        if sec != section:
            section = sec
            out.write(f"\n[{section}]\n")
        out.write(f"{key} = {getattr(cfg, field)!r}\n")
    out.write("\n[output]\n")
    out.write(f"dir = {cfg.out_dir}\n")
    return out.getvalue()
