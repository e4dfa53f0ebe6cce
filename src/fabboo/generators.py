"""Synthetic stream generation: Gaussian class concepts, drift schedules,
class-ratio schedules and injected group bias.

Each instance draws its label from the ratio schedule, its group membership
from a label-conditioned probability chosen so that P(+|non-protected) -
P(+|protected) equals the bias schedule value, and its numeric features
from the per-class Gaussians. The protected attribute itself is appended
to the feature vector as a categorical column ("A" = protected), the same
way the sensitive column appears in the real datasets this mirrors.

Drift shifts the class means toward (and past) each other, each attribute
in proportion to its own class mean gap: magnitude 1 swaps the two
concepts exactly, a genuine change of P(y|x) rather than a translation of
the feature space, and uninformative attributes stay uninformative.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterator

from .data import AttributeSpec, DatasetSchema, Instance, POSITIVE, NEGATIVE
from .rng import gaussians, outputs

PROTECTED_TOKEN = "A"
NON_PROTECTED_TOKEN = "B"


class GeneratorError(ValueError):
    """Invalid or infeasible generator configuration."""


@dataclass(frozen=True)
class Schedule:
    """Piecewise function of the arrival index t (1-based).

    `points` are (t, value) control points sorted by t; between points the
    value is interpolated linearly; outside the range the nearest endpoint
    value applies.
    """
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise GeneratorError("schedule needs at least one control point")
        ts = [t for t, _ in self.points]
        if ts != sorted(ts):
            raise GeneratorError("schedule control points must be sorted by t")
        object.__setattr__(self, "_ts", ts)   # for value's bisect

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls(((1.0, value),))

    def value(self, t: float) -> float:
        pts = self.points
        i = bisect_left(self._ts, t)   # the first point at or past t
        if not 0 < i < len(pts):   # at or before the first, or past the last
            return pts[max(i - 1, 0)][1]
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        return v0 + (t - t0) / (t1 - t0) * (v1 - v0)


@dataclass(frozen=True)
class DriftEvent:
    kind: str        # "sudden" | "gradual" | "recurrent"
    start: int
    duration: int    # 0 for sudden; ramp length otherwise
    magnitude: float  # mean shift as a fraction of each class mean gap

    def __post_init__(self):
        if self.kind not in ("sudden", "gradual", "recurrent"):
            raise GeneratorError(f"unknown drift kind {self.kind!r}")
        if self.kind != "sudden" and self.duration <= 0:
            raise GeneratorError(f"{self.kind} drift needs a positive duration")

    def shift(self, t: int) -> float:
        if t < self.start:
            return 0.0
        if self.kind == "sudden":
            return self.magnitude
        if self.kind == "gradual":
            if t >= self.start + self.duration:
                return self.magnitude
            return self.magnitude * (t - self.start) / self.duration
        # recurrent: triangular ramp out and back
        end = self.start + self.duration
        if t >= end:
            return 0.0
        half = self.duration / 2.0
        elapsed = t - self.start
        if elapsed <= half:
            return self.magnitude * elapsed / half
        return self.magnitude * (end - t) / half


@dataclass(frozen=True)
class GeneratorConfig:
    pos_means: tuple[float, ...]
    neg_means: tuple[float, ...]
    stds: tuple[float, ...]
    ratio: Schedule               # t -> P(positive)
    bias: Schedule                # t -> P(+|nonprot) - P(+|prot)
    length: int
    seed: int = 1
    protected_share: float = 0.4  # overall P(protected)
    drifts: tuple[DriftEvent, ...] = ()

    def __post_init__(self):
        d = len(self.pos_means)
        if len(self.neg_means) != d or len(self.stds) != d:
            raise GeneratorError("per-class mean and std vectors must share length")
        if any(s <= 0.0 for s in self.stds):
            raise GeneratorError("stds must be positive")
        if self.length < 0:
            raise GeneratorError("length must be >= 0")
        if not 0.0 < self.protected_share < 1.0:
            raise GeneratorError("protected_share must be in (0, 1)")
        for ev in self.drifts:
            if not 1 <= ev.start <= max(self.length, 1):
                raise GeneratorError("drift start outside the stream")
        self._validate_bias_feasible()

    def _validate_bias_feasible(self) -> None:
        checkpoints = {1.0, float(self.length or 1)}
        checkpoints.update(t for t, _ in self.ratio.points + self.bias.points)
        r = self.protected_share
        for t in sorted(checkpoints):
            p = self.ratio.value(t)
            b = self.bias.value(t)
            if not 0.0 <= p <= 1.0:
                raise GeneratorError(f"class ratio {p} outside [0,1] at t={t:g}")
            a = p - (1.0 - r) * b       # P(+ | protected)
            abar = p + r * b            # P(+ | non-protected)
            if not (0.0 <= a <= 1.0 and 0.0 <= abar <= 1.0):
                raise GeneratorError(
                    f"bias {b} infeasible for ratio {p} at t={t:g}: "
                    f"per-group rates ({a:.4f}, {abar:.4f}) leave [0,1]")

    def schema(self) -> DatasetSchema:
        attrs = [AttributeSpec(f"f{j + 1}", "num")
                 for j in range(len(self.pos_means))]
        attrs.append(AttributeSpec(
            "group", "cat", (PROTECTED_TOKEN, NON_PROTECTED_TOKEN)))
        return DatasetSchema(
            attributes=tuple(attrs),
            protected_attribute="group",
            protected_value=PROTECTED_TOKEN,
            label_name="label",
            label_values=("pos", "neg"),
            positive_value="pos",
        )


def generate(config: GeneratorConfig) -> Iterator[Instance]:
    """Deterministic instance stream for the given configuration; rates,
    drift shift and class means are computed only where they can change."""
    outs = outputs(config.seed)
    draw, normal = outs.__next__, gaussians(outs).__next__
    r, drifts, stds = config.protected_share, config.drifts, config.stds
    new = tuple.__new__   # Instance(...) without its Python-level __new__

    def rates(t):   # P(+), P(protected | +) and P(protected | -)
        p = config.ratio.value(t)
        a = p - (1.0 - r) * config.bias.value(t)
        return (p, a * r / p if p > 0.0 else 0.0,
                (1.0 - a) * r / (1.0 - p) if p < 1.0 else 0.0)

    def means(shift):   # the class means, shifted toward each other
        mu_pos, mu_neg = [], []
        for pm, nm in zip(config.pos_means, config.neg_means):
            step = shift * (pm - nm)
            mu_pos.append(pm - step)
            mu_neg.append(nm + step)
        return mu_pos, mu_neg

    p, z_pos, z_neg = rates(1)
    varying = len(config.ratio.points) + len(config.bias.points) > 2
    starts = (None if any(ev.kind != "sudden" for ev in drifts)
              else {ev.start for ev in drifts})
    shift, (mu_pos, mu_neg) = 0.0, means(0.0)
    for t in range(1, config.length + 1):
        if varying:
            p, z_pos, z_neg = rates(t)
        if starts is None or t in starts:
            total = 0.0
            for ev in drifts:
                total += ev.shift(t)
            if total != shift:
                shift, (mu_pos, mu_neg) = total, means(total)
        positive = (draw() >> 11) * 2.0 ** -53 < p
        group = (draw() >> 11) * 2.0 ** -53 < (z_pos if positive else z_neg)
        feats = []
        for mu, s in zip(mu_pos if positive else mu_neg, stds):
            feats.append(mu + s * normal())
        feats.append(PROTECTED_TOKEN if group else NON_PROTECTED_TOKEN)
        yield new(Instance, (tuple(feats), group,
                             POSITIVE if positive else NEGATIVE, t))


def _gauss_config(gaps, n: int, ratio: Schedule, bias: Schedule,
                  drifts=()) -> GeneratorConfig:
    """Unit-std class Gaussians whose means lie +/- gap / 2 around 0."""
    return GeneratorConfig(
        pos_means=tuple(g / 2 for g in gaps),
        neg_means=tuple(-g / 2 for g in gaps),
        stds=(1.0,) * len(gaps),
        ratio=ratio,
        bias=bias,
        length=n,
        drifts=tuple(drifts),
    )


def _fluctuating_bias(n: int, low: float = 0.1, high: float = 0.4,
                      cycles: int = 4) -> Schedule:
    points = [(0.0, low)]
    seg = n / (2 * cycles)
    for i in range(1, 2 * cycles + 1):
        points.append((i * seg, high if i % 2 else low))
    return Schedule(tuple(points))


PRESET_NAMES = (
    "paper_synth", "ratio_fixed", "ratio_increasing", "ratio_decreasing",
    "ratio_fluctuating", "drift_sudden", "drift_gradual", "drift_recurrent",
)


def preset(name: str) -> GeneratorConfig:
    """Pinned generator configurations for the evaluation streams.

    paper_synth reproduces the shape of the full-scale benchmark stream
    (6 Gaussian attributes, ~1:3.13 class ratio, constant bias, 5 sudden
    concept inversions at fixed fractions of the stream). The remaining
    presets are 50k-instance desk-scale streams for the ratio and drift
    studies; the drift presets fluctuate the encoded bias over time.
    """
    if name == "paper_synth":
        n = 150_000
        drifts = tuple(
            DriftEvent("sudden", int(frac * n), 0, mag)
            for frac, mag in zip((0.15, 0.30, 0.45, 0.60, 0.75),
                                 (0.2, -0.2, 0.2, -0.2, 0.2)))
        # attributes of graded strength: one dominant, a tail of weak ones
        return _gauss_config((1.5, 0.6, 0.4, 0.3, 0.2, 0.1), n,
                             Schedule.constant(1.0 / 4.13),
                             Schedule.constant(0.25), drifts)
    n = 50_000
    if name == "ratio_fixed":
        return _gauss_config((0.4,) * 6, n, Schedule.constant(0.25),
                             Schedule.constant(0.2))
    if name == "ratio_increasing":
        return _gauss_config((0.4,) * 6, n, Schedule(((1.0, 0.10), (n, 0.50))),
                             Schedule.constant(0.15))
    if name == "ratio_decreasing":
        return _gauss_config((0.4,) * 6, n, Schedule(((1.0, 0.50), (n, 0.10))),
                             Schedule.constant(0.15))
    if name == "ratio_fluctuating":
        return _gauss_config((0.4,) * 6, n,
                             Schedule(((1.0, 0.25), (n / 2, 0.70), (n, 0.25))),
                             Schedule.constant(0.2))
    if name == "drift_sudden":
        # two informative attributes plus noise: leaves are close to pure
        # when the swap hits, which is what makes frozen trees stay wrong
        drift = DriftEvent("sudden", 25_000, 0, 1.0)
        return _gauss_config((2.2, 1.2, 0.0, 0.0, 0.0, 0.0), n,
                             Schedule.constant(0.5), _fluctuating_bias(n),
                             (drift,))
    if name == "drift_gradual":
        drift = DriftEvent("gradual", 10_000, 25_000, 1.0)
        return _gauss_config((0.8,) * 6, n, Schedule.constant(0.5),
                             _fluctuating_bias(n), (drift,))
    if name == "drift_recurrent":
        drift = DriftEvent("recurrent", 10_000, 30_000, 1.0)
        return _gauss_config((0.8,) * 6, n, Schedule.constant(0.5),
                             _fluctuating_bias(n), (drift,))
    raise GeneratorError(f"unknown preset {name!r}")


def with_overrides(config: GeneratorConfig, *, length: int | None = None,
                   seed: int | None = None) -> GeneratorConfig:
    """Copy of `config` with a new length and/or seed (drift plans and
    schedules keep their absolute positions)."""
    kwargs = {}
    if length is not None:
        kwargs["length"] = length
        kwargs["drifts"] = tuple(ev for ev in config.drifts if ev.start <= length)
    if seed is not None:
        kwargs["seed"] = seed
    return replace(config, **kwargs)
