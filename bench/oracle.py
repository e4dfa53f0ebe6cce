"""Independent checks of fabboo's run outputs, and their digests.

A run directory holds `shuffle-NN/trace.csv` and `shuffle-NN/summary.txt`
per shuffle, plus `aggregate.txt` when it came from `fabboo run`. The
oracle replays a stride-1 trace: it recounts the confusion matrix and the
per-group fairness counters from the (pred, label, group) columns, checks
every row's derived columns against them, and checks the final summary
with exact `Fraction` arithmetic. Nothing here imports fabboo.

Every check returns a list of problem strings; an empty list means the
outputs hold.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from fractions import Fraction
from pathlib import Path

# 6-decimal trace columns: rounding error 5e-7, plus float slack
ROW_TOL = 1e-6
# summary floats against the exact rational value
FINAL_TOL = 1e-12
# aggregate.txt mean/std, also printed with 6 decimals
AGG_TOL = 1e-6

AGGREGATED = ("bal_acc", "gmean", "recall", "kappa",
              "cum_sp", "cum_eqop", "cum_peq")
NOTIONS = ("sp", "eqop", "peq")


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class _Counts:
    """Confusion counts and the per-group counters the fairness notions use."""

    def __init__(self):
        self.tp = self.fp = self.tn = self.fn = 0
        # [seen, seen_pos, seen_neg, pred_pos, tp, tn] for protected (z)
        # and non-protected (o) instances
        self.z = [0] * 6
        self.o = [0] * 6

    def add(self, pred: int, label: int, group: int) -> None:
        pos, pred_pos = label == 1, pred == 1
        if pred_pos:
            if pos:
                self.tp += 1
            else:
                self.fp += 1
        elif pos:
            self.fn += 1
        else:
            self.tn += 1
        g = self.z if group else self.o
        g[0] += 1
        if pos:
            g[1] += 1
            g[4] += pred_pos
        else:
            g[2] += 1
            g[5] += not pred_pos
        g[3] += pred_pos

    def fair_counts(self, notion: str):
        """(favorable_o, base_o, favorable_z, base_z) of a notion."""
        o, z = self.o, self.z
        if notion == "sp":
            return o[3], o[0], z[3], z[0]
        if notion == "eqop":
            return o[4], o[1], z[4], z[1]
        return o[5], o[2], z[5], z[2]

    def float_metrics(self):
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        total = tp + fp + tn + fn
        recall = tp / (tp + fn) if tp + fn else 0.0
        tnr = tn / (tn + fp) if tn + fp else 0.0
        kappa = 0.0
        if total:
            p_o = (tp + tn) / total
            p_e = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (total * total)
            if p_e != 1.0:
                kappa = (p_o - p_e) / (1.0 - p_e)
        return (recall + tnr) / 2.0, math.sqrt(recall * tnr), recall, kappa

    def exact_metrics(self):
        tp, fp, tn, fn = self.tp, self.fp, self.tn, self.fn
        total = tp + fp + tn + fn
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        tnr = Fraction(tn, tn + fp) if tn + fp else Fraction(0)
        kappa = Fraction(0)
        if total:
            p_o = Fraction(tp + tn, total)
            p_e = Fraction((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn),
                           total * total)
            if p_e != 1:
                kappa = (p_o - p_e) / (1 - p_e)
        return {"bal_acc": (recall + tnr) / 2,
                "gmean": math.sqrt(recall * tnr),
                "recall": recall, "kappa": kappa}

    def fair_value(self, notion: str, smoothing: float) -> float:
        fo, bo, fz, bz = self.fair_counts(notion)
        l = smoothing
        rate_o = fo / (bo + l) if bo + l > 0 else 0.0
        rate_z = fz / (bz + l) if bz + l > 0 else 0.0
        return rate_o - rate_z

    def exact_fair_value(self, notion: str, smoothing: float) -> Fraction:
        fo, bo, fz, bz = self.fair_counts(notion)
        l = Fraction(smoothing)
        rate_o = fo / (bo + l) if bo + l > 0 else Fraction(0)
        rate_z = fz / (bz + l) if bz + l > 0 else Fraction(0)
        return rate_o - rate_z


def check_shuffle(run_dir: Path, *, notion: str, smoothing: float,
                  decay: float) -> list[str]:
    """Replay one stride-1 trace.csv and hold summary.txt against it."""
    problems = []
    where = run_dir.name
    counts = _Counts()
    w_pos = w_neg = 0.0
    keep = 1.0 - decay
    t = 0
    with open(run_dir / "trace.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.split(",")
            t += 1
            if int(cells[0]) != t:
                return [f"{where}: trace row {t} has t={cells[0]} (stride 1 expected)"]
            pred, label, group = int(cells[1]), int(cells[2]), int(cells[3])
            counts.add(pred, label, group)
            if label == 1:
                w_pos, w_neg = decay * w_pos + keep, decay * w_neg
            else:
                w_pos, w_neg = decay * w_pos, decay * w_neg + keep
            expected = (w_pos - w_neg, counts.fair_value(notion, smoothing)) \
                + counts.float_metrics()
            got = (cells[4], cells[5]) + tuple(cells[7:11])
            for name, e, g in zip(("ocis", "cum_metric", "bal_acc", "gmean",
                                   "recall", "kappa"), expected, got):
                if abs(float(g) - e) > ROW_TOL:
                    problems.append(f"{where}: row {t} {name} = {g.strip()}, "
                                    f"recomputed {e:.6f}")
                    if len(problems) > 5:
                        return problems

    summary = read_summary(run_dir / "summary.txt")
    for key, value in (("instances", t), ("tp", counts.tp), ("fp", counts.fp),
                       ("tn", counts.tn), ("fn", counts.fn)):
        if int(summary[key]) != value:
            problems.append(f"{where}: summary {key} = {summary[key]}, "
                            f"recounted {value}")
    exact = counts.exact_metrics()
    for n in NOTIONS:
        exact[f"cum_{n}"] = counts.exact_fair_value(n, smoothing)
    for key, value in exact.items():
        if abs(float(summary[key]) - float(value)) > FINAL_TOL:
            problems.append(f"{where}: summary {key} = {summary[key]}, "
                            f"exact {float(value)!r}")
    return problems


def check_aggregate(out_dir: Path, shuffle_dirs: list[Path]) -> list[str]:
    """Hold aggregate.txt's mean ± std lines against the per-shuffle summaries."""
    summaries = [read_summary(d / "summary.txt") for d in shuffle_dirs]
    agg = read_summary(out_dir / "aggregate.txt")
    problems = []
    if int(agg.get("shuffles", -1)) != len(summaries):
        problems.append(f"aggregate shuffles = {agg.get('shuffles')}, "
                        f"found {len(summaries)} shuffle directories")
    for key in AGGREGATED:
        values = [float(s[key]) for s in summaries]
        mean = float(sum(map(Fraction, values)) / len(values))
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        mean_txt, _, std_txt = agg.get(key, "nan ± nan").partition(" ± ")
        if abs(float(mean_txt) - mean) > AGG_TOL \
                or abs(float(std_txt) - std) > AGG_TOL:
            problems.append(f"aggregate {key} = {agg.get(key)}, "
                            f"recomputed {mean:.6f} ± {std:.6f}")
    return problems


def run_dir_digest(out_dir: Path) -> str:
    """SHA-256 over every trace.csv, and the summary and aggregate lines
    except the timing line wall_s, in a fixed order."""
    h = hashlib.sha256()

    def add_text(path: Path):
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            if not line.startswith("wall_s "):
                h.update(line.encode())

    for d in sorted(out_dir.glob("shuffle-*")):
        h.update(f"{d.name}/trace.csv\n".encode())
        h.update((d / "trace.csv").read_bytes())
        h.update(f"{d.name}/summary.txt\n".encode())
        add_text(d / "summary.txt")
    if (out_dir / "aggregate.txt").exists():
        h.update(b"aggregate.txt\n")
        add_text(out_dir / "aggregate.txt")
    return h.hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
