"""First-test-then-train driver wiring models, monitors and metrics.

For every arriving instance the driver asks the model for a prediction,
records it into the confusion counts and the reporting fairness ledger,
updates the reporting imbalance monitor with the revealed label, and only
then lets the model learn. Each prediction depends only on earlier
arrivals: the model sees an instance's label only after predicting it.
When the boosting pipeline runs (see pipeline.py), the driver pulls up to
`pipeline.LOOKAHEAD` arrivals ahead of the one it serves, and a helper
process trains the first learners on them ahead of the prediction; each
of those learners still scores an arrival before it trains on it, so the
predictions, the trace and the model's final state are those of the
serial loop.

The per-step trace (one row every `stride` steps) and the final summary are
both derived from the same streaming counters, so summary values can be
recomputed offline from a stride-1 trace. The trace goes to any object
with `append(row)`: a list by default, or a `TraceWriter`, which writes
each row to an open file as it is made. The CLI streams every shuffle's
trace to its `trace.csv` that way, so a run holds no trace row in memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol

from .boosting import EnsembleParams
from .data import Instance
from .fairness import FairnessLedger, Notion
from .imbalance import ImbalanceMonitor
from .metrics import ConfusionCounts, metrics
from .parallel import arrivals


class OnlineClassifier(Protocol):
    def predict(self, features, group: bool) -> int: ...
    def learn(self, features, group: bool, label: int, predicted: int) -> None: ...


@dataclass(frozen=True)
class EvalConfig:
    stride: int = 1
    trace_notion: Notion = Notion.SP   # which fairness value the trace carries
    decay: float = EnsembleParams.decay           # reporting monitor decay
    smoothing: float = EnsembleParams.smoothing   # reporting ledger smoothing

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


class TraceRow(NamedTuple):
    t: int
    pred: int
    label: int
    group: int
    ocis: float
    cum_metric: float
    theta: float
    bal_acc: float
    gmean: float
    recall: float
    kappa: float


TRACE_HEADER = "t,pred,label,group,ocis,cum_metric,theta,bal_acc,gmean,recall,kappa"
_ROW = "{},{},{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}\n".format


class TraceWriter:
    """A trace that writes the header to the open text file `fh`, then each
    appended row as one CSV line; it keeps no row."""

    def __init__(self, fh):
        fh.write(TRACE_HEADER + "\n")
        self._write = fh.write

    def append(self, row: TraceRow) -> None:
        self._write(_ROW(*row))


@dataclass
class Summary:
    instances: int
    tp: int
    fp: int
    tn: int
    fn: int
    bal_acc: float
    gmean: float
    recall: float
    kappa: float
    cum_sp: float
    cum_eqop: float
    cum_peq: float
    final_theta: float
    wall_s: float

    def to_text(self) -> str:
        lines = [f"{k} = {v!r}" for k, v in vars(self).items()]
        return "\n".join(lines) + "\n"


def run_prequential(model: OnlineClassifier, source: Iterable[Instance],
                    config: EvalConfig = EvalConfig(),
                    trace=None, *, cpus: int | None = None):
    """Evaluate `model` prequentially over `source`.

    Returns (trace, summary). `trace` is any object with `append(row)`
    (a new list when None), which gets each TraceRow as it is made: pass
    a list to keep the partial trace when a model or source error aborts
    the run (the exception propagates), or a TraceWriter to write the
    rows to a file instead of holding them.
    `cpus` is the number of CPUs the run may use (default: every usable
    one); with two or more, a long run of a BoostedEnsemble may pipeline
    its boosting chain across two processes (see parallel.py), with the
    same results.
    """
    if trace is None:
        trace = []
    counts = ConfusionCounts()
    ledger = FairnessLedger(config.smoothing)
    monitor = ImbalanceMonitor(config.decay)
    stride = config.stride
    notion = config.trace_notion
    t = 0
    t0 = time.perf_counter()
    served = arrivals(model, source, cpus)
    try:
        for inst in served:
            t += 1
            features, group, label = inst.features, inst.group, inst.label
            pred = model.predict(features, group)
            counts.update(label, pred)
            ledger.record(group, label, pred)
            monitor.update(label)
            model.learn(features, group, label, pred)
            if t % stride == 0:
                m = metrics(counts)
                trace.append(TraceRow(
                    t, pred, label, int(group),
                    monitor.ocis(), ledger.value(notion),
                    getattr(model, "theta", 0.5),
                    m["bal_acc"], m["gmean"], m["recall"], m["kappa"]))
    finally:
        served.close()
    wall = time.perf_counter() - t0
    m = metrics(counts)
    summary = Summary(
        instances=t,
        tp=counts.tp, fp=counts.fp, tn=counts.tn, fn=counts.fn,
        bal_acc=m["bal_acc"], gmean=m["gmean"],
        recall=m["recall"], kappa=m["kappa"],
        cum_sp=ledger.value(Notion.SP),
        cum_eqop=ledger.value(Notion.EQOP),
        cum_peq=ledger.value(Notion.PEQ),
        final_theta=getattr(model, "theta", 0.5),
        wall_s=wall,
    )
    return trace, summary


def write_trace(path, rows: Iterable[TraceRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        sink = TraceWriter(fh)
        for row in rows:
            sink.append(row)
