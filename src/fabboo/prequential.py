"""First-test-then-train driver wiring models, monitors and metrics.

For every arriving instance the driver asks the model for a prediction,
lets the model learn from the revealed label, then records the prediction
into the confusion counts and the reporting fairness ledger and updates
the reporting imbalance monitor. Each prediction depends only on earlier
arrivals: the model sees an instance's label only after predicting it.

The same loop serves k lanes at once: `run_heads` runs k boundaries (see
boosting.Boundary) on the scores of one BoostedEnsemble, which trains once
per arrival, and each lane keeps its own counters and trace.
`run_prequential` is its one-lane case, with the model as its lane.
When the boosting pipeline runs (see pipeline.py), the driver pulls up to
`pipeline.LOOKAHEAD` arrivals ahead of the one it serves, and a helper
process trains the first learners on them ahead of the prediction; each
of those learners still scores an arrival before it trains on it, so the
predictions, the trace and the model's final state are those of the
serial loop.

The per-step trace (one row every `stride` steps) and the final summary are
both derived from the same streaming counters, so summary values can be
recomputed offline from a stride-1 trace. The trace goes to any object
with `append(row)`: by default a `Trace`, which packs each row into 88
bytes; a list; or a `TraceWriter`, which writes each row to an open file
as it is made. The CLI streams every shuffle's trace to its `trace.csv`
that way, so a run holds no trace row in memory.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol

from .boosting import TRAINING, BoostedEnsemble, Boundary, EnsembleParams
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


class Trace(Sequence):
    """A read-only sequence of TraceRows, each appended row packed into one
    88-byte record (the four int columns as int64, the seven floats as
    doubles) of a bytearray and rebuilt as the TraceRow it was when read.
    A slice is a list; a Trace equals a sequence of equal rows.
    """

    _record = struct.Struct("=4q7d")

    def __init__(self):
        self._buf = bytearray()

    def append(self, row: TraceRow) -> None:
        self._buf += self._record.pack(*row)

    def __len__(self) -> int:
        return len(self._buf) // self._record.size

    def __getitem__(self, k):
        if isinstance(k, slice):   # a list, as a Dataset's slice is
            return [self[j] for j in range(len(self))[k]]
        return TraceRow._make(self._record.unpack_from(
            self._buf, range(len(self))[k] * self._record.size))

    def __iter__(self):
        return map(TraceRow._make, self._record.iter_unpack(self._buf))

    def __eq__(self, other) -> bool:   # row by row, so 0.0 == -0.0 holds
        return isinstance(other, Sequence) and list(self) == list(other)


TRACE_HEADER = ",".join(TraceRow._fields)
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


def _evaluate(model, source, lanes, predict, learn, cpus):
    """The prequential loop. Per arrival, predict(features, group) gives a
    prediction for each lane, (boundary, config, trace), of `lanes`;
    learn(features, group, label, predictions) follows, and each lane
    counts and traces its own. `model` is what parallel.arrivals may
    pipeline. Returns [(trace, summary)] in lane order."""
    lanes = [(boundary, config, Trace() if trace is None else trace,
              ConfusionCounts(), FairnessLedger(config.smoothing),
              ImbalanceMonitor(config.decay))
             for boundary, config, trace in lanes]
    t = 0
    t0 = time.perf_counter()
    served = arrivals(model, source, cpus)
    try:
        for inst in served:
            t += 1
            features, group, label = inst.features, inst.group, inst.label
            preds = predict(features, group)
            learn(features, group, label, preds)
            for lane, pred in zip(lanes, preds):
                boundary, config, trace, counts, ledger, monitor = lane
                counts.update(label, pred)
                ledger.record(group, label, pred)
                monitor.update(label)
                if t % config.stride == 0:
                    m = metrics(counts)
                    trace.append(TraceRow(
                        t, pred, label, int(group),
                        monitor.ocis(), ledger.value(config.trace_notion),
                        getattr(boundary, "theta", 0.5),
                        m["bal_acc"], m["gmean"], m["recall"], m["kappa"]))
    finally:
        served.close()
    wall = time.perf_counter() - t0
    return [(trace, Summary(
        instances=t,
        tp=counts.tp, fp=counts.fp, tn=counts.tn, fn=counts.fn,
        **metrics(counts),
        **{f"cum_{notion.value}": ledger.value(notion) for notion in Notion},
        final_theta=getattr(boundary, "theta", 0.5),
        wall_s=wall,
    )) for boundary, _, trace, counts, ledger, _ in lanes]


def run_prequential(model: OnlineClassifier, source: Iterable[Instance],
                    config: EvalConfig = EvalConfig(),
                    trace=None, *, cpus: int | None = None):
    """Evaluate `model` prequentially over `source`.

    Returns (trace, summary). `trace` is any object with `append(row)`
    (a new Trace, which packs the rows, when None), which gets each
    TraceRow as it is made: pass a list or a Trace to keep the partial
    trace when a model or source error aborts the run (the exception
    propagates), or a TraceWriter to write the rows to a file instead of
    holding them.
    `cpus` is the number of CPUs the run may use (default: every usable
    one); with two or more, a long run of a BoostedEnsemble may pipeline
    its boosting chain across two processes (see parallel.py), with the
    same results.
    """
    return _evaluate(model, source, [(model, config, trace)],
                     lambda x, group: (model.predict(x, group),),
                     lambda x, group, label, preds:
                     model.learn(x, group, label, preds[0]), cpus)[0]


def run_heads(model: BoostedEnsemble, source: Iterable[Instance], heads,
              *, cpus: int | None = None) -> list:
    """Evaluate k boundaries, the heads, on the scores of one ensemble,
    which trains once per arrival.

    Each head is (params, config, trace): a Boundary of the
    EnsembleParams `params` decides on `model`'s scores, and is evaluated
    under `config` into `trace` (a new Trace when None) as
    run_prequential's model is. Returns [(trace, summary)] in head
    order: each head's are those of run_prequential on a BoostedEnsemble
    of its `params`, wall_s aside, which times the whole loop. A head
    whose `params` train differently from `model.params` (the fields in
    boosting.TRAINING) is a ValueError. `model`'s own boundary decides
    nothing here. The pipeline serves the heads as it serves one model.
    """
    lanes = [(Boundary(params), config, trace)
             for params, config, trace in heads]
    if any(getattr(b.params, f) != getattr(model.params, f)
           for b, _, _ in lanes for f in TRAINING):
        raise ValueError(f"a head must train as its ensemble: {TRAINING}")

    def predict(features, group):
        score = model.score(features)
        return [b.decide(score, group) for b, _, _ in lanes]

    def learn(features, group, label, preds):
        for (b, _, _), pred in zip(lanes, preds):
            b.observe(group, label, pred)
        model.train(features, label)

    return _evaluate(model, source, lanes, predict, learn, cpus)


def write_trace(path, rows: Iterable[TraceRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        sink = TraceWriter(fh)
        for row in rows:
            sink.append(row)
