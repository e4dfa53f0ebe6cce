"""When fabboo uses more than one process.

Three paths can use a second CPU, all through pipeline.py's forked
helpers:

- the shuffles of a `fabboo run` (`cli._run_shuffles`): this process and
  min(shuffles, usable CPUs) - 1 helpers run a slice of them each;
- the boosting chain of one run of a BoostedEnsemble (`arrivals` below):
  a helper trains the first half of the learners ahead of the caller;
- an export (`write_rows` below, called by data.save_csv): this process
  makes the rows and a helper formats and writes them.

The pool starts only after MIN_ARRIVALS arrivals per shuffle, the
pipeline after PIPELINE_MIN_ARRIVALS and the writer after EXPORT_MIN_ROWS
rows, which repays what starting them costs, and each only when
`can_fork()` holds: `os.fork` exists and this process runs one thread,
since a fork copies every lock but no thread.
`run_prequential` takes the number of CPUs a run may use, and the
pipeline needs two: a run on its own gets every usable CPU, a pooled
shuffle one, so pooled shuffles never pipeline.
"""

from __future__ import annotations

import os
import threading
from itertools import islice

from .boosting import BoostedEnsemble
from .tree import HoeffdingTree

# a run's shuffles are pooled only with this many arrivals each
MIN_ARRIVALS = 1000
# a run pipelines only after this many arrivals. Starting the pipeline
# costs some 30-40 ms (importing multiprocessing.connection, the fork, the
# helper's first batches): lone paper_synth runs (fabboo/SP, N=20, 2 CPUs)
# of 1,200 arrivals ran 11% slower when it started at 1,000, and runs of
# 2,400 as fast as serial when it starts here
PIPELINE_MIN_ARRIVALS = 2000
# an export hands its rows to a writer process only after this many.
# Starting the writer costs some 20-40 ms (importing
# multiprocessing.connection, the fork, the helper's last batch), and the
# first 10-20k rows after it gain little, since the scheduler often runs
# the helper on the caller's CPU at first. paper_synth exports (2 vCPUs,
# medians of 16 alternating pairs in fresh processes) that forked at 1,000
# rows ran at 0.67x serial speed at 2,400 rows, 0.8x at 5,000 and
# 0.9-1.4x at 20,000; forked here, they ran at 0.92x at 10,001 rows,
# 1.03x at 20,000 and 1.36x at 40,000
EXPORT_MIN_ROWS = 10000


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def can_fork() -> bool:
    return hasattr(os, "fork") and threading.active_count() == 1


def arrivals(model, source, cpus: int | None = None):
    """The instances of `source`, for run_prequential to serve in order.

    After PIPELINE_MIN_ARRIVALS of them, when the number of CPUs the run
    may use (`cpus`, every usable one when None) is at least two, `model`
    is a BoostedEnsemble of two or more HoeffdingTrees and `can_fork()`
    holds, the rest are served through the pipeline. Closing this generator stops the
    pipeline's helper; it never closes `source`.
    """
    stream = iter(source)
    served = 0
    for inst in stream:
        yield inst
        served += 1
        if served == PIPELINE_MIN_ARRIVALS:
            break
    else:
        return
    if cpus is None:
        cpus = usable_cpus()
    if cpus >= 2 and _pipelines(model) and can_fork():
        try:
            first = next(stream)
        except StopIteration:
            return
        from . import pipeline
        try:
            piped = pipeline.start(model, first, stream)
        except OSError:   # no process to be had: the run stays serial
            yield first
        else:
            yield from piped
            return
    for inst in stream:
        yield inst


def write_rows(fh, writer, rows) -> None:
    """writer.writerows(rows), where `writer` writes to the open file `fh`.

    After EXPORT_MIN_ROWS rows, when two CPUs are usable and `can_fork()`
    holds, a forked helper writes the rest while this process makes them
    (pipeline.written), and the file gets the same bytes.
    """
    rows = iter(rows)
    writer.writerows(islice(rows, EXPORT_MIN_ROWS))
    if usable_cpus() < 2 or not can_fork():
        writer.writerows(rows)
        return
    first = next(rows, None)
    if first is not None:   # rows that end at the threshold fork nothing
        from . import pipeline
        pipeline.written(fh, writer, first, rows)


def _pipelines(model) -> bool:
    return (type(model) is BoostedEnsemble and len(model.learners) >= 2
            and all(type(l) is HoeffdingTree for l in model.learners))
