"""When fabboo uses more than one process.

Three paths can use a second CPU, all through pipeline.py's forked
helpers:

- the shuffles of a `fabboo run` (`each` below): this process and
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
from itertools import chain, islice

from .boosting import BoostedEnsemble
from .tree import HoeffdingTree

# a run's shuffles are pooled only with this many arrivals each.
# `fabboo run` of two shuffles of a ratio_fixed CSV (fabboo/SP, N=20,
# 2 vCPUs, medians of 12 alternating pairs in fresh processes, main()
# timed, the pool forced on at every size) took 96 ms pooled against
# 107 ms on one CPU at 500 arrivals per shuffle, 174 against 237 ms at
# 1,000 and 313 against 520 ms at 2,000
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
# scheduler often runs the helper on the caller's CPU at first.
# paper_synth exports forked here (2 vCPUs, medians of 16 alternating
# pairs in fresh processes) ran at 0.93x serial speed at 10,001 rows,
# 0.98x at 20,000 and 1.41x at 40,000
EXPORT_MIN_ROWS = 10000


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def can_fork() -> bool:
    return hasattr(os, "fork") and threading.active_count() == 1


def each(task, n: int, arrivals: int) -> list:
    """[task(i, cpus) for i in range(n)], where task i runs a shuffle of
    `arrivals` arrivals on up to `cpus` CPUs.

    Pooled tasks (`pipeline.pooled`) get one CPU each. Their helpers
    inherit `task` and its data, so only results and errors cross between
    processes. The first failed task's error is raised here and stops the
    other helpers at once, so their tasks' outputs may be partial.
    Otherwise the tasks run one by one, each on every usable CPU.
    """
    usable = usable_cpus()
    workers = min(n, usable)
    if workers > 1 and arrivals >= MIN_ARRIVALS and can_fork():
        from . import pipeline
        return pipeline.pooled(lambda i: task(i, 1), n, workers)
    return [task(i, usable) for i in range(n)]


def arrivals(model, source, cpus: int | None = None):
    """The instances of `source`, for run_prequential to serve in order.

    After PIPELINE_MIN_ARRIVALS of them, when the number of CPUs the run
    may use (`cpus`, every usable one when None) is at least two, `model`
    is a BoostedEnsemble of two or more HoeffdingTrees and `can_fork()`
    holds, the rest are served through the pipeline. Closing this
    generator stops the pipeline's helper; it never closes `source`.
    """
    stream = iter(source)
    yield from islice(stream, PIPELINE_MIN_ARRIVALS)
    rest = _rest(stream, cpus) if _pipelines(model) else None
    if rest is not None:
        from . import pipeline
        try:
            piped = pipeline.start(model, rest)
        except OSError:   # no process to be had: the run stays serial
            stream = rest
        else:
            yield from piped
            return
    for inst in stream:   # `yield from` would close `source` with this
        yield inst


def write_rows(fh, writer, rows) -> None:
    """writer.writerows(rows), where `writer` writes to the open file `fh`.

    After EXPORT_MIN_ROWS rows, when two CPUs are usable and `can_fork()`
    holds, a forked helper writes the rest while this process makes them
    (pipeline.written), and the file gets the same bytes.
    """
    rows = iter(rows)
    writer.writerows(islice(rows, EXPORT_MIN_ROWS))
    rest = _rest(rows)
    if rest is None:
        writer.writerows(rows)
    else:
        from . import pipeline
        pipeline.written(fh, writer, rest)


def _rest(stream, cpus: int | None = None):
    """The rest of `stream` for a helper to take over, or None where no
    helper is to be forked: the run may use fewer than two CPUs (`cpus`,
    every usable one when None), `can_fork()` fails, or `stream` ends
    here. The item pulled to see that it does not end is put back in
    front, so a stream that ends at a threshold forks nothing."""
    if (usable_cpus() if cpus is None else cpus) < 2 or not can_fork():
        return None
    for first in stream:
        return chain((first,), stream)
    return None


def _pipelines(model) -> bool:
    return (type(model) is BoostedEnsemble and len(model.learners) >= 2
            and all(type(l) is HoeffdingTree for l in model.learners))
