"""When a run uses more than one process.

Two parts of a run can use a second CPU, both through pipeline.py's
forked helpers:

- the shuffles of a `fabboo run` (`cli._run_shuffles`): this process and
  min(shuffles, usable CPUs) - 1 helpers run a slice of them each;
- the boosting chain of one run of a BoostedEnsemble (`arrivals` below):
  a helper trains the first half of the learners ahead of the caller.

The pool starts only after MIN_ARRIVALS arrivals per shuffle and the
pipeline after PIPELINE_MIN_ARRIVALS, which repays what starting them
costs, and both only when `can_fork()` holds: `os.fork` exists and this
process runs one thread, since a fork copies every lock but no thread.
`run_prequential` takes the number of CPUs a run may use, and the
pipeline needs two: a run on its own gets every usable CPU, a pooled
shuffle one, so pooled shuffles never pipeline.
"""

from __future__ import annotations

import os
import threading

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


def _pipelines(model) -> bool:
    return (type(model) is BoostedEnsemble and len(model.learners) >= 2
            and all(type(l) is HoeffdingTree for l in model.learners))
