"""Forked helper processes, with one protocol. `Helper(child)` forks a
process that runs the plain function child(inbox, send) and exits: child
reads the caller's messages from `inbox`, and each message it passes to
`send` reaches the caller as ("more", message). The last is ("done",
what child returned) or ("failed", the error it raised), sent after the
helper has closed `inbox`, so that a caller blocked sending to it reads
the error rather than waits; `Helper.outcome()` returns or raises it.
`pooled` runs a `fabboo run`'s shuffles on helpers. The boosting pipeline
(`start`) and an export's writer (`written`) share one ordered hand-off,
`_through`, where errors surface as the serial loop meets them: a
helper's error at the item it failed on, and a source error pulled ahead
when its item is due, after the helper's outcome (for the writer: after
it has flushed the file).

The pipeline: learner i's weight depends only on the label, ocis and the
post-update margins of learners 1..i-1, never on the prediction, theta or
the fairness ledger, so learners 1..k can run ahead of the rest without
changing a float. `start` forks a helper that keeps learners[:k],
k = ceil(N / 2), and a copy of the model's ImbalanceMonitor; parallel.py
says when. The caller pulls up to LOOKAHEAD arrivals ahead of the one it
serves. For each, the helper returns the head's margin sum on x, taken
before it trains on x, and the recurrence's (q, w) after learner k; the
caller sets them as `model.head`, and `score` and `train_instance`
continue from them over `model.tail` = learners[k:], in the serial
addition order. A head learner's error is raised by `predict` (scoring)
or `train_instance` (training) on its arrival. When the stream ends, the
helper returns its learners into learners[:k], so the model ends in the
serial state; a model whose run failed keeps them as the fork left them
and is not to be reused.

An error crosses from a helper pickled, with the helper's traceback as a
note (Python 3.11+); an error that does not survive pickling is raised
as a RuntimeError that names its class and message, with the same note
(see `_portable`). A helper that dies raises RuntimeError.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections import deque
from functools import partial
from multiprocessing.connection import Pipe

from .boosting import NO_HEAD, margin_sum

# arrivals the caller pulls and sends ahead of the one it serves: enough
# that neither side drains the other's buffer while the host deschedules
# it for a few ms, and few enough that the helper's results for them (about
# 16 kB) fit in a pipe, so that the helper never blocks on a send
LOOKAHEAD = 512
# arrivals per message between the caller and the helper
_BATCH = 16
# rows per message to an export's writer, which acknowledges each (about
# 61 kB pickled on paper_synth). Three messages' rows held ahead bound the
# memory; with two, the writer idled and export_synth ran 6% slower
_ROWS = 1000

_fork = os.fork


class Helper:
    """A forked process that runs child(inbox, send); see the module."""

    def __init__(self, child):
        down_r, down_w = Pipe(duplex=False)   # to the helper
        up_r, up_w = Pipe(duplex=False)       # back from it
        try:
            pid = _fork()
        except BaseException:
            for conn in (down_r, down_w, up_r, up_w):
                conn.close()
            raise
        if pid == 0:
            status = 1
            try:
                down_w.close()
                up_r.close()
                try:
                    last = ("done", child(down_r,
                                          lambda m: up_w.send(("more", m))))
                except Exception as e:
                    down_r.close()   # the caller's sends fail, not block
                    last = ("failed", _portable(e))
                up_w.send(last)
                status = 0
            finally:
                os._exit(status)
        down_r.close()
        up_w.close()
        self.pid = pid
        self.inbox, self.outbox = up_r, down_w
        self.last = None

    def send(self, message) -> None:
        try:
            self.outbox.send(message)
        except BrokenPipeError:
            pass   # it failed or died; what it sent before says which

    def recv(self):
        """The helper's next message, or None once its last has come."""
        if self.last is None:
            try:
                kind, value = self.inbox.recv()
            except EOFError:
                raise RuntimeError("a helper process exited unexpectedly") \
                    from None
            if kind == "more":
                return value
            self.last = kind, value
        return None

    def outcome(self):
        """What the helper returned; the error it raised is raised here."""
        while self.recv() is not None:
            pass
        kind, value = self.last
        if kind == "failed":
            raise value
        return value

    def close(self) -> None:
        self.outbox.close()
        self.inbox.close()
        os.kill(self.pid, signal.SIGKILL)   # only this process reaps it
        os.waitpid(self.pid, 0)


def pooled(task, n: int, workers: int) -> list:
    """[task(i) for i in range(n)] on `workers` processes: this one runs
    the first ceil(n / workers) tasks while each of workers - 1 forked
    helpers runs one contiguous slice of the rest; after a failed fork,
    this process also runs the slices no helper took. The error of the
    first task, in task order, that failed is raised here, and the helpers
    still running are stopped."""
    bounds = [-(-j * n // workers) for j in range(workers + 1)]
    helpers = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            try:   # the child runs at once, with this lo and hi
                helper = Helper(lambda inbox, send:
                                [task(i) for i in range(lo, hi)])
            except OSError:   # no process to be had
                break
            helpers.append(helper)
        results = [task(i) for i in range(bounds[1])]
        for helper in helpers:
            results += helper.outcome()
        return results + [task(i) for i in range(len(results), n)]
    finally:
        for helper in helpers:
            helper.close()


def _through(helper, items, ahead: int, size: int, wire):
    """Yield (item, result) for each item of the iterator `items`, in
    order: `helper` gets wire(item) in lists of `size`, up to `ahead`
    items (a multiple of `size`) before the one yielded, and answers each
    list with a list of results; its inbox closes when `items` ends."""
    pending = deque()   # pulled, in order
    batch = []          # wire(item) of items pulled but not yet sent
    results = deque()   # the helper's, in order
    ended = False       # `items` ended or failed: all is sent
    failure = None      # the error of `items`
    while True:
        while not ended and len(pending) < ahead:
            try:
                item = next(items)
            except StopIteration:
                ended = True
            except Exception as e:
                ended, failure = True, e
            else:
                pending.append(item)
                batch.append(wire(item))
            if ended or len(batch) == size:
                helper.send(batch)
                batch = []
                if ended:   # the helper sees the end of the items
                    helper.outbox.close()
        if not pending:
            break
        while not results:
            more = helper.recv()
            if more is None:   # it failed on this item
                helper.outcome()
            results.extend(more)
        yield pending.popleft(), results.popleft()
    if failure is not None:
        helper.outcome()
        raise failure


def start(model, stream):
    """Fork the helper; returns the generator that serves the iterator
    `stream` through it."""
    # a learner's cost per arrival falls along the chain: after arrival
    # 2,000 of paper_synth (fabboo/SP, N=20, serial, two runs) from 16-18 us
    # for learner 1 to 10.5-11 us for learner 20, and likewise on
    # drift_sudden with osboost. With k = 10 the helper's head costs
    # 128-136 us per arrival, plus its channel and monitor work, and the
    # caller's tail 108-114 us, plus the generation, ledger, window and
    # metrics: near balance, which is why k = 11 and 12 ran slower
    k = -(-len(model.learners) // 2)
    return _pipelined(model, k, Helper(partial(_serve, model, k)), stream)


def _pipelined(model, k, helper, stream):
    try:
        model.tail = model.learners[k:]
        for inst, head in _through(helper, stream, LOOKAHEAD, _BATCH,
                                   lambda i: (i.features, i.label)):
            model.head = head
            if len(head) == 1:   # the head failed to train on inst
                try:
                    helper.outcome()
                except Exception as e:
                    model.head_error = e
            yield inst
        model.learners[:k] = helper.outcome()
    finally:
        helper.close()
        model.tail = model.learners
        model.head = NO_HEAD
        model.head_error = None


def _serve(model, k: int, inbox, send) -> list:
    """The pipeline's helper: score, then train, learners[:k] on each
    arrival the caller sends, with (s, q, w) for each, or (s,) for one
    whose training failed; at the end of the stream, return them."""
    head = model.learners[:k]
    monitor = model.monitor
    chain = model.chain
    for batch in _messages(inbox):
        out = []
        try:
            for features, label in batch:
                s = margin_sum(head, features, 0.0)
                monitor.update(label)
                out.append((s,))   # until it has trained on x
                out[-1] += chain(head, features, label, monitor.ocis(),
                                 0.0, 1.0)
        finally:
            send(out)
    return head


def written(fh, writer, rows) -> None:
    """Write the iterator `rows`, which must pickle, with `writer` to the
    open file `fh`: a forked helper formats and writes them while this
    process pulls them, or, if no helper can be forked, this process.

    The file ends as writerows would leave it, also on an error: a
    helper's error (writing or formatting a row) is raised here, and a
    source error after the helper has written every row before it.
    """
    fh.flush()   # else the helper writes the buffered rows a second time
    try:
        helper = Helper(partial(_write, fh, writer))
    except OSError:   # no process to be had: write them here
        writer.writerows(rows)
        return
    try:   # from here on, only the helper writes to fh
        for _ in _through(helper, rows, 3 * _ROWS, _ROWS, tuple):
            pass
        helper.outcome()   # the helper has flushed fh
    finally:
        helper.close()


def _write(fh, writer, inbox, send) -> None:
    """The export helper: write each batch of rows as it comes and
    acknowledge it; at the end of the rows, or on an error, flush `fh`."""
    try:
        for batch in _messages(inbox):
            writer.writerows(batch)
            send([None] * len(batch))
    finally:
        fh.flush()   # os._exit drops what a buffer holds


def _messages(conn):
    """The messages on `conn` until the other end closes it."""
    while True:
        try:
            yield conn.recv()
        except EOFError:
            return


def _portable(error: Exception) -> Exception:
    """`error` if it survives pickling, else a RuntimeError that names its
    class and message; either with the helper's traceback as a note."""
    note = ("raised in a helper process:\n"
            + "".join(traceback.format_exception(error)))
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = RuntimeError(f"{type(error).__qualname__}: {error}")
    if hasattr(error, "add_note"):   # Python 3.11+
        error.add_note(note)
    return error
