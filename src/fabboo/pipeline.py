"""Forked helper processes: `Helper(child)` forks a process that runs
child(inbox, outbox) over two one-way pipes and exits. `pooled` runs a
`fabboo run`'s shuffles on helpers, `start` the boosting pipeline, and
`written` hands the rest of an export to a helper that writes it.

The pipeline: learner i's weight depends only on the label, ocis and the
post-update margins of learners 1..i-1, never on the prediction, theta or
the fairness ledger, so learners 1..k can run ahead of the rest without
changing a float. `start` forks a helper that keeps learners[:k],
k = ceil(N / 2), and a copy of the model's ImbalanceMonitor; parallel.py
says when. The caller pulls up to LOOKAHEAD arrivals ahead of the one it
serves and sends them to the helper. For each, the helper returns the
head's margin sum on x, taken before it trains on x, and the recurrence's
(q, w) after learner k; the caller sets them as `model.head`, and `score`
and `train_instance` continue from them over `model.tail` = learners[k:],
in the serial addition order. When the stream ends, the helper pickles
its learners back into learners[:k], so the model ends in the serial
state.

Errors surface where the serial loop meets them: an error of a head
learner is raised by `predict` (scoring) or `train_instance` (training)
on its arrival, and a source error pulled ahead is raised when the
arrival it stands for is due. A model whose run failed is not to be
reused: its head learners are as the fork left them.

An error crosses from a helper pickled, with the helper's traceback as a
note (Python 3.11+); an error that does not survive pickling is raised
as a RuntimeError that names its class and message, with the same note
(see `_portable`). A helper that dies raises RuntimeError.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
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
# a wait polls this long before it blocks: a blocked process wakes late
# on a busy host, and a pipeline waits once per message
_SPIN_S = 0.002
# rows per message from an export to its writer: about 61 kB pickled on
# paper_synth, so that a send fills at most one pipe buffer and blocks
# while the writer is behind, which bounds what the rows hold in memory
_ROWS = 1000

_fork = os.fork


class Helper:
    """A forked process that runs child(inbox, outbox), where inbox and
    outbox are its ends of two one-way pipes, and then exits."""

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
                child(down_r, up_w)
                status = 0
            finally:
                os._exit(status)
        down_r.close()
        up_w.close()
        self.pid = pid
        self.inbox, self.outbox = up_r, down_w

    def send(self, message) -> None:
        try:
            self.outbox.send(message)
        except BrokenPipeError:
            pass   # it failed or died; what it sent before says which

    def recv(self):
        """The helper's next message, polled for up to _SPIN_S before the
        read blocks."""
        try:
            return _recv(self.inbox)
        except EOFError:
            raise RuntimeError("a helper process exited unexpectedly") \
                from None

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
            try:
                helper = Helper(partial(_run_slice, task, range(lo, hi)))
            except OSError:   # no process to be had
                break
            helpers.append(helper)
        results = [task(i) for i in range(bounds[1])]
        for helper in helpers:
            ok, value = helper.recv()
            if not ok:
                raise value
            results += value
        return results + [task(i) for i in range(len(results), n)]
    finally:
        for helper in helpers:
            helper.close()


def _run_slice(task, indices, inbox, outbox) -> None:
    try:
        message = (True, [task(i) for i in indices])
    except Exception as e:
        message = (False, _portable(e))
    outbox.send(message)


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
    pending = deque()      # pulled ahead, in arrival order
    outbox = []            # (features, label) pulled but not yet sent
    heads = deque()        # the helper's results, in arrival order
    final = None           # the helper's last message
    ended = False          # the stream ended or failed: all is sent
    failure = None         # the source's error, raised when it is due
    try:
        model.tail = model.learners[k:]
        while True:
            while not ended and len(pending) < LOOKAHEAD:
                try:
                    inst = next(stream)
                except StopIteration:
                    ended = True
                except Exception as e:
                    ended, failure = True, e
                else:
                    pending.append(inst)
                    outbox.append((inst.features, inst.label))
                if ended or len(outbox) == _BATCH:
                    helper.send(outbox)
                    outbox = []
                    if ended:   # the helper sees the end of the stream
                        helper.outbox.close()
            if not pending:
                break
            while not heads and final is None:
                batch, final = helper.recv()
                heads.extend(batch)
            if heads:
                model.head = heads.popleft()
            else:   # the helper failed on this arrival
                _, s, error = final
                if s is None:
                    raise error       # a head learner failed to score
                model.head = (s, 0.0, 1.0)
                model.head_error = error
            yield pending.popleft()
        if failure is not None:
            raise failure
        while final is None:
            _, final = helper.recv()
        model.learners[:k] = final[1]
    finally:
        helper.close()
        model.tail = model.learners
        model.head = NO_HEAD
        model.head_error = None


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
        batch = []
        failure = None
        try:
            for row in rows:
                batch.append(row)
                if len(batch) == _ROWS:
                    helper.send(batch)
                    batch = []
                    if helper.inbox.poll(0):   # the helper failed
                        break
        except Exception as e:
            failure = e
        helper.send(batch)
        helper.outbox.close()   # the end of the rows
        error = helper.recv()   # the helper has flushed fh
        if error is not None:
            raise error
        if failure is not None:
            raise failure
    finally:
        helper.close()


def _write(fh, writer, inbox, outbox) -> None:
    """The export helper's loop: write each batch of rows as it comes; at
    the end of the rows, or on an error, flush `fh` and send the error or
    None."""
    error = None
    try:
        while True:
            try:
                batch = inbox.recv()
            except EOFError:
                break
            writer.writerows(batch)
    except Exception as e:
        error = e
        inbox.close()   # the caller's sends fail rather than block
    try:
        fh.flush()   # os._exit drops what a buffer holds
    except Exception as e:   # as the serial path's close raises it
        error = e
    outbox.send(None if error is None else _portable(error))


def _recv(conn):
    """The next message on `conn`, polled for up to _SPIN_S before the
    read blocks; EOFError when the other end has closed."""
    if not conn.poll(0):
        deadline = time.perf_counter() + _SPIN_S
        while not conn.poll(0) and time.perf_counter() < deadline:
            pass
    return conn.recv()


def _serve(model, k: int, inbox, outbox) -> None:
    """The helper's loop: score, then train, learners[:k] on each arrival
    the caller sends; at the end of the stream, send them back."""
    head = model.learners[:k]
    monitor = model.monitor
    chain = model.chain
    while True:
        try:
            batch = _recv(inbox)
        except EOFError:
            outbox.send(([], ("done", head)))
            return
        out = []
        for features, label in batch:
            try:
                s = margin_sum(head, features, 0.0)
            except Exception as e:
                outbox.send((out, ("failed", None, _portable(e))))
                return
            monitor.update(label)
            try:
                q, w = chain(head, features, label, monitor.ocis(), 0.0, 1.0)
            except Exception as e:
                outbox.send((out, ("failed", s, _portable(e))))
                return
            out.append((s, q, w))
        outbox.send((out, None))


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
