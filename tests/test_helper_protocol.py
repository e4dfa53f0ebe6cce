"""The forked helpers' protocol, beyond what test_pipeline.py checks: a
source error waits for the export's writer to flush, a failed writer
closes its inbox before it reports, and the export and the pipeline give
the serial bytes while a profiling timer interrupts the calling process,
and a wait on either side of a helper blocks rather than uses CPU.
"""

import signal
import time
from contextlib import contextmanager
from unittest import mock

from fabboo import (BoostedEnsemble, EvalConfig, Notion, generate,
                    method_params, preset, run_prequential, save_csv,
                    with_overrides)
from fabboo import parallel, pipeline

from conftest import alarm, forks, no_children_left


@contextmanager
def profiling_timer(interval):
    """A no-op SIGPROF handler, and ITIMER_PROF firing every `interval`
    seconds of this process's CPU time, for the block."""
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def exported(path, gen, stream, cpus):
    """save_csv of `stream` on `cpus` usable CPUs: (the ValueError raised
    or None, the file's bytes, the number of helpers forked)."""
    error = None
    with mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
            forks() as forked:
        try:
            save_csv(path, gen.schema(), stream)
        except ValueError as e:
            error = e
    return error, path.read_bytes(), len(forked)


def source_breaks_at(gen, at):
    for inst in generate(gen):
        if inst.seq == at:
            raise ValueError(f"source broke at arrival {at}")
        yield inst


def test_a_source_error_waits_for_the_writer_to_flush(tmp_path):
    """The source fails in a later batch while the writer is slow to
    finish (its message loop sleeps before it ends): the error is raised
    after the writer has flushed, so the file equals the serial one."""
    at = parallel.EXPORT_MIN_ROWS + 3 * pipeline._ROWS + 5
    gen = with_overrides(preset("paper_synth"), length=at + pipeline._ROWS,
                         seed=12)
    messages = pipeline._messages

    def slow_to_end(conn):
        yield from messages(conn)
        time.sleep(0.5)

    outcomes = []
    with mock.patch.object(pipeline, "_messages", slow_to_end):
        for cpus in (1, 2):
            error, data, forked = exported(tmp_path / f"cpus-{cpus}.csv",
                                           gen, source_breaks_at(gen, at),
                                           cpus)
            assert forked == cpus - 1
            outcomes.append((type(error), str(error), data))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is ValueError
    assert outcomes[0][2].count(b"\n") == at   # the header and at - 1 rows
    assert no_children_left()


class LongUnprintable:
    """A feature whose text fails with a message longer than a pipe's
    buffer."""

    text = "no text " * 25_000

    def __str__(self):
        raise ValueError(self.text)


def wide_rows(gen, at):
    """The generated stream with a distinct first feature of 300
    characters, so that a message of rows is larger than a pipe's buffer,
    and one that cannot be formatted at arrival `at`."""
    for inst in generate(gen):
        first = LongUnprintable() if inst.seq == at else f"{inst.seq:x>300}"
        yield inst._replace(features=(first,) + inst.features[1:])


def test_a_failed_writer_closes_its_inbox_before_it_reports(tmp_path):
    """The writer fails on a message larger than a pipe's buffer and
    stalls before it reports an error larger than a pipe's buffer, while
    the export sends it the next message: since the writer closes its
    inbox first, that send fails and the export reads the error."""
    at = parallel.EXPORT_MIN_ROWS + 1
    gen = with_overrides(preset("paper_synth"),
                         length=at + 6 * pipeline._ROWS, seed=13)
    portable = pipeline._portable

    def stalled(error):
        time.sleep(1.0)
        return portable(error)

    outcomes = []
    with alarm(60, "the export hangs on a failed writer"), \
            mock.patch.object(pipeline, "_portable", stalled):
        for cpus in (1, 2):
            error, data, forked = exported(tmp_path / f"cpus-{cpus}.csv",
                                           gen, wide_rows(gen, at), cpus)
            assert forked == cpus - 1
            outcomes.append((type(error), str(error), data))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (ValueError, LongUnprintable.text)
    assert no_children_left()


def test_export_under_a_profiling_timer_writes_the_serial_bytes(tmp_path):
    """A forked export while ITIMER_PROF interrupts this process every
    0.5 ms of its CPU time, as a stack sampler does."""
    gen = with_overrides(preset("paper_synth"),
                         length=parallel.EXPORT_MIN_ROWS
                         + 5 * pipeline._ROWS + 17, seed=14)
    _, serial, _ = exported(tmp_path / "serial.csv", gen, generate(gen), 1)
    with profiling_timer(0.0005):
        error, forked_bytes, forked = exported(tmp_path / "forked.csv", gen,
                                               generate(gen), 2)
    assert (error, forked) == (None, 1)
    assert forked_bytes == serial
    assert no_children_left()


def test_pipelined_run_under_a_profiling_timer_equals_serial_run():
    gen = with_overrides(preset("paper_synth"), length=3_000, seed=15)
    outcomes = []
    for cpus in (1, 2):
        model = BoostedEnsemble(method_params("fabboo", Notion.SP,
                                              learners=6),
                                gen.schema().kinds())
        with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", 300), \
                forks() as forked, profiling_timer(0.0005):
            rows, summary = run_prequential(
                model, generate(gen), EvalConfig(trace_notion=Notion.SP),
                cpus=cpus)
        assert len(forked) == cpus - 1
        fields = dict(vars(summary))
        del fields["wall_s"]
        outcomes.append((rows, fields, model.theta,
                         [l.describe() for l in model.learners]))
    assert outcomes[0] == outcomes[1]
    assert no_children_left()


# the CPU time, in seconds, that nine or ten waits of 50 ms may use: ten
# waits that each spin for 2 ms before they block use about 20 ms
WAITS_CPU_S = 0.005


def test_a_helper_waiting_on_its_inbox_uses_no_cpu():
    """The helper reads ten messages sent 50 ms apart and reports the CPU
    time it used from the first to the end of its inbox."""
    def child(inbox, send):
        messages = pipeline._messages(inbox)
        next(messages)
        start = time.process_time()
        for _ in messages:
            pass
        return time.process_time() - start

    with alarm(30, "the helper never reports"):
        helper = pipeline.Helper(child)
        try:
            for i in range(10):
                time.sleep(0.05)
                helper.send(i)
            helper.outbox.close()
            spent = helper.outcome()
        finally:
            helper.close()
    assert spent < WAITS_CPU_S
    assert no_children_left()


def test_a_caller_waiting_on_a_helper_uses_no_cpu():
    """The helper sends ten messages 50 ms apart; the caller's reads of
    them use no CPU time while they wait."""
    def child(inbox, send):
        for i in range(10):
            time.sleep(0.05)
            send(i)

    with alarm(30, "the helper's messages never come"):
        helper = pipeline.Helper(child)
        try:
            start = time.process_time()
            got = [helper.recv() for _ in range(10)]
            spent = time.process_time() - start
            helper.outcome()
        finally:
            helper.close()
    assert got == list(range(10))
    assert spent < WAITS_CPU_S
    assert no_children_left()
