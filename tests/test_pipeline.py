"""The boosting pipeline: a forked helper trains the head of the chain.

A pipelined run must equal the serial run of the same model bit for bit:
the trace, the summary (wall_s aside), theta and every learner's state.
Errors must surface as the serial loop raises them, with the same partial
trace, and a helper that dies must raise in the caller. Pooled shuffles
and long exports use the same helpers; an export written by a helper must
equal the serial file byte for byte, also when it fails, and no run may
leave a process or descriptor behind.
"""

import errno
import os
import signal
import subprocess
import sys
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import (BoostedEnsemble, DataError, EvalConfig, Notion,
                    PRESET_NAMES, generate, method_params, preset,
                    run_prequential, save_csv, with_overrides, write_trace)
from fabboo import cli, parallel, pipeline
from fabboo.config import ExperimentConfig
from fabboo.tree import HoeffdingTree, _Node

PAIRS = [(m, n) for m in ("fabboo", "ofib", "cfbb")
         for n in (Notion.SP, Notion.EQOP, Notion.PEQ)] + \
        [("osboost", None), ("imbalance_only", None)]


@contextmanager
def forks():
    """Yields the pids of the helpers forked in the block."""
    forked = []
    fork = pipeline._fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(pipeline, "_fork", counting_fork):
        yield forked


@contextmanager
def switch_at(arrivals):
    """Pipeline after `arrivals` arrivals; yields the pids of the helpers
    forked meanwhile."""
    with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", arrivals), \
            forks() as forked:
        yield forked


def build(method, notion, learners, gen):
    return BoostedEnsemble(method_params(method, notion, learners=learners),
                           gen.schema().kinds())


def state(obj):
    """Every slot of a tree node, recursively; floats compare exactly."""
    if isinstance(obj, _Node):
        return tuple(state(getattr(obj, s)) for s in _Node.__slots__)
    if isinstance(obj, list):
        return [state(v) for v in obj]
    if isinstance(obj, dict):
        return {k: state(v) for k, v in obj.items()}
    return obj


def run(model, source, notion, cpus, trace=None):
    """(trace rows, summary without wall_s) of one run; the exception, its
    partial trace and the model's learners are left to the caller."""
    rows, summary = run_prequential(
        model, source, EvalConfig(trace_notion=notion or Notion.SP),
        trace, cpus=cpus)
    fields = dict(vars(summary))
    del fields["wall_s"]
    return rows, fields


def trace_bytes(rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write_trace(path, rows)
        return path.read_bytes()


def open_fds():
    """This process's open file descriptors, where the platform lists
    them."""
    fd_dir = "/proc/self/fd"
    return sorted(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


def no_children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(1, 2 ** 16), name=st.sampled_from(PRESET_NAMES),
       pair=st.sampled_from(PAIRS), learners=st.integers(2, 6),
       switch=st.integers(1, 400), extra=st.integers(0, 300))
def test_pipelined_run_equals_serial_run(seed, name, pair, learners, switch,
                                         extra):
    method, notion = pair
    gen = with_overrides(preset(name), length=switch + extra, seed=seed)
    serial = build(method, notion, learners, gen)
    want_rows, want = run(serial, generate(gen), notion, cpus=1)
    piped = build(method, notion, learners, gen)
    fds = open_fds()
    with switch_at(switch) as forked:
        got_rows, got = run(piped, generate(gen), notion, cpus=2)
    assert len(forked) == (1 if extra else 0)
    assert open_fds() == fds
    assert no_children_left()
    assert trace_bytes(got_rows) == trace_bytes(want_rows)
    assert got_rows == want_rows
    assert got == want
    assert piped.theta == serial.theta
    assert piped.tail is piped.learners
    for a, b in zip(piped.learners, serial.learners):
        assert a.describe() == b.describe()
        assert a.replacements == b.replacements
        assert state(a.root) == state(b.root)


def stream_with_fault(gen, at, fault):
    """The generated stream, with arrival `at` passed through `fault`,
    which returns a replacement instance or raises."""
    for inst in generate(gen):
        yield fault(inst) if inst.seq == at else inst


def source_breaks(inst):
    raise ValueError(f"source broke at arrival {inst.seq}")


def extra_attribute(inst):
    return inst._replace(features=inst.features + (0.5,))


@pytest.mark.parametrize("fault, at, error", [
    (source_breaks, 305, ValueError),      # pulled with the first lookahead
    (source_breaks, 700, ValueError),
    (extra_attribute, 700, DataError),     # a head learner fails training
])
def test_errors_match_the_serial_run(fault, at, error):
    gen = with_overrides(preset("paper_synth"), length=1_000, seed=3)
    fds = open_fds()
    outcomes = []
    for cpus in (1, 2):
        model = build("fabboo", Notion.SP, 5, gen)
        sink = []
        with switch_at(300) as forked, pytest.raises(error) as info:
            run(model, stream_with_fault(gen, at, fault), Notion.SP, cpus,
                trace=sink)
        assert len(forked) == cpus - 1
        assert model.tail is model.learners
        outcomes.append((type(info.value), str(info.value), sink))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][2]) == at - 1
    assert open_fds() == fds
    assert no_children_left()


@contextmanager
def learners_fail(model, failures, features):
    """Make model.learners[i].<method> raise `error` on `features`, for
    each (i, method, error) in `failures`."""
    errors = {}
    for i, method, error in failures:
        errors.setdefault(method, {})[id(model.learners[i])] = error
    with ExitStack() as stack:
        for method, by_learner in errors.items():
            def failing(self, x, *args, _by_learner=by_learner,
                        _original=getattr(HoeffdingTree, method)):
                error = _by_learner.get(id(self))
                if error is not None and x == features:
                    raise error
                return _original(self, x, *args)
            stack.enter_context(mock.patch.object(HoeffdingTree, method,
                                                  failing))
        yield


HEAD_FAILS = ArithmeticError("the first learner failed")
TAIL_FAILS = LookupError("the last learner failed to score")


@pytest.mark.parametrize("head_method, raised", [
    ("predict_margin", HEAD_FAILS),    # scoring comes before the tail's
    ("train_weighted", TAIL_FAILS),    # training comes after the tail's score
])
def test_head_and_tail_errors_keep_the_serial_order(head_method, raised):
    gen = with_overrides(preset("paper_synth"), length=800, seed=6)
    features = list(generate(gen))[599].features
    failures = [(0, head_method, HEAD_FAILS), (-1, "predict_margin", TAIL_FAILS)]
    for cpus in (1, 2):
        model = build("fabboo", Notion.SP, 4, gen)
        sink = []
        with switch_at(300) as forked, \
                learners_fail(model, failures, features), \
                pytest.raises(type(raised), match=str(raised)):
            run(model, generate(gen), Notion.SP, cpus, trace=sink)
        assert len(forked) == cpus - 1
        assert len(sink) == 599


class NeedsTwoArguments(ArithmeticError):
    """Pickles, but unpickling calls the class with one argument."""

    def __init__(self, learner, reason):
        super().__init__(f"learner {learner} failed: {reason}")
        self.learner = learner


class HoldsALock(ArithmeticError):
    """Has an attribute that does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def run_fails(tmp_path, cpus, error):
    """A 4-learner run whose first learner raises `error` training on
    arrival 600, pipelined after arrival 300 on two CPUs: (the error
    raised, the partial trace)."""
    gen = with_overrides(preset("paper_synth"), length=800, seed=6)
    features = list(generate(gen))[599].features
    model = build("fabboo", Notion.SP, 4, gen)
    sink = []
    with switch_at(300) as forked, \
            learners_fail(model, [(0, "train_weighted", error)], features), \
            pytest.raises(Exception) as info:
        run(model, generate(gen), Notion.SP, cpus, trace=sink)
    assert len(forked) == cpus - 1
    return info.value, sink


def shuffle_fails(tmp_path, cpus, error):
    """Two shuffles of a `fabboo run`, pooled on two CPUs, where shuffle 1
    (the helper's) raises `error`: (the error raised, shuffle 0's
    trace)."""
    run_shuffle = cli._run_shuffle

    def faulty(cfg, kinds, source, i, cpus):
        if i == 1:
            raise error
        return run_shuffle(cfg, kinds, source, i, cpus)

    out = tmp_path / f"run-{cpus}"
    args = cli.build_parser().parse_args([
        "run", "--preset", "ratio_fixed", "--length",
        str(parallel.MIN_ARRIVALS), "--learners", "2", "--shuffles", "2",
        "--out", str(out)])
    with mock.patch.object(cli, "_run_shuffle", faulty), \
            mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
            forks() as forked, pytest.raises(Exception) as info:
        cli.execute_run(cli.apply_flags(ExperimentConfig(), args))
    assert len(forked) == cpus - 1
    return info.value, (out / "shuffle-00" / "trace.csv").read_bytes()


def export_fails(tmp_path, cpus, error):
    """An export whose row after the threshold (the helper's first) has a
    feature whose text raises `error`: (the error raised, the partial
    file)."""
    at = parallel.EXPORT_MIN_ROWS + 1
    gen = with_overrides(preset("paper_synth"), length=at + pipeline._ROWS,
                         seed=7)
    out = tmp_path / f"export-{cpus}.csv"
    with mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
            mock.patch.object(RaisesTheClassError, "error", error), \
            forks() as forked, pytest.raises(Exception) as info:
        save_csv(out, gen.schema(), stream_with_faults(
            gen, {at: partial(unprintable, feature=RaisesTheClassError)}))
    assert len(forked) == cpus - 1
    return info.value, out.read_bytes()


@pytest.mark.parametrize("make_error, piped_message", [
    (lambda: NeedsTwoArguments(0, "on purpose"),
     "NeedsTwoArguments: learner 0 failed: on purpose"),
    (lambda: HoldsALock("on purpose"), "HoldsALock: on purpose"),
], ids=["init_arguments", "unpicklable_attribute"])
def test_errors_that_do_not_pickle(tmp_path, make_error, piped_message):
    """On each helper path (the pipeline, a pooled shuffle, an export
    writer), an error that does not survive pickling is raised as a
    RuntimeError that names its class and message, with the helper's
    traceback (naming the frame that raised) as a note; the serial path
    raises the error itself."""
    fds = open_fds()
    for path, frame in ((run_fails, "in failing"),
                        (shuffle_fails, "in faulty"),
                        (export_fails, "in __str__")):
        error = make_error()
        serial, serial_output = path(tmp_path, 1, error)
        piped, piped_output = path(tmp_path, 2, make_error())
        assert serial is error
        assert not hasattr(serial, "__notes__")
        assert (type(piped), str(piped)) == (RuntimeError, piped_message)
        assert piped_output == serial_output
        if sys.version_info >= (3, 11):
            notes = "".join(piped.__notes__)
            assert notes.startswith("raised in a helper process")
            assert frame in notes   # the helper's frames, not just its message
            assert str(error) in notes
    assert open_fds() == fds
    assert no_children_left()


def test_a_write_error_after_the_fork_reaches_the_caller(tmp_path):
    """An OSError that the export's helper meets is raised here as on the
    serial path: only the fork's own OSError makes the export fall back
    to writing the rows itself."""
    outcomes = []
    for cpus in (1, 2):
        error, output = export_fails(
            tmp_path, cpus, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        outcomes.append((type(error), str(error), output))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is OSError


@contextmanager
def alarm(seconds, message):
    """Fail with `message` if the block runs longer than `seconds`."""
    def hung(signum, frame):
        raise AssertionError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dead_helper_raises_in_the_caller():
    gen = with_overrides(preset("paper_synth"), length=2_000, seed=4)
    model = build("fabboo", Notion.SP, 4, gen)
    fds = open_fds()

    def kill_helper(inst):
        os.kill(forked[0], signal.SIGKILL)
        return inst

    with alarm(60, "the caller hangs on a dead helper"), \
            switch_at(300) as forked, \
            pytest.raises(RuntimeError, match="helper process exited"):
        run(model, stream_with_fault(gen, 500, kill_helper), Notion.SP,
            cpus=2)
    assert len(forked) == 1
    assert open_fds() == fds
    assert no_children_left()


@pytest.mark.parametrize("extra, forks", [(0, 0), (1, 1)])
def test_the_pipeline_starts_after_its_threshold(extra, forks):
    gen = with_overrides(preset("paper_synth"),
                         length=parallel.PIPELINE_MIN_ARRIVALS + extra, seed=2)
    with switch_at(parallel.PIPELINE_MIN_ARRIVALS) as forked:
        run(build("osboost", None, 2, gen), generate(gen), None, cpus=2)
    assert len(forked) == forks


@pytest.mark.parametrize("fails_at", [200, 600])
def test_a_failed_serial_run_leaves_its_source_open(fails_at):
    """A model error before or after the pipeline's threshold, on one CPU:
    the run stops without closing the caller's generator source."""
    gen = with_overrides(preset("paper_synth"), length=800, seed=6)
    features = list(generate(gen))[fails_at - 1].features
    model = build("fabboo", Notion.SP, 4, gen)
    source = generate(gen)
    with switch_at(300), pytest.raises(ArithmeticError), \
            learners_fail(model, [(0, "train_weighted", HEAD_FAILS)],
                          features):
        run(model, source, Notion.SP, cpus=1)
    assert source.gi_frame is not None
    assert next(source).seq == fails_at + 1


def test_a_run_whose_fork_fails_stays_serial():
    """The pipeline's fork fails at its start: this process serves the
    rest of the run itself, with the outputs and model of a serial run."""
    gen = with_overrides(preset("paper_synth"), length=1_000, seed=11)
    fds = open_fds()
    outcomes = []
    for cpus in (1, 2):
        model = build("fabboo", Notion.SP, 4, gen)
        failing = mock.Mock(side_effect=OSError(errno.EAGAIN,
                                                os.strerror(errno.EAGAIN)))
        with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", 300), \
                mock.patch.object(pipeline, "_fork", failing):
            rows, summary = run(model, generate(gen), Notion.SP, cpus)
        assert failing.call_count == cpus - 1
        assert model.tail is model.learners
        outcomes.append((trace_bytes(rows), summary, model.theta,
                         [(l.describe(), l.replacements, state(l.root))
                          for l in model.learners]))
    assert outcomes[0] == outcomes[1]
    assert open_fds() == fds
    assert no_children_left()


def test_the_pipeline_needs_two_cpus_two_trees_and_a_fork():
    gen = with_overrides(preset("paper_synth"), length=400, seed=5)

    class Stub:
        def predict_margin(self, x):
            return 0.0

        def train_weighted(self, x, label, w):
            return 0.0

    params = method_params("osboost", None, learners=2)
    cases = [
        (build("osboost", None, 2, gen), 1),           # one CPU
        (build("osboost", None, 1, gen), 2),           # one learner
        (BoostedEnsemble(params, gen.schema().kinds(), Stub), 2),  # no tree
    ]

    def no_fork():
        raise AssertionError("a helper was forked")

    with mock.patch.object(parallel, "PIPELINE_MIN_ARRIVALS", 100), \
            mock.patch.object(pipeline, "_fork", no_fork):
        for model, cpus in cases:
            run(model, generate(gen), None, cpus)
        with mock.patch.object(parallel, "can_fork", lambda: False):
            run(build("osboost", None, 2, gen), generate(gen), None, 2)


@pytest.mark.parametrize("extra", [0, 1, 2 * pipeline._ROWS + 37])
def test_export_writes_the_serial_bytes(tmp_path, extra):
    length = parallel.EXPORT_MIN_ROWS + extra
    fds = open_fds()
    written = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}.csv"
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
                forks() as forked:
            assert cli.main(["export", "--preset", "paper_synth",
                             "--length", str(length), "--seed", "6",
                             "--out", str(out)]) == 0
        assert len(forked) == (1 if cpus == 2 and extra else 0)
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == length + 1
    assert open_fds() == fds
    assert no_children_left()


class Unprintable:
    """A feature that fails when csv formats it."""

    text = "this feature has no text"

    def __str__(self):
        raise ValueError(self.text)


class VerboseUnprintable(Unprintable):
    text = "no text " * 25_000   # more than a pipe's buffer holds


def unprintable(inst, feature=Unprintable):
    return inst._replace(features=(feature(),) + inst.features[1:])


class RaisesTheClassError(Unprintable):
    """A feature whose text raises the error set on its class, which
    crosses to a helper with the class, not with the pickled feature."""

    error = None

    def __str__(self):
        raise RaisesTheClassError.error


def stream_with_faults(gen, faults):
    """The generated stream, with each arrival in `faults` passed through
    its fault."""
    for inst in generate(gen):
        fault = faults.get(inst.seq)
        yield fault(inst) if fault else inst


@pytest.mark.parametrize("faults, forks_on_two", [
    ({0: source_breaks}, 0),     # on the threshold's row
    ({1: source_breaks}, 0),     # pulling the first row for the helper
    ({2 * pipeline._ROWS + 5: source_breaks}, 1),
    ({0: unprintable}, 0),
    ({1: unprintable}, 1),       # the helper's first row
    ({2 * pipeline._ROWS + 5: unprintable}, 1),
    ({5: unprintable, 10: source_breaks}, 1),   # the helper's comes first
])
def test_export_errors_match_the_serial_path(tmp_path, faults, forks_on_two):
    faults = {parallel.EXPORT_MIN_ROWS + offset: fault
              for offset, fault in faults.items()}
    at = min(faults)
    gen = with_overrides(preset("paper_synth"), length=at + 3 * pipeline._ROWS,
                         seed=7)
    fds = open_fds()
    outcomes = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}.csv"
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
                forks() as forked, pytest.raises(ValueError) as info:
            save_csv(out, gen.schema(), stream_with_faults(gen, faults))
        assert len(forked) == (forks_on_two if cpus == 2 else 0)
        outcomes.append((type(info.value), str(info.value), out.read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2].count(b"\n") == at   # the header and at - 1 rows
    if faults[at] is unprintable and forks_on_two \
            and sys.version_info >= (3, 11):
        assert "raised in a helper process" in "".join(info.value.__notes__)
    assert open_fds() == fds
    assert no_children_left()


@pytest.mark.parametrize("feature", [Unprintable, VerboseUnprintable])
def test_a_failed_writer_stops_the_export(tmp_path, feature):
    """Once its helper has failed, an export pulls a few more batches at
    most; an error longer than a pipe's buffer reaches it too."""
    at = parallel.EXPORT_MIN_ROWS + 1
    gen = with_overrides(preset("paper_synth"),
                         length=at + 40 * pipeline._ROWS, seed=8)
    pulled = []

    def counted(stream):
        for inst in stream:
            pulled.append(inst.seq)
            yield inst

    fault = partial(unprintable, feature=feature)
    with alarm(60, "the export hangs on a failed helper"), \
            mock.patch.object(parallel, "usable_cpus", lambda: 2), \
            forks() as forked, pytest.raises(ValueError) as info:
        save_csv(tmp_path / "out.csv", gen.schema(),
                 counted(stream_with_faults(gen, {at: fault})))
    assert str(info.value) == feature.text
    assert len(forked) == 1
    assert len(pulled) < at + 20 * pipeline._ROWS
    assert no_children_left()


def test_a_killed_writer_raises_in_the_caller(tmp_path):
    at = parallel.EXPORT_MIN_ROWS + 3 * pipeline._ROWS
    gen = with_overrides(preset("paper_synth"), length=at + 5 * pipeline._ROWS,
                         seed=9)
    fds = open_fds()

    def kill_helper(inst):
        os.kill(forked[0], signal.SIGKILL)
        return inst

    with alarm(60, "the export hangs on a dead helper"), \
            mock.patch.object(parallel, "usable_cpus", lambda: 2), \
            forks() as forked, \
            pytest.raises(RuntimeError, match="helper process exited"):
        save_csv(tmp_path / "out.csv", gen.schema(),
                 stream_with_faults(gen, {at: kill_helper}))
    assert len(forked) == 1
    assert open_fds() == fds
    assert no_children_left()


def test_an_export_whose_fork_fails_writes_the_rest_itself(tmp_path):
    gen = with_overrides(preset("paper_synth"),
                         length=parallel.EXPORT_MIN_ROWS + 500, seed=10)
    written = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}.csv"
        failing = mock.Mock(side_effect=OSError("no process to be had"))
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus), \
                mock.patch.object(pipeline, "_fork", failing):
            save_csv(out, gen.schema(), generate(gen))
        assert failing.call_count == cpus - 1
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == gen.length + 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_export_to_a_full_disk_exits_1_on_both_paths(capsys):
    for cpus in (1, 2):
        with mock.patch.object(parallel, "usable_cpus", lambda: cpus):
            assert cli.main(["export", "--preset", "paper_synth", "--length",
                             str(parallel.EXPORT_MIN_ROWS + 500),
                             "--out", "/dev/full"]) == 1
        assert capsys.readouterr().err == \
            "error: [Errno 28] No space left on device\n"
    assert no_children_left()


def killed(i):
    os.kill(os.getpid(), signal.SIGKILL)


def fails(error):
    def fail(i):
        raise error
    return fail


@pytest.mark.parametrize("failing, fault, code, message", [
    (None, None, 0, ""),
    (2, fails(DataError("bad row in a helper")), 3,
     "data error: bad row in a helper"),
    (0, fails(RuntimeError("the caller's shuffle failed")), 1,
     "error: the caller's shuffle failed"),
    (2, killed, 1, "helper process exited"),
], ids=["success", "helper_data_error", "caller_fails", "helper_killed"])
def test_pooled_run_leaves_no_process_or_descriptor(tmp_path, monkeypatch,
                                                    capsys, failing, fault,
                                                    code, message):
    """Five shuffles on three CPUs: the caller runs 0-1 and two helpers
    2-3 and 4. Shuffle 2 fails in the first helper, whose pipes' caller
    ends the second helper inherits; shuffle 0 fails in the caller while
    both helpers run."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    run_shuffle = cli._run_shuffle

    def faulty(cfg, kinds, source, i, cpus):
        if i == failing:
            fault(i)
        return run_shuffle(cfg, kinds, source, i, cpus)

    monkeypatch.setattr(cli, "_run_shuffle", faulty)
    argv = ["run", "--preset", "ratio_fixed", "--length",
            str(parallel.MIN_ARRIVALS), "--learners", "2", "--shuffles", "5",
            "--out", str(tmp_path / "out")]
    fds = open_fds()
    with alarm(120, "a pooled run hangs"), \
            switch_at(parallel.PIPELINE_MIN_ARRIVALS) as forked:
        assert cli.main(argv) == code
    assert len(forked) == 2
    assert message in capsys.readouterr().err
    assert (tmp_path / "out" / "aggregate.txt").exists() == (code == 0)
    assert open_fds() == fds
    assert no_children_left()


@pytest.mark.parametrize("failing_fork", [1, 2])
def test_pooled_run_whose_fork_fails_runs_the_rest_itself(tmp_path,
                                                         monkeypatch,
                                                         failing_fork):
    """Five shuffles on three CPUs, the fork failing at the first or the
    second helper: no further helper is forked, the caller runs the slices
    that no helper took, and the outputs are those of a serial run."""
    def outputs(out):
        argv = ["run", "--preset", "ratio_fixed", "--length",
                str(parallel.MIN_ARRIVALS), "--learners", "2",
                "--shuffles", "5", "--stride", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        return {path.relative_to(out): [
                    line for line in path.read_bytes().splitlines()
                    if not line.startswith((b"wall_s", b"dir = "))]
                for path in sorted(out.rglob("*")) if path.is_file()}

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    serial = outputs(tmp_path / "serial")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    forks = []
    fork = pipeline._fork

    def failing():
        forks.append(None)
        if len(forks) == failing_fork:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(pipeline, "_fork", failing)
    fds = open_fds()
    with alarm(120, "a pooled run hangs"):
        assert outputs(tmp_path / "pooled") == serial
    assert len(forks) == failing_fork
    assert open_fds() == fds
    assert no_children_left()


def test_importing_the_cli_loads_no_process_machinery():
    """What only a forking run needs is imported when it forks, which
    keeps `import fabboo` and its compile time short."""
    src = str(Path(pipeline.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, fabboo, fabboo.cli; print(sorted(m for m in "
            "('fabboo.pipeline', 'pickle', 'multiprocessing', "
            "'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout == "[]\n"
