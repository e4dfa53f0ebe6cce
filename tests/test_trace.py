"""The packed default trace: each row read back as the TraceRow appended,
list-like indexing, slicing and equality, and the bytes held per row."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fabboo import Trace, TraceRow, run_prequential
from fabboo.data import NEGATIVE, POSITIVE

from test_prequential import ConstantModel, make_stream

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
ROWS = st.lists(st.builds(TraceRow, *[INT64] * 4, *[st.floats()] * 7),
                max_size=30)


def bits(row):
    """A row with each float as its 8 bytes, so NaNs compare bitwise."""
    return tuple(struct.pack("=d", v) if isinstance(v, float) else v
                 for v in row)


def packed(rows):
    trace = Trace()
    for row in rows:
        trace.append(row)
    return trace


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_packed_rows_read_back_bit_for_bit(rows):
    trace = packed(rows)
    assert len(trace) == len(rows)
    want = [bits(r) for r in rows]
    assert [bits(r) for r in trace] == want
    assert [bits(trace[i]) for i in range(len(rows))] == want
    assert [bits(trace[i]) for i in range(-len(rows), 0)] == want
    assert all(type(r) is TraceRow for r in trace)
    assert all(type(v) is type(w) for r, row in zip(trace, rows)
               for v, w in zip(r, row))
    # equality is a list's, row by row: a rebuilt NaN equals no NaN
    assert (trace == rows) == (list(trace) == rows)
    assert (trace == packed(rows)) == (list(trace) == list(packed(rows)))


def test_indexing_and_slices_are_a_lists():
    rows = [TraceRow(t, 1, -1, t % 2, *[t / 7] * 7) for t in range(1, 12)]
    trace = packed(rows)
    assert len(trace) == 11
    assert trace[-1] == rows[-1] and trace[-11] == rows[0]
    for k in (11, -12, 2 ** 63):
        with pytest.raises(IndexError):
            trace[k]
    for s in (slice(None, None, 2), slice(None, None, -3), slice(9, 2, -2),
              slice(-4, None), slice(3, 3), slice(20, 30)):
        assert type(trace[s]) is list and trace[s] == rows[s]
    with pytest.raises(TypeError):
        trace[0] = rows[1]


def test_equality_is_row_by_row():
    zero = TraceRow(1, 1, 1, 0, *[0.0] * 7)
    negative_zero = TraceRow(1, 1, 1, 0, *[-0.0] * 7)
    assert packed([zero]) == [negative_zero] == packed([negative_zero])
    assert Trace() == [] and Trace() == Trace()
    assert packed([zero]) != [zero, zero] and packed([zero]) != Trace()
    assert packed([zero]) != [zero._replace(t=2)]
    assert packed([zero]) != "not a trace"


def test_a_run_holds_88_bytes_per_row():
    """The default trace keeps one 88-byte record per row; a list of
    TraceRows, seven floats and an int each, held about 340."""
    rows = 10_000
    trace, _ = run_prequential(ConstantModel(POSITIVE),
                               make_stream([POSITIVE, NEGATIVE] * (rows // 2)))
    assert type(trace) is Trace
    assert len(trace._buf) == 88 * len(trace) == 88 * rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = packed(trace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert copy == trace
    assert held / rows <= 100   # the bytearray's over-allocation included


def test_a_list_still_gets_the_rows():
    stream = make_stream([POSITIVE, NEGATIVE] * 20)
    default, _ = run_prequential(ConstantModel(POSITIVE), stream)
    rows, _ = run_prequential(ConstantModel(POSITIVE), stream, trace=[])
    assert type(rows) is list and rows == default
