"""CSV round-trips, summary rendering, and the SVG chart."""

import io
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_scenario
from reflexgrid.agents import Band, RuleKind
from reflexgrid.engine import compute_metrics, run
from reflexgrid.engine import ShiftRecord, Trace
import reflexgrid.output
from reflexgrid.output import (
    _BASE_COLUMNS,
    _BLOCK_ROWS,
    _READ_BYTES,
    _chart_points,
    _ranks,
    metrics_summary,
    read_trace_csv,
    trace_to_csv,
    trace_to_svg,
    write_trace_csv,
)
from reflexgrid.scenariofile import load_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"


@pytest.fixture(scope="module")
def trace():
    return run(build_scenario(RuleKind.REACTIVE, horizon=300, record_shifts=True))


def test_csv_round_trip(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path)
    assert np.array_equal(loaded.v_load, trace.v_load)
    assert np.array_equal(loaded.v_source, trace.v_source)
    assert np.array_equal(loaded.i_total, trace.i_total)
    assert np.array_equal(loaded.n_flex_on, trace.n_flex_on)
    assert loaded.shifts is None


def test_csv_with_shift_columns(tmp_path, trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=True)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,v_source,v_load,i_total,n_flex_on,shift_0,")
    loaded = read_trace_csv(path)
    assert np.array_equal(loaded.shifts, trace.shifts)


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_shipped_shift_record_round_trips(tmp_path, name):
    scenario = load_scenario(SCENARIOS / f"scenario_{name}.cfg").scenario
    trace = run(replace(scenario, record_shifts=True))
    record = trace.shift_record
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=True)
    loaded = read_trace_csv(path).shift_record
    # the file has no cohorts, so the reader keeps one per agent
    assert np.array_equal(loaded.steps, record.steps)
    assert np.array_equal(loaded.values, record.values[:, record.cohort])
    assert np.array_equal(loaded.cohort, np.arange(scenario.n_agents))


@pytest.mark.parametrize("horizon", [1, 2, 300])
def test_shift_record_from_matrix_gives_back_its_rows(horizon):
    rng = np.random.default_rng(horizon)
    rows = rng.integers(-2, 3, (4, 3)).astype(np.int32)
    matrix = rows[np.cumsum(rng.random(horizon) < 0.1) % 4]
    record = ShiftRecord.from_matrix(matrix)
    assert np.array_equal(record.rows(0, horizon), matrix)
    assert np.array_equal(record.rows(horizon // 2, horizon), matrix[horizon // 2 :])
    assert len(record.steps) == 1 + np.count_nonzero((matrix[1:] != matrix[:-1]).any(axis=1))


def test_csv_requires_recorded_shifts(tmp_path):
    bare = run(build_scenario(RuleKind.REACTIVE, horizon=50, t_start=0, t_end=0,
                              delta_v=0.0, record_shifts=False))
    with pytest.raises(ValueError):
        trace_to_csv(bare, include_shifts=True)
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError):
        write_trace_csv(bare, path, include_shifts=True)
    assert not path.exists()


def reference_csv(trace, include_shifts=False):
    """The row-at-a-time writer: the byte-level specification of the CSV."""
    out = io.StringIO()
    header = ["t", "v_source", "v_load", "i_total", "n_flex_on"]
    shifts = trace.shifts if include_shifts else None
    if include_shifts:
        header += [f"shift_{i}" for i in range(trace.shifts.shape[1])]
    out.write(",".join(header) + "\n")
    for t in range(trace.horizon):
        row = [
            str(t),
            repr(float(trace.v_source[t])),
            repr(float(trace.v_load[t])),
            repr(float(trace.i_total[t])),
            str(int(trace.n_flex_on[t])),
        ]
        if shifts is not None:
            row += [str(int(s)) for s in shifts[t]]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def lines(text):
    """Equal lists mean equal text; a failure reports the first differing line
    instead of a diff of megabytes of text."""
    return text.splitlines(keepends=True)


# a NaN whose payload differs from float("nan")'s
OTHER_NAN = float(np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64))
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, float("nan"), OTHER_NAN, float("inf"), float("-inf")]
HORIZONS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
SHIFT_PATTERNS = ["repeat", "alternate", "block_boundary", "runs", "random"]
FLOAT_POOLS = st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6)


def synthetic_trace(horizon, floats, width, pattern, seed, n_flex_pool=None):
    """A trace whose columns draw from ``floats`` and whose shift rows follow ``pattern``;
    ``n_flex_on`` draws from ``n_flex_pool``, or from +-2**62 when it is None."""
    rng = np.random.default_rng(seed)
    pool = np.array(floats, dtype=float)

    def column():
        return pool[rng.integers(0, len(pool), horizon)]

    shifts = None
    if width:
        rows = rng.integers(-(2**31), 2**31 - 1, (3, width)).astype(np.int32)
        rows[1] = rows[0]
        rows[1, -1] += 1  # rows 0 and 1 differ in their last column only
        t = np.arange(horizon)
        if pattern == "repeat":
            pick = np.zeros(horizon, dtype=int)
        elif pattern == "alternate":
            pick = t % 2
        elif pattern == "block_boundary":
            pick = (t >= _BLOCK_ROWS).astype(int)
        elif pattern == "runs":
            pick = np.cumsum(rng.random(horizon) < 0.01) % 3
        else:
            pick = None
        shifts = (
            rng.integers(-2, 3, (horizon, width)).astype(np.int32)
            if pick is None
            else rows[pick]
        )
    if n_flex_pool is None:
        n_flex = rng.integers(-(2**62), 2**62, horizon)
    else:
        n_flex = np.array(n_flex_pool, dtype=np.int64)[rng.integers(0, len(n_flex_pool), horizon)]
    record = None if shifts is None else ShiftRecord.from_matrix(shifts)
    return Trace(column(), column(), column(), n_flex, record)


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.sampled_from(HORIZONS) | st.integers(1, 40),
    # few values per column, so blocks repeat them; signed zeros share a value
    # but not a text
    floats=FLOAT_POOLS | FLOAT_POOLS.map(lambda pool: pool + [0.0, -0.0]),
    width=st.integers(0, 5),
    pattern=st.sampled_from(SHIFT_PATTERNS),
    seed=st.integers(0, 2**32 - 1),
)
@example(horizon=2 * _BLOCK_ROWS + 3, floats=SPECIAL_FLOATS, width=3,
         pattern="block_boundary", seed=0)
@example(horizon=_BLOCK_ROWS + 1, floats=SPECIAL_FLOATS, width=1, pattern="alternate", seed=1)
@example(horizon=1, floats=SPECIAL_FLOATS, width=2, pattern="repeat", seed=2)
def test_block_writer_matches_row_reference(horizon, floats, width, pattern, seed):
    trace = synthetic_trace(horizon, floats, width, pattern, seed)
    for include_shifts in (False, True) if width else (False,):
        expected = lines(reference_csv(trace, include_shifts))
        assert lines(trace_to_csv(trace, include_shifts)) == expected


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.sampled_from(HORIZONS) | st.integers(1, 40),
    # small pools for every base column, so whole records repeat
    floats=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=2),
    n_flex_pool=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=3),
    width=st.integers(0, 3),
    pattern=st.sampled_from(SHIFT_PATTERNS),
    seed=st.integers(0, 2**32 - 1),
)
# records that differ only in n_flex_on
@example(horizon=_BLOCK_ROWS + 1, floats=[2.5], n_flex_pool=[0, 1], width=2,
         pattern="runs", seed=3)
@example(horizon=40, floats=[1e16], n_flex_pool=[-(2**63), 2**63 - 1], width=0,
         pattern="repeat", seed=4)
# records that differ only in the sign of one zero
@example(horizon=_BLOCK_ROWS + 1, floats=[0.0, -0.0], n_flex_pool=[7], width=1,
         pattern="alternate", seed=5)
def test_block_writer_matches_row_reference_with_repeated_records(
    horizon, floats, n_flex_pool, width, pattern, seed
):
    trace = synthetic_trace(horizon, floats, width, pattern, seed, n_flex_pool)
    for include_shifts in (False, True) if width else (False,):
        expected = lines(reference_csv(trace, include_shifts))
        assert lines(trace_to_csv(trace, include_shifts)) == expected


@pytest.mark.parametrize("horizon", [1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
@pytest.mark.parametrize("include_shifts", [False, True])
def test_written_file_has_the_csv_bytes(tmp_path, horizon, include_shifts):
    trace = synthetic_trace(horizon, SPECIAL_FLOATS, 4, "runs", horizon)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=include_shifts)
    expected = lines(reference_csv(trace, include_shifts))
    assert lines(trace_to_csv(trace, include_shifts)) == expected
    assert lines(path.read_bytes().decode("utf-8")) == expected


# the step text changes form at 1000 and grows a digit at each power of ten
@pytest.mark.parametrize("horizon", [999, 1000, 1001, 9999, 10_001, 100_001])
@pytest.mark.parametrize("include_shifts", [False, True])
def test_step_numbers_at_digit_boundaries(tmp_path, horizon, include_shifts):
    trace = synthetic_trace(horizon, [0.5, -0.0], 2, "runs", horizon, n_flex_pool=[0, 7])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=include_shifts)
    expected = lines(reference_csv(trace, include_shifts))
    assert lines(trace_to_csv(trace, include_shifts)) == expected
    assert lines(path.read_bytes().decode("utf-8")) == expected


INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@settings(max_examples=60, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=50).map(
            lambda xs: np.array(xs, dtype=np.float64).view(np.uint64)
        ),
        st.lists(st.sampled_from(INT64_EXTREMES) | st.integers(-(2**63), 2**63 - 1),
                 min_size=1, max_size=50).map(lambda xs: np.array(xs, dtype=np.int64)),
    )
)
@example(values=np.array(SPECIAL_FLOATS, dtype=np.float64).view(np.uint64))
@example(values=np.array(INT64_EXTREMES[::-1] * 2, dtype=np.int64))
def test_ranks_match_unique_inverse(values):
    distinct, inverse = np.unique(values, return_inverse=True)
    rank, count = _ranks(values)
    assert count == len(distinct)
    assert np.array_equal(rank, inverse)


def test_csv_text_is_deterministic(trace):
    assert trace_to_csv(trace) == trace_to_csv(trace)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda lines: ["x,y"] + lines[1:], "header"),
        (lambda lines: lines[:1], "no data"),
        (lambda lines: lines[:3] + ["9,1,2,3"] + lines[4:], "fields"),
        (lambda lines: lines[:1] + ["7,1.0,2.0,3.0,0"] + lines[2:], "out of order"),
        (lambda lines: lines[:1] + ["0,abc,2.0,3.0,0"] + lines[2:], "row 1"),
        # integers too wide for their columns' types
        (lambda lines: lines[:2] + ["1,1.0,2.0,3.0,99999999999999999999"] + lines[3:],
         "row 2: n_flex_on 99999999999999999999 out of range for int64"),
        (lambda lines: [lines[0] + ",shift_0,shift_1", "0,1.0,2.0,3.0,0,0,99999999999"],
         "row 1: shift 99999999999 out of range for int32"),
    ],
)
def test_malformed_csv_rejected(tmp_path, trace, mangle, message):
    path = tmp_path / "bad.csv"
    lines = trace_to_csv(trace).splitlines()
    path.write_text("\n".join(mangle(lines)) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert message in str(exc.value)


def test_underscored_number_is_rejected(tmp_path):
    # Python's float("1_0") is 10.0; np.loadtxt's own number parser takes no
    # underscores, so the row fails the parse and the field check names it
    path = tmp_path / "bad.csv"
    path.write_text("t,v_source,v_load,i_total,n_flex_on\n0,1.0,1.0,1.0,0\n1,1_0,1.0,1.0,0\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == "row 2: cannot parse '1,1_0,1.0,1.0,0'"


def test_byte_order_mark_is_dropped(tmp_path, trace):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + trace_to_csv(trace, include_shifts=True).encode())
    loaded = read_trace_csv(path)
    for name in ("v_source", "v_load", "i_total", "n_flex_on", "shifts"):
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))


def test_out_of_order_step_names_its_row_once(tmp_path, trace):
    path = tmp_path / "bad.csv"
    lines = trace_to_csv(trace).splitlines()
    path.write_text("\n".join(lines[:2] + ["5,1.0,2.0,3.0,0"] + lines[3:]) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == "row 2: step index 5 out of order"


def float_text_bits(values):
    """The bits of each float after a trip through its shortest repr."""
    return float_bits([float(repr(float(x))) for x in values])


@pytest.mark.parametrize("width", [0, 3])
def test_reader_round_trips_special_values(tmp_path, width):
    trace = synthetic_trace(2 * _BLOCK_ROWS + 3, SPECIAL_FLOATS, width, "runs", width,
                            n_flex_pool=INT64_EXTREMES)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=width > 0)
    loaded = read_trace_csv(path)
    for name in ("v_source", "v_load", "i_total"):
        column = getattr(loaded, name)
        assert column.dtype == np.float64 and column.flags.c_contiguous
        # every NaN reads back as float("nan"), as its text is "nan"
        assert float_bits(column) == float_text_bits(getattr(trace, name))
    assert loaded.n_flex_on.dtype == np.int64
    assert np.array_equal(loaded.n_flex_on, trace.n_flex_on)
    if width:
        assert np.array_equal(loaded.shifts, trace.shifts)
        record = loaded.shift_record
        assert record.values.dtype == np.int32
        assert np.array_equal(record.steps, trace.shift_record.steps)


def shift_csv(tmp_path, rows, bad_row=None, bad_value=None):
    """A two-column shift CSV of ``rows`` rows at the int32 edges, one value
    replaced by ``bad_value`` in row ``bad_row`` (counted from 1)."""
    lines = ["t,v_source,v_load,i_total,n_flex_on,shift_0,shift_1"]
    for t in range(rows):
        shifts = [-(2**31), 2**31 - 1] if t % 2 else [2**31 - 1, -(2**31)]
        if t + 1 == bad_row:
            shifts[1] = bad_value
        lines.append(f"{t},1.0,2.0,3.0,4,{shifts[0]},{shifts[1]}")
    path = tmp_path / "shifts.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_int32_shift_edges_read_back(tmp_path):
    loaded = read_trace_csv(shift_csv(tmp_path, _BLOCK_ROWS + 1))
    assert loaded.shift_record.values.dtype == np.int32
    assert loaded.shifts[0].tolist() == [2**31 - 1, -(2**31)]
    assert loaded.shifts[-1].tolist() == [2**31 - 1, -(2**31)]
    assert len(loaded.shift_record.steps) == _BLOCK_ROWS + 1


# numpy 1.24 wraps an integer cast to int32 where numpy 2 raises, so the
# shifts are range-checked before the cast
@pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**63 - 1, 2**63, 99999999999999999999])
@pytest.mark.parametrize("row", [1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS])
def test_out_of_range_shift_names_its_row(tmp_path, value, row):
    with pytest.raises(ValueError) as exc:
        read_trace_csv(shift_csv(tmp_path, 2 * _BLOCK_ROWS, row, value))
    assert str(exc.value) == f"row {row}: shift {value} out of range for int32"


# each kind of bad row at step t: the line that replaces it, and the fault
# that follows "row n: "
MALFORMED_ROWS = {
    "too_few_fields": lambda t: (f"{t},1.0,2.0,3.0,4,0", "expected 7 fields, got 6"),
    "too_many_fields": lambda t: (f"{t},1.0,2.0,3.0,4,0,0,0", "expected 7 fields, got 8"),
    "not_a_number": lambda t: (f"{t},1.0,abc,3.0,4,0,0", "v_load 'abc' is not a number"),
    "empty_field": lambda t: (f"{t},1.0,2.0,,4,0,0", "i_total '' is not a number"),
    "float_step": lambda t: (f"{t}.0,1.0,2.0,3.0,4,0,0", f"t '{t}.0' is not an integer"),
    "float_shift": lambda t: (f"{t},1.0,2.0,3.0,4,0,1.5", "shift_1 '1.5' is not an integer"),
    "wide_n_flex_on": lambda t: (f"{t},1.0,2.0,3.0,{2**63},0,0",
                                 f"n_flex_on {2**63} out of range for int64"),
    "step_out_of_order": lambda t: (f"{t + 1},1.0,2.0,3.0,4,0,0",
                                    f"step index {t + 1} out of order"),
}


@pytest.mark.parametrize("kind", list(MALFORMED_ROWS))
@pytest.mark.parametrize("row", [1, 2, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
def test_malformed_row_is_named(tmp_path, kind, row):
    trace = synthetic_trace(2 * _BLOCK_ROWS + 3, [0.5], 2, "runs", row, n_flex_pool=[4])
    lines = trace_to_csv(trace, include_shifts=True).splitlines()
    lines[row], fault = MALFORMED_ROWS[kind](row - 1)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == f"row {row}: {fault}"


def test_first_of_two_bad_rows_is_named(tmp_path, trace):
    # an out-of-order step parses, and is named before a later row that does not
    lines = trace_to_csv(trace).splitlines()
    lines[3] = "7,1.0,2.0,3.0,0"
    lines[200] = "199,abc,2.0,3.0,0"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == "row 3: step index 7 out of order"


def traced_peak(call):
    """``call()`` and the peak bytes that tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_csv_text_is_held_once():
    # one block whose shift rows repeat: its parts are shared strings, so
    # the text is the only large allocation; joining block texts would
    # hold it twice
    trace = synthetic_trace(_BLOCK_ROWS, [0.5, -0.0], 64, "runs", 0, n_flex_pool=[0, 7])
    text, peak = traced_peak(lambda: trace_to_csv(trace, include_shifts=True))
    assert len(text) > 2**21
    assert peak < 1.25 * len(text) + 2**19


def test_reader_holds_a_few_times_the_arrays_it_returns(tmp_path):
    trace = synthetic_trace(20_000, SPECIAL_FLOATS, 16, "runs", 0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=True)
    loaded, peak = traced_peak(lambda: read_trace_csv(path))
    # the base columns and the int32 shift matrix the record stands for
    returned = sum(getattr(loaded, name).nbytes for name in _BASE_COLUMNS[1:]) + loaded.shifts.nbytes
    # the parsed table holds 8 bytes per field and the base columns are copied
    # out of it: about 2.4 times; one Python object per field is over 20 times
    assert peak < 3 * returned + 2**16


@pytest.mark.parametrize("rows", [2_000, 16_000])
def test_reader_peak_does_not_grow_with_the_shift_table(tmp_path, rows):
    # 200 shift columns: the int64 table of every row would be 25.6 MB at
    # 16 000 rows, while the changed rows the record keeps are few
    trace = synthetic_trace(rows, [0.5, 1e-5], 200, "runs", 0, n_flex_pool=[0, 7])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, include_shifts=True)
    loaded, peak = traced_peak(lambda: read_trace_csv(path))
    record = loaded.shift_record
    returned = sum(getattr(loaded, name).nbytes for name in _BASE_COLUMNS[1:])
    returned += record.steps.nbytes + record.values.nbytes + record.cohort.nbytes
    # the chunks' base columns and their concatenation, plus one chunk's
    # lines and table, which do not depend on the row count
    assert peak < 2 * returned + 8 * _READ_BYTES


def chunk_of(monkeypatch, rows, width):
    """Make the reader parse ``rows`` rows of a trace with ``width`` shift columns at a time."""
    monkeypatch.setattr(reflexgrid.output, "_READ_BYTES", rows * 8 * (len(_BASE_COLUMNS) + width))


@pytest.mark.parametrize("pattern", SHIFT_PATTERNS)
@pytest.mark.parametrize("horizon", [1, 6, 7, 8, 50])
def test_chunked_read_keeps_every_shift_change(tmp_path, monkeypatch, pattern, horizon):
    chunk_of(monkeypatch, 7, 3)
    trace = synthetic_trace(horizon, SPECIAL_FLOATS, 3, pattern, horizon, n_flex_pool=INT64_EXTREMES)
    lines = trace_to_csv(trace, include_shifts=True).splitlines()
    # blank lines are skipped, a whole chunk of them included
    lines[1:1] = [""] * 7
    lines.insert(12, "")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_trace_csv(path)
    assert float_bits(loaded.v_load) == float_text_bits(trace.v_load)
    assert np.array_equal(loaded.n_flex_on, trace.n_flex_on)
    assert np.array_equal(loaded.shift_record.steps, trace.shift_record.steps)
    assert np.array_equal(loaded.shift_record.values, trace.shift_record.values)
    assert np.array_equal(loaded.shifts, trace.shifts)


@pytest.mark.parametrize("kind", list(MALFORMED_ROWS))
@pytest.mark.parametrize("row", [99, 100, 101, 102])
def test_malformed_row_is_named_beside_a_chunk_boundary(tmp_path, monkeypatch, kind, row):
    chunk_of(monkeypatch, 100, 2)  # rows 1-100, then 101-200
    trace = synthetic_trace(250, [0.5], 2, "runs", row, n_flex_pool=[4])
    lines = trace_to_csv(trace, include_shifts=True).splitlines()
    lines[row], fault = MALFORMED_ROWS[kind](row - 1)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == f"row {row}: {fault}"


@pytest.mark.parametrize("first, second", [("step_out_of_order", "not_a_number"),
                                           ("not_a_number", "step_out_of_order"),
                                           ("float_shift", "wide_n_flex_on")])
def test_first_bad_row_is_named_across_a_chunk_boundary(tmp_path, monkeypatch, first, second):
    chunk_of(monkeypatch, 100, 2)
    trace = synthetic_trace(250, [0.5], 2, "runs", 0, n_flex_pool=[4])
    lines = trace_to_csv(trace, include_shifts=True).splitlines()
    lines[100], fault = MALFORMED_ROWS[first](99)
    lines[101], _ = MALFORMED_ROWS[second](100)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == f"row 100: {fault}"


def test_summary_contains_all_metrics(trace):
    band = Band(8.60, 8.64)
    window = (0, 300)
    text = metrics_summary(compute_metrics(trace, band, window), band, window)
    for field in ("window:", "band:", "outside_band_fraction:", "band_crossings:",
                  "max_overshoot:", "max_undershoot:", "settled:"):
        assert field in text
    assert text == metrics_summary(compute_metrics(trace, band, window), band, window)


def test_svg_is_valid_xml_with_three_series(trace):
    band = Band(8.60, 8.64)
    svg = trace_to_svg(trace, band, disturbance_window=(100, 160))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 3
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 2  # background plus disturbance shading


def test_svg_without_disturbance_has_no_shading(trace):
    svg = trace_to_svg(trace, Band(8.60, 8.64), disturbance_window=None)
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 1


W, H, M = 1000, 400, 40


def reference_scale(horizon, v, band):
    """The chart's y range and its scalar point expressions ``sx``/``sy``."""
    lo = min(float(v.min()), band.v_low)
    hi = max(float(v.max()), band.v_high)
    pad = 0.05 * (hi - lo) or 1e-6
    lo, hi = lo - pad, hi + pad

    def sx(t):
        return M + (t / max(horizon - 1, 1)) * (W - 2 * M)

    def sy(val):
        return H - M - ((val - lo) / (hi - lo)) * (H - 2 * M)

    return lo, hi, sx, sy


def reference_svg(trace, band, disturbance_window=None):
    """The point-at-a-time chart: the byte-level specification of the SVG."""
    horizon = trace.horizon
    v = trace.v_load
    _, _, sx, sy = reference_scale(horizon, v, band)

    def polyline(points, color, width="1"):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
    ]
    if disturbance_window is not None and disturbance_window[1] > disturbance_window[0]:
        x0, x1 = sx(disturbance_window[0]), sx(disturbance_window[1] - 1)
        parts.append(
            f'<rect x="{x0:.2f}" y="{M}" width="{x1 - x0:.2f}" height="{H - 2 * M}" fill="#fde2c8"/>'
        )
    stride = max(1, horizon // (W * 4))
    ts = list(range(0, horizon, stride))
    if ts[-1] != horizon - 1:
        ts.append(horizon - 1)
    parts.append(polyline([(sx(t), sy(band.v_low)) for t in (0, horizon - 1)], "#888888"))
    parts.append(polyline([(sx(t), sy(band.v_high)) for t in (0, horizon - 1)], "#888888"))
    parts.append(polyline([(sx(t), sy(float(v[t]))) for t in ts], "#1f5fa8", "1.5"))
    parts.append(
        f'<text x="{M}" y="{M - 10}" font-family="monospace" font-size="12">'
        f"load voltage, band [{band.v_low:.4f}, {band.v_high:.4f}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_windows(horizon):
    """No window, an empty one, a partial one and the whole run."""
    return [None, (horizon // 2, horizon // 2), (horizon // 4, horizon // 2 + 1), (0, horizon)]


# 4000 points fit undecimated; 8001 decimates onto its last step, 100 000
# decimates past it and appends it
@pytest.mark.parametrize("horizon", [1, 2, 3999, 4000, 4001, 8001, 100_000])
def test_svg_matches_point_reference(horizon):
    band = Band(8.60, 8.64)
    trace = synthetic_trace(horizon, [8.58, 8.6, 8.6137, 8.62, 8.64, 8.66], 0, "repeat", horizon)
    for window in svg_windows(horizon):
        assert lines(trace_to_svg(trace, band, window)) == lines(reference_svg(trace, band, window))


@pytest.mark.parametrize(
    "level, band",
    [
        (8.62, Band(8.60, 8.64)),  # flat inside the band
        (0.0, Band(0.0, 5e-324)),  # a span whose 5% pad rounds to 0: the 1e-6 pad
    ],
)
def test_svg_of_flat_load_matches_point_reference(level, band):
    trace = synthetic_trace(500, [level], 0, "repeat", 0)
    for window in svg_windows(500):
        assert lines(trace_to_svg(trace, band, window)) == lines(reference_svg(trace, band, window))


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def chart_points(draw):
    """Steps of a horizon up to 2**53, voltages and the band they are charted with."""
    horizon = draw(st.integers(1, 2**53))
    volts = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40))
    steps = draw(st.lists(st.integers(0, horizon - 1), min_size=len(volts), max_size=len(volts)))
    edges = draw(st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2, unique=True))
    return horizon, steps, volts, Band(*sorted(edges))


@settings(max_examples=300, deadline=None)
@given(chart_points())
@example((100_000, [0, 1, 24, 50_000, 99_998, 99_999], [8.58, 8.609, 8.6137, 8.622, 8.642, 8.66],
          Band(8.60, 8.64)))  # three of these y differ by an ulp if divided via a reciprocal
def test_chart_points_are_the_scalar_expressions(points):
    # bit for bit, not through the %.2f text, which hides a 1-ulp change
    horizon, steps, volts, band = points
    v = np.array(volts)
    lo, hi, sx, sy = reference_scale(horizon, v, band)
    x, y = _chart_points(np.array(steps), v, horizon, lo, hi)
    assert x.dtype == y.dtype == np.float64
    assert float_bits(x) == float_bits([sx(t) for t in steps])
    assert float_bits(y) == float_bits([sy(val) for val in volts])
