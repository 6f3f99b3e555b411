"""Trace serialization: CSV, metrics summaries, and an SVG chart.

The CSV schema is one header row ``t,v_source,v_load,i_total,n_flex_on``
followed by one row per step, with optional ``shift_<i>`` columns when
shifts were recorded.  Floats render as their shortest round-trip
representation, so identical runs serialize byte-identically.

The CSV is made in blocks of rows.  A block keys each row on the bit
patterns of its four base values: ``_ranks`` sorts a column, keeps the
values that differ from their neighbour and finds each row's rank among
them with a binary search, and the four ranks make one mixed-radix key,
ranked the same way.  Each distinct record is formatted once as
``,v_source,v_load,i_total,n_flex_on`` plus its terminator.  Step numbers
come from tables: a step of 1000 or more is ``str(t // 1000)``, one string
shared by its thousand, then its last three digits from a ``%03d`` table;
a smaller step comes from a ``str`` table.  Shift columns come from the
trace's ``ShiftRecord``: one binary search finds the change in force at
each row, and each change in force in the block is expanded to agent
order and formatted once, so the (horizon, N) shift matrix is never
built.  The shift text still holds horizon x N numbers; that, not the
run's memory, is what ``engine.SHIFT_RECORDING_MAX_ENTRIES`` bounds.
The step parts, the record texts and the shift texts are spliced into
one list of parts per block; a part is shared, not copied, wherever rows
repeat it.  ``trace_to_csv`` gathers every block's parts into one list and
makes one ``join``, so it holds the text once.  ``write_trace_csv`` joins
and writes one block at a time, so it holds at most one block's text and
a long trace never exists as one string.  The bytes equal formatting each
value with ``repr(float(x))`` or ``str(int(x))``.

The reader takes the data lines of one open file in chunks of about
``_READ_BYTES`` parsed bytes and parses each chunk with one ``np.loadtxt``
into a structured array: the five base columns, then the shift columns as
one int64 subarray.  Values that parse are checked as arrays: the steps
against their row numbers and the shifts against int32's range, before
the rows that change the shifts (compared with the row before, across
chunk boundaries too) are cast to int32 for the ``ShiftRecord``.  So a
read holds one chunk's lines and table, the base columns copied out of
the chunks and the changed shift rows, never the (rows, N) shift table.
Row n is the n-th data row; blank lines are skipped, as ``np.loadtxt``
skips them.  When a chunk does not parse, its rows are bisected with the
same parse to name the first that fails.

The SVG chart computes its points as float64 arrays, in the order the
scalar expressions would, and formats them with one ``%``.
"""

from __future__ import annotations

import warnings
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .agents import Band
from .engine import Metrics, ShiftRecord, Trace

_BASE_COLUMNS = ("t", "v_source", "v_load", "i_total", "n_flex_on")
# rows per block: bounds the text held at once while writing a long trace
_BLOCK_ROWS = 4096
# parsed bytes per chunk of rows: bounds the table held at once while reading
_READ_BYTES = 2**18
# the text of 0..999 and of the last three digits of a step of 1000 or more
_SMALL_STEPS = [str(r) for r in range(1000)]
_LOW_DIGITS = ["%03d" % r for r in range(1000)]


def _fmt(x: float) -> str:
    return repr(float(x))


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each element's rank among the distinct values of ``values``, and their count.

    The ranks equal ``np.unique(values, return_inverse=True)[1]``.
    """
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct = ordered[keep]
    return np.searchsorted(distinct, values), len(distinct)


def _csv_blocks(trace: Trace, include_shifts: bool) -> Iterator[list[str]]:
    """The header line, then the parts of each block of up to ``_BLOCK_ROWS`` rows.

    ``repr`` of a ``tolist`` float and ``str`` of a ``tolist`` int are the
    bytes ``repr(float(x))`` and ``str(int(x))`` give for the numpy scalar.
    """
    header = list(_BASE_COLUMNS)
    shifts = trace.shift_record if include_shifts else None
    if include_shifts:
        if shifts is None:
            raise ValueError("trace has no recorded shifts")
        header += [f"shift_{i}" for i in range(len(shifts.cohort))]
    yield [",".join(header) + "\n"]
    # a row is its step's thousands and last three digits, its record's tail
    # and, with shifts, its shift text
    width, end = (3, "\n") if shifts is None else (4, ",")
    floats = [np.asarray(c, dtype=np.float64) for c in (trace.v_source, trace.v_load, trace.i_total)]
    columns = floats + [trace.n_flex_on]
    # floats are keyed on bits, so -0.0 and 0.0 stay apart
    keyed = [c.view(np.uint64) for c in floats] + [trace.n_flex_on]
    for start in range(0, trace.horizon, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, trace.horizon)
        rows = stop - start
        # one key per record: below _BLOCK_ROWS**4 < 2**63
        key = np.zeros(rows, dtype=np.int64)
        for column in keyed:
            rank, count = _ranks(column[start:stop])
            key = key * count + rank
        inverse, count = _ranks(key)
        # any row of a record will do: its four values are equal bit for bit
        first = np.empty(count, dtype=np.intp)
        first[inverse] = np.arange(rows)
        records = zip(*(c[start:stop][first].tolist() for c in columns))
        tails = np.array([f",{a!r},{b!r},{c!r},{n}{end}" for a, b, c, n in records], dtype=object)
        parts = [""] * (width * rows)
        # step t is str(t // 1000), shared by its thousand, then its last three
        # digits; below 1000 the first part stays empty.  Each thousand is
        # clipped to the block.
        for lo in range(start - start % 1000, stop, 1000):
            a, b = max(lo, start), min(lo + 1000, stop)
            i, j = width * (a - start), width * (b - start)
            if lo:
                parts[i:j:width] = [str(lo // 1000)] * (b - a)
            parts[i + 1 : j : width] = (_LOW_DIGITS if lo else _SMALL_STEPS)[a - lo : b - lo]
        parts[2::width] = tails[inverse].tolist()
        if shifts is not None:
            # each change in force in the block is formatted once, in agent order
            change = shifts.changes(start, stop)
            first_change = int(change[0])
            expanded = shifts.values[first_change : int(change[-1]) + 1][:, shifts.cohort]
            texts = [",".join(map(str, row)) + "\n" for row in expanded.tolist()]
            parts[3::width] = np.array(texts, dtype=object)[change - first_change].tolist()
        yield parts


def trace_to_csv(trace: Trace, include_shifts: bool = False) -> str:
    """Render the trace as CSV text (LF line endings)."""
    parts: list[str] = []
    for block in _csv_blocks(trace, include_shifts):
        parts += block
    return "".join(parts)


def write_trace_csv(trace: Trace, path: str | Path, include_shifts: bool = False) -> None:
    """Write ``trace_to_csv``'s bytes to ``path`` block by block."""
    blocks = _csv_blocks(trace, include_shifts)
    header = next(blocks)  # a missing-shifts error leaves the file untouched
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(header)
        for block in blocks:
            fh.write("".join(block))


def _parse_rows(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """``lines`` as a ``dtype`` array, one element per line that is not blank."""
    with warnings.catch_warnings():
        # no data rows is the caller's error, not a warning
        warnings.simplefilter("ignore", UserWarning)
        # numpy < 2 parses "1.0" as an integer with a warning; reject it as numpy 2 does
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, encoding="utf-8", ndmin=1)


def _value_fault(table: np.ndarray, offset: int) -> str | None:
    """The row-numbered fault of the first parsed row whose values are bad:
    a step out of order or a shift outside int32; None when there is none.
    ``table`` holds data rows offset + 1, offset + 2, ..."""
    steps = table["t"]
    bad = steps != np.arange(offset, offset + len(table))
    if "shifts" in table.dtype.names:
        shifts = table["shifts"]
        bad |= (shifts.min(axis=1) < -(2**31)) | (shifts.max(axis=1) >= 2**31)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    if steps[row] != offset + row:
        return f"row {offset + row + 1}: step index {steps[row]} out of order"
    values = shifts[row]
    value = values[(values < -(2**31)) | (values >= 2**31)][0]
    return f"row {offset + row + 1}: shift {value} out of range for int32"


def _first_fault(chunk: list[str], offset: int, header: list[str], dtype: np.dtype) -> str:
    """The row-numbered fault of the first bad data row of a chunk that does
    not parse; its rows are numbered from offset + 1.

    The rows are bisected with the chunk's parse itself, so the row found is
    the first one it rejects.  The rows before it parse, and one of them
    may hold bad values, which is then the first fault.
    """
    # no blank lines, as the parse skips them
    lines = [line for line in (line.rstrip("\n") for line in chunk) if line]
    lo, hi = 0, len(lines)  # rows before lo parse; one in [lo, hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[lo:mid], dtype)
            lo = mid
        except (ValueError, DeprecationWarning):
            hi = mid
    earlier = _value_fault(_parse_rows(lines[:lo], dtype), offset)
    return earlier or f"row {offset + lo + 1}: {_row_fault(lines[lo], header)}"


def _row_fault(line: str, header: list[str]) -> str:
    """Why the parse rejects ``line``, told field by field."""
    fields = line.split(",")
    if len(fields) != len(header):
        return f"expected {len(header)} fields, got {len(fields)}"
    for name, text in zip(header, fields):
        if name in _BASE_COLUMNS[1:4]:
            try:
                float(text)
            except ValueError:
                return f"{name} {text!r} is not a number"
            continue
        try:
            value = int(text)
        except ValueError:
            return f"{name} {text!r} is not an integer"
        name, bits = ("shift", 32) if name.startswith("shift_") else (name, 64)
        if not -(2 ** (bits - 1)) <= value < 2 ** (bits - 1):
            return f"{name} {value} out of range for int{bits}"
    return f"cannot parse {line!r}"


def read_trace_csv(path: str | Path) -> Trace:
    """Parse a trace CSV back into arrays and, when it has shift columns, a
    ``ShiftRecord`` of one cohort per agent; raises ValueError on bad schema."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_trace(fh)
    except UnicodeDecodeError:
        # decoded again in one piece, so the error gives its offset in the file
        Path(path).read_bytes().decode("utf-8")
        raise


def _read_trace(fh) -> Trace:
    line = fh.readline().removeprefix("\ufeff")  # a byte-order mark
    if not line:
        raise ValueError("empty CSV file")
    header = line.rstrip("\r\n").split(",")
    if tuple(header[: len(_BASE_COLUMNS)]) != _BASE_COLUMNS:
        raise ValueError(
            f"bad CSV header: expected columns {','.join(_BASE_COLUMNS)}, got {','.join(header)}"
        )
    for i, name in enumerate(header[len(_BASE_COLUMNS) :]):
        if name != f"shift_{i}":
            raise ValueError(f"bad shift column name {name!r}")
    # the five base columns, then the shift columns as one int64 subarray
    fields = [(name, np.float64 if name in _BASE_COLUMNS[1:4] else np.int64) for name in _BASE_COLUMNS]
    width = len(header) - len(_BASE_COLUMNS)
    if width:
        fields.append(("shifts", np.int64, (width,)))
    dtype = np.dtype(fields)
    # each chunk's base columns, and the steps and rows of its shift changes
    columns: dict[str, list[np.ndarray]] = {name: [] for name in _BASE_COLUMNS[1:]}
    steps: list[np.ndarray] = []
    values: list[np.ndarray] = []
    last = None  # the shift row before the chunk
    rows = 0
    while chunk := list(islice(fh, max(1, _READ_BYTES // dtype.itemsize))):
        try:
            table = _parse_rows(chunk, dtype)
        except (ValueError, DeprecationWarning):
            raise ValueError(_first_fault(chunk, rows, header, dtype)) from None
        fault = _value_fault(table, rows)
        if fault:
            raise ValueError(fault)
        if not len(table):
            continue  # blank lines only
        # copies, so that no chunk's table stays alive
        for name, parts in columns.items():
            parts.append(table[name].copy())
        if width:
            shifts = table["shifts"]
            changed = np.empty(len(shifts), dtype=bool)
            changed[0] = last is None or (shifts[0] != last).any()
            changed[1:] = (shifts[1:] != shifts[:-1]).any(axis=1)
            steps.append(rows + np.flatnonzero(changed))
            values.append(shifts[changed].astype(np.int32))
            last = shifts[-1].copy()
        rows += len(table)
    if not rows:
        raise ValueError("CSV contains no data rows")
    record = None
    if width:
        record = ShiftRecord(np.concatenate(steps), np.concatenate(values), np.arange(width))
    return Trace(*(np.concatenate(parts) for parts in columns.values()), record)


def metrics_summary(metrics: Metrics, band: Band, window: tuple[int, int]) -> str:
    """Deterministic text block; identical metrics render identically."""
    return (
        f"window: [{window[0]}, {window[1]})\n"
        f"band: [{_fmt(band.v_low)}, {_fmt(band.v_high)}]\n"
        f"outside_band_fraction: {_fmt(metrics.outside_band_fraction)}\n"
        f"band_crossings: {metrics.band_crossings}\n"
        f"max_overshoot: {_fmt(metrics.max_overshoot)}\n"
        f"max_undershoot: {_fmt(metrics.max_undershoot)}\n"
        f"settled: {'true' if metrics.settled else 'false'}\n"
    )


# --- SVG chart -------------------------------------------------------------

_SVG_W, _SVG_H = 1000, 400
_MARGIN = 40


def _polyline(x: np.ndarray, y: np.ndarray, color: str, width: str = "1") -> str:
    xy = np.empty(2 * len(x))
    xy[0::2], xy[1::2] = x, y
    coords = " ".join(["%.2f,%.2f"] * len(x)) % tuple(xy.tolist())
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>'


def _chart_points(steps: np.ndarray, volts: np.ndarray, horizon: int, lo: float, hi: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Chart coordinates of (step, voltage) points as float64 arrays.

    The y axis spans [lo, hi].  The arithmetic is the scalar expressions'
    in their order, and steps below 2**53 convert exactly, so each point
    has the bits those expressions give.
    """
    x = _MARGIN + (steps / max(horizon - 1, 1)) * (_SVG_W - 2 * _MARGIN)
    y = _SVG_H - _MARGIN - ((volts - lo) / (hi - lo)) * (_SVG_H - 2 * _MARGIN)
    return x, y


def trace_to_svg(
    trace: Trace,
    band: Band,
    disturbance_window: tuple[int, int] | None = None,
) -> str:
    """A fixed 1000x400 chart: load voltage, band edges, sag shading."""
    horizon = trace.horizon
    v = trace.v_load
    lo = min(float(v.min()), band.v_low)
    hi = max(float(v.max()), band.v_high)
    pad = 0.05 * (hi - lo) or 1e-6
    lo, hi = lo - pad, hi + pad

    def points(steps, volts):
        return _chart_points(np.asarray(steps), np.asarray(volts), horizon, lo, hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if disturbance_window is not None and disturbance_window[1] > disturbance_window[0]:
        x0, x1 = points([disturbance_window[0], disturbance_window[1] - 1], [lo, lo])[0].tolist()
        parts.append(
            f'<rect x="{x0:.2f}" y="{_MARGIN}" width="{x1 - x0:.2f}" '
            f'height="{_SVG_H - 2 * _MARGIN}" fill="#fde2c8"/>'
        )
    # decimate long traces so the file stays small; plotting is a view, not data
    stride = max(1, horizon // (_SVG_W * 4))
    ts = np.arange(0, horizon, stride)
    if ts[-1] != horizon - 1:
        ts = np.append(ts, horizon - 1)
    ends = [0, horizon - 1]
    parts.append(_polyline(*points(ends, [band.v_low] * 2), "#888888"))
    parts.append(_polyline(*points(ends, [band.v_high] * 2), "#888888"))
    parts.append(_polyline(*points(ts, v[ts]), "#1f5fa8", "1.5"))
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 10}" font-family="monospace" font-size="12">'
        f"load voltage, band [{band.v_low:.4f}, {band.v_high:.4f}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trace_svg(
    trace: Trace,
    band: Band,
    path: str | Path,
    disturbance_window: tuple[int, int] | None = None,
) -> None:
    Path(path).write_text(trace_to_svg(trace, band, disturbance_window), encoding="utf-8")
