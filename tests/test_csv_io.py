"""The CSV writer's cells against ``%`` formatting, and the array record
reader against the per-line reading it replaced."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smefilter.csvtext import _FEW_CELLS, _significands, csv_rows
from smefilter.diffusion import _CSV_BLOCK, _RECORD_KINDS, MeasurementRecord, _write_csv, read_record, write_record

FLOAT64 = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


def percent_rows(columns, formats):
    return "".join(",".join(f % v for f, v in zip(formats, row)) + "\n" for row in zip(*columns)).encode()


def kernel_cells_equal_percent(columns, formats):
    """Whether :func:`csv_rows` writes ``columns``, repeated up to a block
    its array kernel formats, as ``%`` does."""
    rows = max(len(columns[0]), -(-_FEW_CELLS // len(columns)))
    columns = [np.resize(c, rows) for c in columns]
    return csv_rows(columns) == percent_rows(columns, formats)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(FLOAT64, min_size=1, max_size=64))
def test_float_cells_equal_percent_g_for_any_bit_pattern(values):
    assert kernel_cells_equal_percent([np.array(values)], ["%.17g"])


POWERS = [float(f"1e{k}") for k in range(-323, 309)]
EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    9.9999999999999995e-05, 0.0001, 1e17, 99999999999999984.0, 1e16, 0.1, 1.0, -2.5,
]


@pytest.mark.parametrize(
    "values",
    [
        EDGES,
        POWERS,
        [np.nextafter(p, math.inf) for p in POWERS],
        [np.nextafter(p, 0.0) for p in POWERS],
        [-p for p in POWERS],
        # exact decimal ties at the 17th digit round half to even
        [1e15 + j + f for j in range(500) for f in (0.25, 0.75)],
        [2.0**-k for k in range(1, 1075)],
        [2.0**k for k in range(1024)],
    ],
    ids=["edges", "powers", "powers-up", "powers-down", "negative-powers", "ties", "halves", "doubles"],
)
def test_float_cells_equal_percent_g(values):
    assert kernel_cells_equal_percent([np.array(values)], ["%.17g"])


def test_values_near_a_tie_are_left_to_percent():
    # the exact ties above would round right in the kernel too, but a value
    # within the double-double's error of a tie would not
    values = np.array([1000000000000000.25, 1000000000000000.75, 0.1, 2.5, 0.0, math.inf])
    assert _significands(values)[2].tolist() == [True, True, False, False, False, True]


def test_integer_columns_are_percent_d():
    big = np.iinfo(np.int64)
    ints = np.array([0, 1, -1, 7, 2**53, 2**53 + 1, -(2**53) - 1, 10**17, big.max, big.min])
    floats = np.linspace(-1.0, 1.0, ints.size)
    small = ints.astype(np.int32)
    unsigned = np.array([0, 5, 2**53 + 1, 2**64 - 1] + [3] * (ints.size - 4), np.uint64)
    columns = [ints, floats, small, unsigned]
    formats = ["%d", "%.17g", "%d", "%d"]
    assert csv_rows(columns) == percent_rows(columns, formats)  # row by row
    assert kernel_cells_equal_percent(columns, formats)


def test_rows_span_blocks(tmp_path):
    rng = np.random.default_rng(5)
    rows = 2 * _CSV_BLOCK + 3
    columns = [np.arange(rows), rng.normal(size=rows), rng.normal(size=rows) * 1e-7]
    _write_csv(tmp_path / "x.csv", ["a", "b"], "i,u,v", columns)
    want = b"# a\n# b\ni,u,v\n" + percent_rows(columns, ["%d", "%.17g", "%.17g"])
    assert (tmp_path / "x.csv").read_bytes() == want


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match=re.escape("CSV columns must have equal lengths, got [3, 5]")):
        _write_csv(tmp_path / "x.csv", [], "a,b", [np.zeros(3), np.zeros(5)])


def per_line_read(path):
    """The per-line reader the array reader replaced: the values, dt and t0
    of a record file, or its error."""
    kinds = _RECORD_KINDS
    headers = " or ".join(f"'t,{k.column}'" for k in kinds)
    settings_, header, times, values, kind = {}, None, [], [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            try:
                if s[:1] == "#":
                    body = s[1:].strip()
                    if body[:3] in ("dt:", "t0:"):
                        settings_[body[:2]] = float(body[3:])
                elif not s:
                    continue
                elif header is None:
                    header = s
                    kind = next((k for k in kinds if s == f"t,{k.column}"), None)
                    if kind is None:
                        raise ValueError(f"expected header {headers}, got {s!r}")
                else:
                    cells = s.split(",")
                    if len(cells) != 2:
                        raise ValueError(f"expected 2 columns {header!r}, got {len(cells)}")
                    times.append(float(cells[0]))
                    values.append(kind.parse(cells[1]))
            except ValueError as exc:
                return f"{path}, line {lineno}: {exc}"
    dt = settings_.get("dt", times[1] - times[0] if len(times) > 1 else None)
    t0 = settings_.get("t0", times[0] - dt if times else 0.0)
    return kind, dt, t0, values


FILLERS = ["", "   ", "# note", "#", "# dt:{dt}", "#t0: {t0}", "# dt: {dt}", "\t"]
BREAKS = ["", "0.5,abc", "0.5", "0.5,1,2", "abc,1", "t,dy", "# dt: abc", "# t0: x", ","]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(_RECORD_KINDS),
    size=st.integers(0, 40),
    dt=st.sampled_from([0.01, 0.1, 1e-3, 0.25]),
    t0=st.sampled_from([0.0, -2.5, 1e3, 0.1]),
    fill=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(FILLERS)), max_size=8),
    broken=st.tuples(st.integers(0, 60), st.sampled_from(BREAKS)),
    seed=st.integers(0, 2**16),
)
def test_reader_equals_per_line_reading(tmp_path_factory, kind, size, dt, t0, fill, broken, seed):
    # comment and blank lines anywhere after the header, and at most one
    # bad line: the same values, dt and t0, or the same error
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) if kind is MeasurementRecord else rng.integers(0, 2, size=size)
    path = tmp_path_factory.mktemp("csv") / "record.csv"
    write_record(path, kind(dt, values, t0), ["origin: test"])
    lines = path.read_text().split("\n")
    body_start = lines.index(f"t,{kind.column}") + 1
    for at, text in fill + [broken]:
        at = body_start + at % (len(lines) - body_start + 1)
        lines.insert(at, text.format(dt=f"{dt:.17g}", t0=f"{t0:.17g}").replace("dy", kind.column))
    path.write_text("\n".join(lines))
    want = per_line_read(path)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_record(path)
        return
    back = read_record(path)
    assert (type(back), back.dt, back.t0) == want[:3]
    assert back.values.tolist() == want[3]


def write_lines(tmp_path, text):
    path = tmp_path / "record.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "text, match",
    [
        # rows dropped or shifted off the grid t0 + k dt
        ("t,dy\n0.1,1\n0.3,2\n0.35,3\n", "line 4: time 0.34999999999999998 is not t0 + 3 dt = 0.5"),
        ("# dt: 0.1\nt,dy\n5,1\n6,2\n", "line 4: time 6 is not t0 + 2 dt = 5.1000000000000005"),
        ("# dt: 0.1\n# t0: 0\nt,dy\n0.2,1\n", "line 4: time 0.20000000000000001 is not t0 + 1 dt = 0.1"),
        ("# dt: 0.1\nt,dy\n0.1,1\nnan,2\n", "line 4: time nan is not t0 + 2 dt"),
        # values the kind rejects, named by line
        ("# dt: 0.1\nt,dy\n0.1,1\n\n0.2,inf\n", "line 5: record increments must be finite"),
        ("# dt: 0.1\nt,dN\n0.1,1\n0.2,2\n", "line 4: count increments must all be 0 or 1"),
        # dt and t0 comments, checked where they stand
        ("# dt: nan\nt,dy\n0.1,1\n", "line 1: dt must be finite and positive, got nan"),
        ("t,dy\n# dt: -0.1\n0.1,1\n", "line 2: dt must be finite and positive, got -0.1"),
        ("# dt: 0.1\n# t0: inf\nt,dy\n", "line 2: t0 must be finite, got inf"),
        # dt and t0 inferred from the rows
        ("t,dy\n0.2,1\n0.1,2\n", "line 3: dt from the first two rows: dt must be finite and positive, got -0.1"),
        ("# dt: 0.1\nt,dy\ninf,1\n", "line 3: t0 from the first row: t0 must be finite, got inf"),
    ],
)
def test_reader_errors_name_file_and_line(tmp_path, text, match):
    path = write_lines(tmp_path, text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {re.escape(match)}"):
        read_record(path)


@pytest.mark.parametrize(
    "t0, dt, header",
    [(1000.0, 1e-3, ""), (1.7e9, 1e-3, "# dt: 0.001\n"), (-5.0, 0.1, "# dt: 0.1\n"), (0.0, 0.01, "")],
)
def test_decimal_row_times_on_the_grid_accepted(tmp_path, t0, dt, header):
    # hand-written decimal times carry their rounding, and an inferred dt
    # the rounding of the first two times, over every row
    rows = "".join(f"{t0 + k * dt:.10f},{k % 3}\n" for k in range(1, 5001))
    back = read_record(write_lines(tmp_path, f"{header}t,dy\n{rows}"))
    assert back.n_steps == 5000
    assert back.increments[:3].tolist() == [1.0, 2.0, 0.0]
