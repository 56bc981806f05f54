"""The CLI's CSV writer and reader against the standard forms they replace.

Its CSV cells must give the bytes of ``format(x, ".17g")``, and
``cli.parse_csv`` must return what a cell-by-cell reading returns, or
raise its message. JSON is ``json.dumps`` itself; ``tests/test_cli.py``
checks the form of every JSON file the commands write.
"""

import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirquant import DataError, cli

# ---------------------------------------------------------------------------
# writing

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
               2.2250738585072014e-308, 0.1, 1e16, 1e-7, 123456789.0]


class TestCsvCells:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats() | st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf]))
    def test_cell_is_format_17g(self, x):
        assert cli._fmt(x) == format(x, ".17g")
        assert cli._fmt(np.float64(x)) == format(x, ".17g")

    def test_rows(self):
        text = cli._csv_text(["i", "x", "ok"], ["%d", cli._CELL, "%s"],
                             [(0, math.inf, "true"), (1, -0.0, "false")])
        assert text == "i,x,ok\n0,inf,true\n1,-0,false\n"


# ---------------------------------------------------------------------------
# reading


def parse_csv_by_cells(path: str, has_header: bool) -> np.ndarray:
    """parse_csv's contract, one line and one cell at a time."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")][int(has_header):]
    if not lines:
        raise DataError(f"{path}: no data rows")
    data = cli._parse_rows(path, lines)
    for i, row in enumerate(data):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise DataError(f"{path}: non-finite cell at row {i + 1}, column {j + 1}: "
                                f"{lines[i].split(',')[j]!r}")
    return data


# unicode whitespace and line separators: lines split on "\n" only, after
# newline translation, as iterating the file splits them; float rejects a
# cell holding an ASCII unit separator, which str.strip and loadtxt strip
CELLS = [" 1.5 ", "1_0", "١٢", "infinity", "nan", "", "0x10", "+-1", "2", "-3.25e-2",
         "7", "1e400", "\u20034\u2003", "5\u2028", "\x0c6", "8\x85", "\x1f9"]
EXTRA_LINES = ["# comment", "  # indented, comment", "", "   ", "x1,x2"]


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    numbers = st.sampled_from(["2", "-3.25e-2", "7", "0.5"])
    cells = st.sampled_from(CELLS) if draw(st.booleans()) else numbers
    row = st.lists(cells, min_size=width, max_size=width)
    if draw(st.booleans()):
        # ragged rows
        row = st.lists(cells, min_size=1, max_size=width + 1)
    line = row.map(",".join) | st.sampled_from(EXTRA_LINES)
    lines = draw(st.lists(line, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, ends)) + draw(st.sampled_from(["", "1,2"]))


class TestCsvReader:
    @settings(max_examples=250, deadline=None)
    @given(text=csv_files(), has_header=st.booleans())
    @example(text="   \n1,2\n3,4\n", has_header=True)
    @example(text="#x1,x2\r\n 1 , 2 \r\n\r\n3,4", has_header=False)
    @example(text="1,2\n3,4,\n", has_header=False)
    @example(text=",\n1,2", has_header=False)
    @example(text='"1",2', has_header=False)
    @example(text="1,\u20282\n3\x85,4", has_header=False)
    @example(text="x1,x2\n", has_header=True)
    @example(text="1,2\n3,\x1c4", has_header=False)
    def test_same_as_cell_by_cell(self, text, has_header):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = f"{tmp}/t.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                expected = parse_csv_by_cells(path, has_header)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    cli.parse_csv(path, has_header)
                assert str(got.value) == str(exc)
            else:
                got = cli.parse_csv(path, has_header)
                assert got.dtype == np.float64
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
