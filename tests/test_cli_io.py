"""The CLI's writers and reader against the standard forms they replace.

``cli._json_text`` must give the bytes of ``json.dumps(doc, indent=2,
allow_nan=False) + "\\n"``, and its CSV cells those of
``format(x, ".17g")``. ``cli.parse_csv`` must return what a cell-by-cell
reading returns, or raise its message.
"""

import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirquant import DataError, cli

# ---------------------------------------------------------------------------
# JSON documents of each shape the commands write

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
               2.2250738585072014e-308, 0.1, 1e16, 1e-7, 123456789.0]

plain_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# numpy scalars are float subclasses, which the encoder writes with float.__repr__
floats = plain_floats | plain_floats.map(np.float64)
ints = st.integers(-(2**70), 2**70)
# quotes, backslashes, control characters, newlines and non-ASCII text
texts = st.text(st.characters(), max_size=12) | st.sampled_from(
    ['say "hi"', "back\\slash", "line\nbreak\r\ttab", "γ ≤ 0 – naïve", "😀\u2003\u2028\x00",
     "%s %%"])


def vectors(d):
    return st.lists(floats, min_size=d, max_size=d)


@st.composite
def surface_docs(draw):
    d = draw(st.integers(2, 4))
    point = st.fixed_dictionaries({
        "theta": vectors(d), "x_rotated": vectors(d), "x_original": vectors(d),
        "rho": floats, "floored": st.booleans(),
    })
    doc = {
        "alpha": draw(floats),
        "direction": draw(vectors(d)),
        "k": draw(ints),
        "gamma": draw(floats),
        "points": draw(st.lists(point, max_size=6)),
        "fit": draw(st.fixed_dictionaries({
            "k": ints, "gamma_marginal": vectors(d), "gamma": floats,
            "a": vectors(d), "b": vectors(d), "n": ints,
        })),
        "center_offset": draw(st.none() | vectors(d)),
    }
    if draw(st.booleans()):
        doc["source"] = "oracle"
    return doc


flag_docs = st.fixed_dictionaries({
    "alpha": floats,
    "direction": st.lists(floats, max_size=4),
    "k": ints,
    "rows": st.lists(st.fixed_dictionaries({"alpha_z": st.none() | floats,
                                            "flagged": st.booleans()}), max_size=8),
})

k_selections = st.fixed_dictionaries({
    "k_hat": ints,
    "k_j_m1": st.none() | st.lists(ints, max_size=4),
    "k_j_m2": st.none() | st.lists(ints, max_size=4),
    "pi_j": st.none() | st.lists(floats, max_size=4),
    "m1": ints, "m2": ints, "epsilon": floats, "b1": ints, "seed": ints, "n": ints,
    "fallback": st.booleans(),
})

report_docs = st.fixed_dictionaries({
    "warnings": st.lists(st.fixed_dictionaries({"category": texts, "message": texts}),
                         max_size=3),
    "floored_points": ints,
    "k_selection": st.none() | k_selections,
    "centered": st.booleans(),
})

summary_docs = st.fixed_dictionaries({
    "n": ints, "alpha": floats, "direction": st.lists(floats, max_size=4),
    "replicates": ints, "valid_replicates": ints,
    "failed_replicates": st.lists(st.fixed_dictionaries({"replicate": ints, "error": texts}),
                                  max_size=3),
    "seed": ints, "k_hat_median": floats, "gamma_ratio_median": st.lists(floats, max_size=4),
    "re_median": floats, "oracle_anchor_t": floats,
})

# anything else JSON can hold, empty lists and dicts included
other_docs = st.recursive(
    st.none() | st.booleans() | ints | floats | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20,
)

documents = st.one_of(surface_docs(), flag_docs, k_selections, report_docs, summary_docs,
                      other_docs)


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def leaf_paths(doc, path=()):
    """Paths of every scalar of a document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [p for key, value in items for p in leaf_paths(value, path + (key,))]


def planted(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(doc=documents)
    @example(doc={"rows": [], "empty": {}, "nested": [[], {}], "x": [1, 2.5, True, None]})
    @example(doc={"points": [{"a": 1.0}, {"b": 1.0}], "order": [{"a": 1, "b": 2},
                                                                 {"b": 2, "a": 1}]})
    @example(doc={"ragged": [[1.0, 2.0], [3.0]], "%": [{"%s": 1.5, "%%": "%d"}]})
    @example(doc=[{"alpha_z": None, "flagged": False}, {"alpha_z": 0.0, "flagged": True}])
    def test_equals_json_dumps(self, doc):
        assert cli._json_text(doc) == reference_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=st.one_of(surface_docs(), flag_docs, summary_docs), data=st.data(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                                np.int64(3), np.bool_(True), {1, 2}]))
    def test_rejects_what_json_dumps_rejects(self, doc, data, bad):
        planted(doc, data.draw(st.sampled_from(leaf_paths(doc))), bad)
        with pytest.raises((ValueError, TypeError)) as expected:
            reference_json(doc)
        with pytest.raises(expected.type) as got:
            cli._json_text(doc)
        assert str(got.value) == str(expected.value)

    def test_surface_of_a_command(self, tmp_path):
        out = tmp_path / "o.json"
        assert cli.main(["oracle-t", "--mu", "0,0,0", "--sigma",
                         "5,2.44,-1.88,2.44,2.12,0.04,-1.88,0.04,2.36", "--nu", "4",
                         "--alpha", "1/5000", "--n", "5000", "--k", "100", "--grid", "3",
                         "--output", str(out)]) == 0
        text = out.read_text()
        assert text == reference_json(json.loads(text))


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
