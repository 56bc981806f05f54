"""Command-line front end.

Subcommands
-----------
rotate      rotate a CSV sample into direction-u coordinates
select-k    bootstrap selection of the sample fraction k
estimate    quantile surface estimation at an extreme level
flag        per-row tail levels and outlier flags
simulate-t  draw a multivariate t sample to CSV
oracle-t    theoretical surface of a t model (same schema as estimate)
mc-study    replicated simulation study with summary tables

Each command parses its options, calls the library and writes the result;
``write_study`` writes ``study.run_study``'s arrays as mc-study's four files.

Exit codes: 0 success, 2 usage error, 3 data/assumption error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

import numpy as np

from .bootstrap import select_k
from .errors import DataError, DirquantError, NumericalError
from .evt import extrapolate
from .geometry import Direction, diagonal_direction, rotate, rotation_for
from .quantile import (
    QuantileSurface,
    estimate_surface,
    flag_outliers,
    shift_surface,
    theta_grid,
)
from .study import StudyResult, run_study
from .tmodel import (
    ModelFit,
    TParams,
    fpc_direction,
    rotate_elliptical,
    sample_t,
    theoretical_norm_sequences,
    theoretical_rho,
)


# ---------------------------------------------------------------------------
# parsing helpers


def parse_csv(path: str, has_header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV of finite values into an (n, d) array."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # the file's lines, stripped, without blank and comment lines
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if "#" in text:
        lines = [ln for ln in lines if not ln.startswith("#")]
    if has_header:
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    data = _parse_cells(text, lines)
    if data is None:
        data = _parse_rows(path, lines)
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: non-finite cell at row {i + 1}, column {j + 1}: "
            f"{lines[i].split(',')[j]!r}"
        )
    return data


# ASCII file, group, record and unit separators: loadtxt strips them around
# a cell as whitespace, but float rejects a cell that holds one
_SEPARATORS_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"


def _parse_cells(text: str, lines: list[str]) -> Optional[np.ndarray]:
    """All cells in one pass of numpy's C tokenizer, or None.

    ``loadtxt`` converts each cell with ``PyOS_string_to_double``, the
    routine Python's ``float`` uses, so every value it returns is
    ``float``'s. On None the caller reads the lines with ``_parse_rows``,
    which gives ``float``'s values or names the first bad row or cell.
    None follows any ``ValueError`` (a ragged row, a bad cell, or a cell
    such as ``1_000`` or ``١٢`` that ``float`` accepts and the tokenizer
    declines), and comes untried when ``text`` holds a separator that
    the two read differently.
    """
    if any(map(text.__contains__, _SEPARATORS_FLOAT_REJECTS)):
        return None
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None


def _parse_rows(path: str, lines: list[str]) -> np.ndarray:
    """Cell-by-cell conversion that names the first bad row or cell."""
    rows = []
    width = None
    for i, ln in enumerate(lines):
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(
                f"{path}: ragged row {i + 1}: expected {width} cells, got {len(cells)}"
            )
        row = []
        for j, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                ) from None
        rows.append(row)
    return np.asarray(rows, dtype=float)


def parse_alpha(text: str) -> float:
    """Accept decimals and exact fraction syntax such as 1/5000."""
    text = text.strip()
    try:
        if "/" in text:
            frac = Fraction(text)
            alpha = frac.numerator / frac.denominator
        else:
            alpha = float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse alpha {text!r}") from None
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {text!r}")
    return alpha


def parse_direction(text: str, d: int, sample: Optional[np.ndarray] = None,
                    model_sigma: Optional[np.ndarray] = None) -> Direction:
    """Resolve a direction: "e", "-e", "fpc" or an explicit vector."""
    text = text.strip()
    if text == "e":
        return diagonal_direction(d)
    if text == "-e":
        return diagonal_direction(d, negative=True)
    if text == "fpc":
        if model_sigma is not None:
            return fpc_direction(model_sigma)
        if sample is None:
            raise ValueError("fpc direction needs data or model parameters")
        return fpc_direction(np.cov(sample.T))
    vec = _parse_floats(text, "--direction")
    if vec.size != d:
        raise ValueError(f"direction has {vec.size} components, data has d={d}")
    return Direction.from_vector(vec)


def parse_k(text: str):
    text = text.strip()
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"k must be an integer or 'auto', got {text!r}") from None


def _parse_floats(text: str, option: str) -> np.ndarray:
    """A comma list of floats; a bad cell names the option and its
    1-based component."""
    values = []
    for i, cell in enumerate(text.split(",")):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"cannot parse {option} component {i + 1}: {cell!r}") from None
    return np.array(values, dtype=float)


def _parse_model(cfg: RunConfig) -> TParams:
    mu = _parse_floats(cfg.mu, "--mu")
    flat = _parse_floats(cfg.sigma, "--sigma")
    d = mu.size
    if flat.size != d * d:
        raise ValueError(f"--sigma needs {d * d} row-major entries for d={d}")
    return TParams(mu, flat.reshape(d, d), float(cfg.nu))


# ---------------------------------------------------------------------------
# output: CSV rows and JSON documents

# A CSV float cell: 17 significant digits round-trip every float64, and
# inf prints as "inf".
_CELL = "%.17g"
# bools and None as CSV and JSON write them
_LITERALS = {True: "true", False: "false", None: "null"}


def _fmt(x: float) -> str:
    """One float as a CSV cell."""
    return _CELL % x


def _filled(template: str, sep: str, width: int, rows) -> str:
    """``template`` once per row of ``width`` values, joined by ``sep`` and
    filled by one % call, so that no string is built per row."""
    values = tuple(chain.from_iterable(rows))
    return sep.join([template] * (len(values) // width)) % values


def _csv_text(header: list[str], cells: list[str], rows) -> str:
    """CSV text: the header line, then one line per row tuple, whose entries
    are written by the %-formats in ``cells`` (``_CELL`` for a float)."""
    return ",".join(header) + "\n" + _filled(",".join(cells) + "\n", "", len(cells), rows)


def surface_doc_to_csv(doc: dict) -> str:
    d = len(doc["direction"])
    meta = [f"# alpha={_fmt(doc['alpha'])}",
            "# direction=" + ",".join(map(_fmt, doc["direction"])),
            f"# k={doc['k']}",
            f"# gamma={_fmt(doc['gamma'])}"]
    if doc.get("source"):
        meta.append(f"# source={doc['source']}")
    if doc.get("center_offset"):
        meta.append("# center_offset=" + ",".join(map(_fmt, doc["center_offset"])))
    header = (
        [f"theta_{j + 1}" for j in range(d)]
        + [f"x_rotated_{j + 1}" for j in range(d)]
        + [f"x_original_{j + 1}" for j in range(d)]
        + ["rho", "floored"]
    )
    rows = ((*p["theta"], *p["x_rotated"], *p["x_original"], p["rho"],
             _LITERALS[p["floored"]]) for p in doc["points"])
    return "\n".join(meta) + "\n" + _csv_text(header, [_CELL] * (3 * d + 1) + ["%s"], rows)


def _sample_csv_text(sample: np.ndarray) -> str:
    d = sample.shape[1]
    return _csv_text([f"x{j + 1}" for j in range(d)], [_CELL] * d, zip(*sample.T.tolist()))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _NoTemplate(Exception):
    """A value the JSON templates do not cover."""


_NONE = type(None)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    With ``indent``, ``json.dumps`` runs CPython's pure-Python encoder.
    Here each list of same-shaped values (surface points, flag rows, float
    lists) is written from one %-template built for its shape, whose leaves
    print as the encoder prints them. Any other value, and any value that
    ``json.dumps`` rejects (nan, inf, numpy integers), goes to
    ``json.dumps`` itself, so it also raises the same errors.
    """
    return _encode(doc, "") + "\n"


def _block(brackets: str, parts, ind: str) -> str:
    """``parts`` between brackets, one per line, as the encoder indents them."""
    inner = ind + "  "
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(parts)
            + "\n" + ind + brackets[1])


def _encode(o, ind: str) -> str:
    """``o`` as the encoder writes it at indent ``ind``."""
    inner = ind + "  "
    if type(o) is dict and all(type(k) is str for k in o):
        if not o:
            return "{}"
        return _block("{}", (encode_basestring_ascii(k) + ": " + _encode(v, inner)
                             for k, v in o.items()), ind)
    if type(o) is list:
        if not o:
            return "[]"
        try:
            template, columns = _template(o, inner)
        except _NoTemplate:
            return _block("[]", (_encode(v, inner) for v in o), ind)
        return _block("[]", [_filled(template, ",\n" + inner, len(columns), zip(*columns))],
                      ind)
    try:
        return _json_leaf(o)
    except _NoTemplate:
        # strings hold no raw newline, so this indents every line but the first
        return json.dumps(o, indent=2, allow_nan=False).replace("\n", "\n" + ind)


def _template(items: list, ind: str) -> tuple[str, list[list]]:
    """A %-template that writes each of ``items`` at indent ``ind``, and the
    columns of leaves that fill its slots; _NoTemplate if the items differ
    in shape or hold a value no template covers."""
    first = items[0]
    inner = ind + "  "
    if type(first) is dict and first:
        keys = tuple(first)
        if (set(map(type, items)) != {dict} or set(map(tuple, items)) != {keys}
                or not all(type(k) is str for k in keys)):
            raise _NoTemplate
        columns = [list(map(itemgetter(k), items)) for k in keys]
        labels = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
        brackets = "{}"
    elif type(first) is list and first:
        if set(map(type, items)) != {list} or set(map(len, items)) != {len(first)}:
            raise _NoTemplate
        columns = list(map(list, zip(*items)))
        labels = [""] * len(first)
        brackets = "[]"
    else:
        return "%s", [_leaf_column(items)]
    parts, leaves = [], []
    for label, column in zip(labels, columns):
        template, sub = _template(column, inner)
        parts.append(label + template)
        leaves += sub
    return _block(brackets, parts, ind), leaves


def _leaf_column(column: list) -> list:
    """Scalars that print under "%s" as the encoder writes them."""
    types = set(map(type, column))
    if types <= {float, _NONE}:
        # any nan or inf makes the sum non-finite; filter drops None (and 0.0)
        if not (math.isfinite(sum(filter(None, column)))
                or all(map(math.isfinite, filter(None, column)))):
            raise _NoTemplate
        return ["null" if v is None else v for v in column] if _NONE in types else column
    if types == {bool}:
        return list(map(_LITERALS.__getitem__, column))
    return list(map(_json_leaf, column))


def _json_leaf(v) -> str:
    """A scalar as the encoder writes it."""
    if v is None or v is True or v is False:
        return _LITERALS[v]
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    raise _NoTemplate


# ---------------------------------------------------------------------------
# run configuration


def _option(default, help: str, **argparse_kw):
    """A RunConfig field: its default, and the help and keywords (``type``,
    ``choices`` or ``action``) of its flag."""
    return field(default=default, metadata={"help": help, **argparse_kw})


@dataclass
class RunConfig:
    """Merged command options (config file values overridden by CLI flags).

    Each field is one option: the flag ``--`` plus its name with ``-`` for
    ``_``, and the config key of its name, on every command of
    ``COMMANDS`` that lists it.
    """

    input: Optional[str] = _option(None, "input CSV path")
    output: Optional[str] = _option(None, "output path ('-' for stdout)")
    format: str = _option("json", "output format", choices=("json", "csv"))
    direction: str = _option("e", "direction: 'e', '-e', 'fpc' or comma list")
    alpha: Optional[str] = _option(None, "level, decimal or fraction like 1/5000")
    k: str = _option("auto", "sample fraction: integer or 'auto'")
    grid: int = _option(64, "grid resolution per angle", type=int)
    delta: float = _option(0.01, "grid margin in radians", type=float)
    epsilon: float = _option(0.25, "bootstrap exponent", type=float)
    b1: int = _option(1000, "bootstrap resample count", type=int)
    seed: int = _option(0, "RNG seed", type=int)
    center: bool = _option(False, "subtract the componentwise median before analysis",
                           action=argparse.BooleanOptionalAction)
    replicates: int = _option(100, "replicate count", type=int)
    mu: Optional[str] = _option(None, "model location, comma list")
    sigma: Optional[str] = _option(None, "model scale matrix, row-major comma list")
    nu: Optional[float] = _option(None, "model degrees of freedom", type=float)
    n: Optional[int] = _option(None, "sample size", type=int)
    has_header: bool = _option(False, "input CSV has a header row",
                               action=argparse.BooleanOptionalAction)
    k_rho: Optional[int] = _option(
        None, "separate sample fraction for the radius estimator", type=int)


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig)}

# Each subcommand: its help, its options and the options it cannot run without.
COMMANDS = {
    "rotate": ("rotate a sample into direction coordinates",
               ("input", "output", "format", "direction", "has_header"),
               ("input",)),
    "select-k": ("bootstrap selection of the sample fraction",
                 ("input", "output", "direction", "epsilon", "b1", "seed", "has_header"),
                 ("input",)),
    "estimate": ("estimate a quantile surface",
                 ("input", "output", "format", "direction", "alpha", "k", "grid",
                  "delta", "epsilon", "b1", "seed", "center", "has_header", "k_rho"),
                 ("input", "alpha")),
    "flag": ("flag rows beyond the level-alpha surface",
             ("input", "output", "format", "direction", "alpha", "k", "epsilon", "b1",
              "seed", "center", "has_header"),
             ("input", "alpha")),
    "simulate-t": ("draw a multivariate t sample",
                   ("output", "mu", "sigma", "nu", "n", "seed"),
                   ("mu", "sigma", "nu", "n")),
    "oracle-t": ("theoretical surface of a t model",
                 ("output", "format", "direction", "alpha", "k", "grid", "delta", "mu",
                  "sigma", "nu", "n"),
                 ("mu", "sigma", "nu", "alpha", "n")),
    "mc-study": ("replicated simulation study",
                 ("output", "direction", "alpha", "k", "grid", "delta", "epsilon", "b1",
                  "seed", "replicates", "mu", "sigma", "nu", "n"),
                 ("mu", "sigma", "nu", "n")),
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_KINDS = {int: "an integer", float: "a number"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config_value(option, text: str, where: str):
    """A config file value cast as its option's flag casts it; ``where``
    names the file, line and key."""
    if "action" in option:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(
                f"{where} must be one of 1/true/yes/on or 0/false/no/off, got {text!r}"
            )
        return _BOOL_WORDS[text.lower()]
    cast = option.get("type", str)
    try:
        value = cast(text)
    except ValueError:
        raise ValueError(f"{where} must be {_KINDS[cast]}, got {text!r}") from None
    if "choices" in option and value not in option["choices"]:
        choices = "/".join(option["choices"])
        raise ValueError(f"{where} must be one of {choices}, got {text!r}")
    return value


def load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for i, ln in enumerate(fh):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, sep, val = ln.partition("=")
            if not sep:
                raise ValueError(f"{path}: line {i + 1} is not key=value: {ln!r}")
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            where = f"{path}: line {i + 1}: {key}"
            out[key] = _config_value(_OPTIONS[key], val.strip(), where)
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    _, options, required = COMMANDS[args.command]
    cfg = RunConfig()
    file_values = load_config_file(args.config) if args.config else {}
    for key, val in file_values.items():
        if key not in options:
            raise ValueError(
                f"{args.config}: config key {key!r} is not an option of {args.command}"
            )
        setattr(cfg, key, val)
    for name in options:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    missing = [_flag(name) for name in required if getattr(cfg, name) is None]
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise ValueError(f"{args.command} needs {listed}")
    return cfg


# ---------------------------------------------------------------------------
# subcommand implementations


def _collect_warnings(record: list[warnings.WarningMessage]) -> list[dict]:
    return [
        {"category": type(w.message).__name__, "message": str(w.message)}
        for w in record
    ]


def cmd_rotate(cfg: RunConfig) -> int:
    sample = parse_csv(cfg.input, cfg.has_header)
    u = parse_direction(cfg.direction, sample.shape[1], sample)
    r = rotation_for(u)
    rotated = rotate(r, sample)
    if cfg.format == "csv":
        _write_text(cfg.output, _sample_csv_text(rotated))
    else:
        doc = {
            "direction": [float(c) for c in u.components],
            "rotation": [[float(v) for v in row] for row in r.entries],
            "rows": [[float(v) for v in row] for row in rotated],
        }
        _write_text(cfg.output, _json_text(doc))
    return 0


def cmd_select_k(cfg: RunConfig) -> int:
    sample = parse_csv(cfg.input, cfg.has_header)
    u = parse_direction(cfg.direction, sample.shape[1], sample)
    rotated = rotate(rotation_for(u), sample)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        selection = select_k(rotated, epsilon=cfg.epsilon, b1=cfg.b1, seed=cfg.seed)
    doc = selection.to_dict()
    doc["direction"] = [float(c) for c in u.components]
    doc["warnings"] = _collect_warnings(rec)
    _write_text(cfg.output, _json_text(doc))
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    sample = parse_csv(cfg.input, cfg.has_header)
    alpha = parse_alpha(cfg.alpha)
    u = parse_direction(cfg.direction, sample.shape[1], sample)
    grid = theta_grid(sample.shape[1], cfg.grid, cfg.delta)
    k = parse_k(cfg.k)
    offset = None
    data = sample
    if cfg.center:
        offset = np.median(sample, axis=0)
        data = sample - offset
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        surface = estimate_surface(
            data, u, alpha, grid, k,
            k_rho=cfg.k_rho, epsilon=cfg.epsilon, b1=cfg.b1, seed=cfg.seed,
        )
    if offset is not None:
        surface = shift_surface(surface, offset)
    doc = surface.to_dict()
    text = surface_doc_to_csv(doc) if cfg.format == "csv" else _json_text(doc)
    _write_text(cfg.output, text)
    report = {
        "warnings": _collect_warnings(rec),
        "floored_points": int(surface.floored.sum()),
        "k_selection": None if surface.k_selection is None else surface.k_selection.to_dict(),
        "centered": offset is not None,
    }
    if cfg.output and cfg.output != "-":
        _write_text(cfg.output + ".report.json", _json_text(report))
    return 0


def cmd_flag(cfg: RunConfig) -> int:
    sample = parse_csv(cfg.input, cfg.has_header)
    alpha = parse_alpha(cfg.alpha)
    u = parse_direction(cfg.direction, sample.shape[1], sample)
    k = parse_k(cfg.k)
    offset = np.median(sample, axis=0) if cfg.center else None
    data = sample if offset is None else sample - offset
    result = flag_outliers(data, u, alpha, k, epsilon=cfg.epsilon, b1=cfg.b1,
                           seed=cfg.seed)
    # plain Python floats and bools: per-row numpy scalars cost twice as much
    levels, flags = result.alpha_z.tolist(), result.flagged.tolist()
    if cfg.format == "csv":
        rows = zip(range(len(levels)), levels, map(_LITERALS.__getitem__, flags))
        _write_text(cfg.output,
                    _csv_text(["row", "alpha_z", "flagged"], ["%d", _CELL, "%s"], rows))
    else:
        doc = {
            "alpha": float(alpha),
            "direction": [float(c) for c in u.components],
            "k": int(result.fit.k),
            "rows": [
                {"alpha_z": az if math.isfinite(az) else None, "flagged": fl}
                for az, fl in zip(levels, flags)
            ],
        }
        _write_text(cfg.output, _json_text(doc))
    return 0


def cmd_simulate_t(cfg: RunConfig) -> int:
    params = _parse_model(cfg)
    sample = sample_t(params, cfg.n, cfg.seed)
    _write_text(cfg.output, _sample_csv_text(sample))
    return 0


def cmd_oracle_t(cfg: RunConfig) -> int:
    params = _parse_model(cfg)
    k = parse_k(cfg.k)
    if k == "auto":
        raise ValueError("oracle-t needs an explicit integer --k (anchor t = n/k)")
    if k < 1:
        raise ValueError(f"oracle-t needs --k >= 1, got {k}")
    alpha = parse_alpha(cfg.alpha)
    u = parse_direction(cfg.direction, params.d, model_sigma=params.sigma)
    grid = theta_grid(params.d, cfg.grid, cfg.delta)
    t_anchor = cfg.n / k
    r = rotation_for(u)
    rotated = rotate_elliptical(params, r)
    a, b = theoretical_norm_sequences(rotated, t_anchor)
    fit = ModelFit(k, np.full(params.d, params.gamma), params.gamma, a, b, cfg.n)
    rhos = theoretical_rho(grid.thetas, params, r)
    x_rot = extrapolate(rhos[:, None] * grid.thetas / (t_anchor * alpha), a, b, fit.gamma)
    surface = QuantileSurface.from_rotated(alpha, r, grid.thetas, x_rot, rhos,
                                           np.zeros(len(grid), dtype=bool), fit)
    doc = {**surface.to_dict(), "source": "oracle"}
    text = surface_doc_to_csv(doc) if cfg.format == "csv" else _json_text(doc)
    _write_text(cfg.output, text)
    return 0


def write_study(prefix: str, result: StudyResult) -> None:
    """Write a study as ``<prefix>.replicates.csv``, ``.rho.csv``,
    ``.bands.csv`` and ``.summary.json``."""
    grid, d = result.grid, result.grid.d
    index = result.index.tolist()
    replicates_csv = _csv_text(
        ["replicate", "k_hat", *(f"gamma_ratio_{j + 1}" for j in range(d)), "re"],
        ["%d", "%s"] + [_CELL] * (d + 1),
        zip(index, result.k_hat.tolist(), *result.gamma_ratio.T.tolist(),
            result.re.tolist()),
    )

    n_angles = grid.angles.shape[1]
    angles, theory = grid.angles.T.tolist(), result.rho_theory.tolist()
    rho_csv = _csv_text(
        ["replicate", *(f"phi_{j + 1}" for j in range(n_angles)),
         "rho_hat", "rho_theory", "floored"],
        ["%d"] + [_CELL] * (n_angles + 2) + ["%s"],
        (row for i, rho, floored in zip(index, result.rho_hat.tolist(),
                                        result.floored.tolist())
         for row in zip(repeat(i), *angles, rho, theory,
                        map(_LITERALS.__getitem__, floored))),
    )

    bands = np.percentile(result.x_original, [15.0, 50.0, 85.0], axis=0)
    band_header = [f"theta_{j + 1}" for j in range(d)]
    for j in range(d):
        band_header += [f"x{j + 1}_p15", f"x{j + 1}_p50", f"x{j + 1}_p85",
                        f"x{j + 1}_oracle"]
    # per coordinate j: its three percentiles, then its oracle value
    per_coord = np.stack([*bands, result.oracle_points], axis=-1).reshape(len(grid), 4 * d)
    table = np.concatenate([grid.thetas, per_coord], axis=1)
    bands_csv = _csv_text(band_header, [_CELL] * (5 * d), zip(*table.T.tolist()))

    summary = {
        "n": int(result.n),
        "alpha": float(result.alpha),
        "direction": [float(c) for c in result.u.components],
        "replicates": len(index) + len(result.failures),
        "valid_replicates": len(index),
        "failed_replicates": [{"replicate": i, "error": error}
                              for i, error in result.failures],
        "seed": int(result.seed),
        "k_hat_median": float(np.median(result.k_hat)),
        "gamma_ratio_median": np.median(result.gamma_ratio, axis=0).tolist(),
        "re_median": float(np.median(result.re)),
        "oracle_anchor_t": result.oracle_anchor_t,
    }
    # every text is built before the first file is written
    texts = {".replicates.csv": replicates_csv, ".rho.csv": rho_csv,
             ".bands.csv": bands_csv, ".summary.json": _json_text(summary)}
    for suffix, text in texts.items():
        _write_text(prefix + suffix, text)


def cmd_mc_study(cfg: RunConfig) -> int:
    params = _parse_model(cfg)
    if cfg.n < 1:
        raise ValueError(f"mc-study needs --n >= 1, got {cfg.n}")
    if cfg.replicates < 1:
        raise ValueError(f"mc-study needs --replicates >= 1, got {cfg.replicates}")
    alpha = parse_alpha(cfg.alpha) if cfg.alpha is not None else 1.0 / cfg.n
    u = parse_direction(cfg.direction, params.d, model_sigma=params.sigma)
    grid = theta_grid(params.d, cfg.grid, cfg.delta)
    result = run_study(params, cfg.n, cfg.replicates, u, alpha, grid, parse_k(cfg.k),
                       epsilon=cfg.epsilon, b1=cfg.b1, seed=cfg.seed)
    write_study(cfg.output or "mc_study", result)
    return 0


# ---------------------------------------------------------------------------
# argument parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirquant",
        description="Extreme directional multivariate quantile estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for name in options:
            p.add_argument(_flag(name), **_OPTIONS[name])
    return parser


# Exit code of a failed command: the first class of the exception's MRO
# listed here decides.
EXIT_CODES = {ValueError: 2, OSError: 2, KeyError: 2, DataError: 3, NumericalError: 4,
              DirquantError: 4}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged, and building it takes about 1.5 ms on a 2-core x86-64 host."""
    return make_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        # looked up at each call, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(_json_text({"error": type(exc).__name__, "message": str(exc)}))
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
