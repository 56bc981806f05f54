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
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .bootstrap import select_k
from .errors import DataError, DirquantError, NumericalError
from .evt import extrapolate
from .geometry import Direction, diagonal_direction, rotate, rotation_for
from .quantile import (
    QuantileSurface,
    estimate_surface,
    fit_direction,
    flag_outliers,
    quantile_point,
    shift_surface,
    theta_grid,
)
from .stdf import rho_hat_batch
from .tmodel import (
    ModelFit,
    TParams,
    asymptotic_quantile,
    fpc_direction,
    relative_error,
    rotate_elliptical,
    sample_t,
    theoretical_norm_sequences,
    theoretical_rho,
)


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# parsing helpers


def parse_csv(path: str, has_header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV of finite values into an (n, d) array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if has_header:
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    data = _parse_cells(lines)
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


def _parse_cells(lines: list[str]) -> Optional[np.ndarray]:
    """All cells in one conversion, or None on a ragged row or a bad cell.

    numpy converts each str cell with Python's ``float``, so this accepts
    exactly what ``_parse_rows`` accepts; on None the caller reruns that
    loop for its error message.
    """
    commas = lines[0].count(",")
    if any(ln.count(",") != commas for ln in lines):
        return None
    try:
        cells = np.array(",".join(lines).split(","), dtype=float)
    except ValueError:
        return None
    return cells.reshape(len(lines), commas + 1)


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
    try:
        vec = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"cannot parse direction {text!r}") from None
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


def _parse_model(args, require: bool = True) -> Optional[TParams]:
    if args.mu is None and args.sigma is None and args.nu is None:
        if require:
            raise ValueError("this command needs --mu, --sigma and --nu")
        return None
    if args.mu is None or args.sigma is None or args.nu is None:
        raise ValueError("--mu, --sigma and --nu must be given together")
    mu = np.array([float(c) for c in args.mu.split(",")], dtype=float)
    flat = np.array([float(c) for c in args.sigma.split(",")], dtype=float)
    d = mu.size
    if flat.size != d * d:
        raise ValueError(f"--sigma needs {d * d} row-major entries for d={d}")
    return TParams(mu, flat.reshape(d, d), float(args.nu))


# ---------------------------------------------------------------------------
# surface serialization


def surface_doc(surface: QuantileSurface, source: Optional[str] = None) -> dict:
    doc = surface.to_dict()
    if source is not None:
        doc["source"] = source
    return doc


def surface_doc_to_csv(doc: dict) -> str:
    d = len(doc["direction"])
    lines = []
    lines.append(f"# alpha={_fmt(doc['alpha'])}")
    lines.append("# direction=" + ",".join(_fmt(c) for c in doc["direction"]))
    lines.append(f"# k={doc['k']}")
    lines.append(f"# gamma={_fmt(doc['gamma'])}")
    if doc.get("source"):
        lines.append(f"# source={doc['source']}")
    if doc.get("center_offset"):
        lines.append("# center_offset=" + ",".join(_fmt(c) for c in doc["center_offset"]))
    header = (
        [f"theta_{j + 1}" for j in range(d)]
        + [f"x_rotated_{j + 1}" for j in range(d)]
        + [f"x_original_{j + 1}" for j in range(d)]
        + ["rho", "floored"]
    )
    lines.append(",".join(header))
    for p in doc["points"]:
        cells = (
            [_fmt(v) for v in p["theta"]]
            + [_fmt(v) for v in p["x_rotated"]]
            + [_fmt(v) for v in p["x_original"]]
            + [_fmt(p["rho"]), "true" if p["floored"] else "false"]
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _sample_csv_text(sample: np.ndarray) -> str:
    d = sample.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    for row in sample:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Merged command options (config file values overridden by CLI flags)."""

    input: Optional[str] = None
    output: Optional[str] = None
    format: str = "json"
    direction: str = "e"
    alpha: Optional[str] = None
    k: str = "auto"
    grid: int = 64
    delta: float = 0.01
    epsilon: float = 0.25
    b1: int = 1000
    seed: int = 0
    center: bool = False
    replicates: int = 100
    mu: Optional[str] = None
    sigma: Optional[str] = None
    nu: Optional[float] = None
    n: Optional[int] = None
    has_header: bool = False
    k_rho: Optional[int] = None
    workers: int = 1


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_BOOL_KEYS = {"center", "has_header"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_INT_KEYS = {"grid", "b1", "seed", "replicates", "n", "k_rho", "workers"}
_FLOAT_KEYS = {"delta", "epsilon", "nu"}


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
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r}")
            if key in _BOOL_KEYS:
                if val.lower() not in _BOOL_WORDS:
                    raise ValueError(
                        f"{path}: line {i + 1}: {key} must be one of "
                        f"1/true/yes/on or 0/false/no/off, got {val!r}"
                    )
                out[key] = _BOOL_WORDS[val.lower()]
            elif key in _INT_KEYS:
                out[key] = int(val)
            elif key in _FLOAT_KEYS:
                out[key] = float(val)
            else:
                out[key] = val
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, val in file_values.items():
        # the parser defines one attribute per option of the subcommand
        if key not in vars(args):
            raise ValueError(
                f"{args.config}: config key {key!r} is not an option of {args.command}"
            )
        setattr(cfg, key, val)
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            setattr(cfg, f.name, cli_val)
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
    if cfg.alpha is None:
        raise ValueError("estimate needs --alpha")
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
    doc = surface_doc(surface)
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
    if cfg.alpha is None:
        raise ValueError("flag needs --alpha")
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
        lines = ["row,alpha_z,flagged"]
        for i, (az, fl) in enumerate(zip(levels, flags)):
            lines.append(f"{i},{format(az, '.17g') if math.isfinite(az) else 'inf'},"
                         f"{'true' if fl else 'false'}")
        _write_text(cfg.output, "\n".join(lines) + "\n")
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
    if cfg.n is None:
        raise ValueError("simulate-t needs --n")
    sample = sample_t(params, cfg.n, cfg.seed)
    _write_text(cfg.output, _sample_csv_text(sample))
    return 0


def cmd_oracle_t(cfg: RunConfig) -> int:
    params = _parse_model(cfg)
    if cfg.alpha is None or cfg.n is None:
        raise ValueError("oracle-t needs --alpha and --n")
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
    doc = surface_doc(surface, source="oracle")
    text = surface_doc_to_csv(doc) if cfg.format == "csv" else _json_text(doc)
    _write_text(cfg.output, text)
    return 0


def _replicate_seed(master: int, replicate: int, salt: int) -> int:
    return int(np.random.SeedSequence([master, replicate, salt]).generate_state(1)[0])


def run_mc_study(cfg: RunConfig) -> dict:
    """Replicated study of the estimation pipeline against the t oracle.

    Returns the output payloads keyed by file suffix; the caller writes
    them to disk.
    """
    params = _parse_model(cfg)
    if cfg.n is None:
        raise ValueError("mc-study needs --n")
    n = int(cfg.n)
    alpha = parse_alpha(cfg.alpha) if cfg.alpha is not None else 1.0 / n
    u = parse_direction(cfg.direction, params.d, model_sigma=params.sigma)
    grid = theta_grid(params.d, cfg.grid, cfg.delta)
    r = rotation_for(u)
    theta_star = np.ones(params.d) / np.sqrt(params.d)

    rho_theory = theoretical_rho(grid.thetas, params, r)

    def one(rep: int):
        # a replicate whose tail fit cannot support extrapolation, or whose
        # numerics fail, is reported as failed instead of aborting the study
        sample = sample_t(params, n, _replicate_seed(cfg.seed, rep, 0))
        try:
            fitted = fit_direction(sample, r, parse_k(cfg.k), epsilon=cfg.epsilon,
                                   b1=cfg.b1, seed=_replicate_seed(cfg.seed, rep, 1))
            surface = fitted.surface(alpha, grid)
            rho_star, _ = rho_hat_batch(fitted.context, theta_star[None, :])
            x_hat_star = quantile_point(fitted.fit, float(rho_star[0]), theta_star, alpha)
            x_tilde_star = asymptotic_quantile(params, r, alpha, theta_star,
                                               n / fitted.fit.k)
        except (DataError, NumericalError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "k_hat": surface.k,
            "gamma_ratio": surface.fit.gamma_marginal / params.gamma,
            "rho_hat": surface.rho,
            "floored": surface.floored,
            "x_original": surface.x_original,
            "re": relative_error(x_tilde_star, x_hat_star),
        }

    from .parallel import ordered_map

    outcomes = ordered_map(one, range(cfg.replicates), cfg.workers)
    results = {i: res for i, res in enumerate(outcomes) if "error" not in res}
    failures = [{"replicate": i, "error": res["error"]}
                for i, res in enumerate(outcomes) if "error" in res]
    if not results:
        raise DataError(
            f"all {cfg.replicates} replicates failed; first failure: "
            f"{failures[0]['error']}"
        )

    d = params.d
    rep_lines = ["replicate,k_hat," +
                 ",".join(f"gamma_ratio_{j + 1}" for j in range(d)) + ",re"]
    for i, res in results.items():
        rep_lines.append(
            f"{i},{res['k_hat']},"
            + ",".join(_fmt(v) for v in res["gamma_ratio"])
            + f",{_fmt(res['re'])}"
        )

    n_angles = grid.angles.shape[1]
    rho_lines = ["replicate," + ",".join(f"phi_{j + 1}" for j in range(n_angles))
                 + ",rho_hat,rho_theory,floored"]
    for i, res in results.items():
        for g in range(len(grid)):
            rho_lines.append(
                f"{i}," + ",".join(_fmt(v) for v in grid.angles[g])
                + f",{_fmt(res['rho_hat'][g])},{_fmt(rho_theory[g])},"
                + ("true" if res["floored"][g] else "false")
            )

    results = list(results.values())
    stack = np.stack([res["x_original"] for res in results])
    bands = np.percentile(stack, [15.0, 50.0, 85.0], axis=0)
    t_med = float(np.median([n / res["k_hat"] for res in results]))
    # theoretical surface at the median anchor, reusing the rho curve
    rotated_model = rotate_elliptical(params, r)
    a, b = theoretical_norm_sequences(rotated_model, t_med)
    bases = rho_theory[:, None] * grid.thetas / (t_med * alpha)
    x_tilde = extrapolate(bases, a, b, params.gamma)
    oracle_pts = x_tilde @ r.entries
    band_header = [f"theta_{j + 1}" for j in range(d)]
    for j in range(d):
        band_header += [f"x{j + 1}_p15", f"x{j + 1}_p50", f"x{j + 1}_p85",
                        f"x{j + 1}_oracle"]
    band_lines = [",".join(band_header)]
    for g in range(len(grid)):
        cells = [_fmt(v) for v in grid.thetas[g]]
        for j in range(d):
            cells += [_fmt(bands[0, g, j]), _fmt(bands[1, g, j]),
                      _fmt(bands[2, g, j]), _fmt(oracle_pts[g, j])]
        band_lines.append(",".join(cells))

    summary = {
        "n": n,
        "alpha": float(alpha),
        "direction": [float(c) for c in u.components],
        "replicates": int(cfg.replicates),
        "valid_replicates": len(results),
        "failed_replicates": failures,
        "seed": int(cfg.seed),
        "k_hat_median": float(np.median([res["k_hat"] for res in results])),
        "gamma_ratio_median": [
            float(np.median([res["gamma_ratio"][j] for res in results]))
            for j in range(d)
        ],
        "re_median": float(np.median([res["re"] for res in results])),
        "oracle_anchor_t": t_med,
    }
    return {
        ".replicates.csv": "\n".join(rep_lines) + "\n",
        ".rho.csv": "\n".join(rho_lines) + "\n",
        ".bands.csv": "\n".join(band_lines) + "\n",
        ".summary.json": _json_text(summary),
    }


def cmd_mc_study(cfg: RunConfig) -> int:
    payloads = run_mc_study(cfg)
    prefix = cfg.output or "mc_study"
    for suffix, text in payloads.items():
        _write_text(prefix + suffix, text)
    return 0


# ---------------------------------------------------------------------------
# argument parser


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    table = {
        "input": dict(flags=["--input"], help="input CSV path"),
        "output": dict(flags=["--output"], help="output path ('-' for stdout)"),
        "format": dict(flags=["--format"], choices=["json", "csv"], help="output format"),
        "direction": dict(flags=["--direction"],
                          help="direction: 'e', '-e', 'fpc' or comma list"),
        "alpha": dict(flags=["--alpha"], help="level, decimal or fraction like 1/5000"),
        "k": dict(flags=["--k"], help="sample fraction: integer or 'auto'"),
        "grid": dict(flags=["--grid"], type=int, help="grid resolution per angle"),
        "delta": dict(flags=["--delta"], type=float, help="grid margin in radians"),
        "epsilon": dict(flags=["--epsilon"], type=float, help="bootstrap exponent"),
        "b1": dict(flags=["--b1"], type=int, help="bootstrap resample count"),
        "seed": dict(flags=["--seed"], type=int, help="RNG seed"),
        "center": dict(flags=["--center"], action=argparse.BooleanOptionalAction,
                       help="subtract the componentwise median before analysis"),
        "replicates": dict(flags=["--replicates"], type=int, help="replicate count"),
        "mu": dict(flags=["--mu"], help="model location, comma list"),
        "sigma": dict(flags=["--sigma"], help="model scale matrix, row-major comma list"),
        "nu": dict(flags=["--nu"], type=float, help="model degrees of freedom"),
        "n": dict(flags=["--n"], type=int, help="sample size"),
        "has_header": dict(flags=["--has-header"], action=argparse.BooleanOptionalAction,
                           help="input CSV has a header row"),
        "k_rho": dict(flags=["--k-rho"], type=int,
                      help="separate sample fraction for the radius estimator"),
        "workers": dict(flags=["--workers"], type=int,
                        help="threads running replicates in parallel"),
    }
    p.add_argument("--config", help="key=value config file; flags override it")
    for name in names:
        info = dict(table[name])
        flags = info.pop("flags")
        p.add_argument(*flags, default=None, dest=name, **info)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirquant",
        description="Extreme directional multivariate quantile estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotate", help="rotate a sample into direction coordinates")
    _add_common(p, "input", "output", "format", "direction", "has_header")

    p = sub.add_parser("select-k", help="bootstrap selection of the sample fraction")
    _add_common(p, "input", "output", "direction", "epsilon", "b1", "seed",
                "has_header")

    p = sub.add_parser("estimate", help="estimate a quantile surface")
    _add_common(p, "input", "output", "format", "direction", "alpha", "k", "grid",
                "delta", "epsilon", "b1", "seed", "center", "has_header", "k_rho")

    p = sub.add_parser("flag", help="flag rows beyond the level-alpha surface")
    _add_common(p, "input", "output", "format", "direction", "alpha", "k", "epsilon",
                "b1", "seed", "center", "has_header")

    p = sub.add_parser("simulate-t", help="draw a multivariate t sample")
    _add_common(p, "output", "mu", "sigma", "nu", "n", "seed")

    p = sub.add_parser("oracle-t", help="theoretical surface of a t model")
    _add_common(p, "output", "format", "direction", "alpha", "k", "grid", "delta",
                "mu", "sigma", "nu", "n")

    p = sub.add_parser("mc-study", help="replicated simulation study")
    _add_common(p, "output", "direction", "alpha", "k", "grid", "delta", "epsilon",
                "b1", "seed", "replicates", "mu", "sigma", "nu", "n", "workers")

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
        if cfg.k is not None:
            cfg.k = str(cfg.k)
        # looked up at each call, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(_json_text({"error": type(exc).__name__, "message": str(exc)}))
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
