#!/usr/bin/env python3
"""Fixed-seed timings of dirquant's costly steps, one section per subcommand.

    GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \\
        python3 scripts/bench.py select-k --label after

``python3 scripts/bench.py <section> --help`` describes a section. Each
section makes one untimed call of each step, then ``--repeat`` timed
ones (``startup``: one untimed round of processes, then ``--repeat``
timed rounds). It prints its figures and writes them to
``<out>/BENCH_<label>.json`` (``results/`` by default), with the label
and a host record: ``GLIBC_TUNABLES``, the numpy, scipy and Python
versions, the machine and its CPU count. The malloc setting above is
the one the benchmark in ``perfbench/`` runs under; page faults depend
on it.
"""

import argparse
import importlib.metadata
import inspect
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

import dirquant
from dirquant import (
    TParams,
    bootstrap,
    cli,
    diagonal_direction,
    fit_direction,
    flag_outliers,
    fpc_direction,
    rotate,
    rotation_for,
    sample_t,
    select_k,
    stdf,
    tmodel,
)
from dirquant.errors import TailDisparityWarning
from dirquant.evt import extrapolate, frechet_weights

SEED = 2024
# the paper's 2-D model (nu=3), the model of acceptance criterion 8
# (nu=3) and the paper's 3-D model (nu=4)
SIGMA_PAPER = np.array([[5.0, 0.1], [0.1, 1.0]])
SIGMA_FLAG = np.array([[1.0, 0.9], [0.9, 1.0]])
SIGMA_3D = np.array([[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]])


def option(values) -> str:
    """A matrix or vector as the CLI's comma list."""
    return ",".join(f"{v:g}" for v in np.ravel(values))


def timed(call, repeat: int) -> list:
    """One untimed call, then the milliseconds of ``repeat`` timed calls."""
    call()
    ms = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
    return ms


# ---------------------------------------------------------------------------
# select-k

SELECT_K_SEEDS = (2024, 2025, 2026, 2027)


class StageProbe:
    """Milliseconds in all, in ``_draw_block`` and in ``_add_error_curves``,
    and block count, of each stage of the last select_k call."""

    PARTS = ("total", "draw", "kernel")

    def __init__(self):
        self.ms, self.blocks, self._stage = {}, {}, None
        stage_argmin = bootstrap._stage_argmin
        draw_block, add_error_curves = bootstrap._draw_block, bootstrap._add_error_curves

        def timed_stage(table, m, b, seed, stage, *rest):
            self._stage, self.blocks[stage] = stage, 0
            self.ms[stage] = dict.fromkeys(self.PARTS, 0.0)
            t0 = time.perf_counter()
            result = stage_argmin(table, m, b, seed, stage, *rest)
            self.ms[stage]["total"] = 1e3 * (time.perf_counter() - t0)
            return result

        def part(name, func):
            def wrapped(*args):
                t0 = time.perf_counter()
                result = func(*args)
                self.ms[self._stage][name] += 1e3 * (time.perf_counter() - t0)
                return result
            return wrapped

        def counted(*args):
            self.blocks[self._stage] += 1
            return draw_block(*args)

        bootstrap._stage_argmin = timed_stage
        bootstrap._draw_block = part("draw", counted)
        bootstrap._add_error_curves = part("kernel", add_error_curves)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def bench_select_k(args) -> dict:
    """Fixed-seed timing of select_k on the paper's 2-D t model.

    Draws four samples of the bivariate t model (nu=3) from fixed seeds,
    rotates each into its sample principal direction, as ``estimate
    --direction fpc`` does, and times ``select_k`` on them. Each call is
    measured for wall time and for minor page faults, read from
    ``getrusage`` around the call. Each of the two bootstrap stages is
    timed, and its blocks of resamples counted, by wrapping
    ``bootstrap._stage_argmin`` and ``bootstrap._draw_block``. Within each
    stage, the time spent in ``_draw_block`` (the streams, the Lemire
    mapping and the rank gather) and in ``bootstrap._add_error_curves``
    (the rank sort, the log gather, the moment profiles and the fold into
    the running sums) is summed too: the split between draws and kernel.
    """
    params = TParams(np.zeros(2), SIGMA_PAPER, 3.0)
    probe = StageProbe()
    # each timed call's minor faults and milliseconds per stage
    ms, faults, stage_ms, blocks = [], [], [], []
    for seed in SELECT_K_SEEDS:
        x = sample_t(params, args.n, seed)
        sample = rotate(rotation_for(fpc_direction(np.cov(x.T))), x)

        def call():
            f0 = minor_faults()
            select_k(sample, b1=args.b1, seed=7)
            faults.append(minor_faults() - f0)
            stage_ms.append({s: dict(parts) for s, parts in probe.ms.items()})

        ms += timed(call, args.repeat)
        # drop the untimed call's
        del faults[-args.repeat - 1], stage_ms[-args.repeat - 1]
        blocks.append(dict(probe.blocks))
    stages = sorted(probe.blocks)

    def stage_medians(part: str) -> dict:
        return {str(s): statistics.median(c[s][part] for c in stage_ms) for s in stages}

    result = {
        "n": args.n,
        "b1": args.b1,
        "seeds": list(SELECT_K_SEEDS),
        "calls": len(ms),
        "best_ms": min(ms),
        "median_ms": statistics.median(ms),
        "median_minor_faults": statistics.median(faults),
        "max_minor_faults": max(faults),
        "stage_median_ms": stage_medians("total"),
        # per stage, the summed time of its _draw_block and its
        # _add_error_curves calls; the rest is hashing and the argmin
        "stage_draw_median_ms": stage_medians("draw"),
        "stage_kernel_median_ms": stage_medians("kernel"),
        # blocks of the last call on each sample, which n and b1 fix
        "stage_blocks": {str(s): [c[s] for c in blocks] for s in stages},
    }
    print(f"select_k n={args.n} b1={args.b1}, {len(ms)} calls: "
          f"best {result['best_ms']:.1f} ms, median {result['median_ms']:.1f} ms, "
          f"median {result['median_minor_faults']:.0f} minor faults")
    for s in stages:
        print(f"  stage {s}: median {result['stage_median_ms'][str(s)]:.1f} ms "
              f"(draws {result['stage_draw_median_ms'][str(s)]:.1f} ms, "
              f"kernel {result['stage_kernel_median_ms'][str(s)]:.1f} ms), "
              f"blocks {result['stage_blocks'][str(s)]}")
    return result


# ---------------------------------------------------------------------------
# counting

# (d, n): the 2-D sizes are counted along the clamped threshold chain, the
# 3-D one compares every query with every row
COUNTING_SIZES = ((2, 10_000), (2, 30_000), (2, 100_000), (3, 10_000))


def flag_queries(d: int, n: int):
    """The rotated sample and the thresholds of its rows in the extremal region."""
    sigma, nu = (SIGMA_FLAG, 3.0) if d == 2 else (SIGMA_3D, 4.0)
    x = sample_t(TParams(np.zeros(d), sigma, nu), n, SEED)
    with warnings.catch_warnings():
        # the 3-D model's rotated marginals differ in tail index
        warnings.simplefilter("ignore", TailDisparityWarning)
        fitted = fit_direction(x, diagonal_direction(d), k=n // 50)
    fit, rotated = fitted.fit, fitted.context.rotated_sample
    w = frechet_weights(rotated, fit.a, fit.b, fit.gamma_marginal)
    norms = np.linalg.norm(w, axis=1)
    inside = norms > 0
    thetas = w[inside] / norms[inside, None]
    return rotated, extrapolate(thetas, fit.a, fit.b, fit.gamma_marginal)


class KernelProbe:
    """Queries counted by each kernel, and the strips counted, since ``clear``."""

    def __init__(self):
        self.clear()
        for name in ("_dominated_2d", "_exceedances_by_comparison"):
            real = getattr(stdf, name)

            def wrapped(sample, thr, real=real, name=name.lstrip("_")):
                self.ran[name] = self.ran.get(name, 0) + thr.shape[0]
                return real(sample, thr)

            setattr(stdf, name, wrapped)
        real_strips = stdf._strip_counts

        def strips(x1, order, start, stop, t1):
            self.above += start.size
            self.strip_rows += int((stop - start).sum())
            return real_strips(x1, order, start, stop, t1)

        stdf._strip_counts = strips

    def clear(self):
        self.ran, self.above, self.strip_rows = {}, 0, 0


def bench_counting(args) -> dict:
    """Fixed-seed timing of the union-exceedance counts that flag needs.

    Draws one sample of the model of acceptance criterion 8 (bivariate t,
    nu=3, correlation 0.9) at each of n = 10 000, 30 000 and 100 000 rows,
    and one sample of the paper's 3-D t model (nu=4) at n = 10 000. Each
    sample is rotated into the diagonal direction and fitted at k = n/50, as
    ``flag --direction e`` does. Its thresholds are those of the rows inside
    the extremal region, 0.69 n to 0.83 n of them in 2-D: the queries of
    ``flag``'s tail-level inversion. ``union_exceedance_counts`` is timed on
    them. The kernels it chose, how many queries each counted, and the 2-D
    kernel's strips are read by wrapping the module's kernels: in 2-D every
    query is counted with its second coordinate clamped to the running
    minimum along the arc, and the few queries whose coordinates rounded
    above that clamp also count the rows of a strip between the two.

    It then times scattered 2-D queries, which a direct caller may pass:
    128 and 256 random t (nu=3) points over 20 000 random t rows. Nearly
    every one lies above its clamp, with a strip of thousands of rows.
    Each is printed with the median of comparing every query with every
    row, for reference.
    """
    probe = KernelProbe()

    def kernel_row(sample, thresholds) -> dict:
        probe.clear()
        ms = timed(lambda: stdf.union_exceedance_counts(sample, thresholds), args.repeat)
        # every call counts the same strips, so one call's are the
        # probe's totals over the untimed and the timed calls
        calls = args.repeat + 1
        r = {
            "d": sample.shape[1],
            "n": sample.shape[0],
            "queries": int(thresholds.shape[0]),
            "kernel": "+".join(sorted(probe.ran)),
            "above_clamp_queries": probe.above // calls,
            "strip_rows": probe.strip_rows // calls,
            "best_ms": min(ms),
            "median_ms": statistics.median(ms),
        }
        print(f"d={r['d']} n={r['n']} q={r['queries']} {r['kernel']}, "
              f"{r['above_clamp_queries']} above their clamp with {r['strip_rows']} "
              f"strip rows: best {r['best_ms']:.1f} ms, median {r['median_ms']:.1f} ms")
        return r

    rows = [kernel_row(*flag_queries(d, n)) for d, n in COUNTING_SIZES]
    scattered = []
    rng = np.random.default_rng(SEED)
    # a direct caller's scattered 2-D queries, q random t points over n
    # random t rows, nearly all above their clamp
    for n, q in ((20_000, 128), (20_000, 256)):
        sample, thresholds = rng.standard_t(3, (n, 2)), rng.standard_t(3, (q, 2))
        r = kernel_row(sample, thresholds)
        ms = timed(lambda: stdf._exceedances_by_comparison(sample, thresholds), args.repeat)
        r["comparison_median_ms"] = statistics.median(ms)
        print(f"  scattered: kernel median {r['median_ms']:.1f} ms, "
              f"comparison median {r['comparison_median_ms']:.1f} ms")
        scattered.append(r)
    return {"seed": SEED, "repeat": args.repeat, "sizes": rows, "scattered": scattered}


# ---------------------------------------------------------------------------
# cli-io

ROWS = 10_000


def run_cli(argv: list) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}")


def flag_command(tmp: str, sample: np.ndarray, result, fmt: str):
    """The flag command on a precomputed sample and flag_outliers result."""
    argv = ["flag", "--input", "unread.csv", "--alpha", "0.01", "--k", "200",
            "--format", fmt, "--output", os.path.join(tmp, f"flags.{fmt}")]

    def run():
        parse, outliers = cli.parse_csv, cli.flag_outliers
        cli.parse_csv = lambda path, has_header=False: sample
        cli.flag_outliers = lambda *args, **kwargs: result
        try:
            run_cli(argv)
        finally:
            cli.parse_csv, cli.flag_outliers = parse, outliers

    return run


def bench_cli_io(args) -> dict:
    """Fixed-seed timing of the CLI's CSV reader and its JSON and CSV writers.

    Times five steps, each on fixed-seed inputs:

    - ``parse_csv``: a 10 000-row 2-D file of 17-digit cells with a header
      line, as the benchmark in ``perfbench/`` writes its inputs;
    - ``rotate_csv``: the ``rotate --format csv`` command on that file in
      direction (0.3, 1), so it reads, rotates with the overflow check and
      writes the 10 000 rotated rows;
    - ``surface_json``: ``_json_text``, the standard library's C encoder,
      on the 64-point surface that ``oracle-t --grid 8`` writes for the
      paper's 3-D model;
    - ``flag_csv`` and ``flag_json``: the ``flag`` command on 10 000 rows
      of the bivariate t model (nu=3, correlation 0.9) at k=200, with its
      reading and ``flag_outliers`` replaced by their precomputed results,
      so that only option handling and writing the output file are timed.
    """
    sample = sample_t(TParams(np.zeros(2), SIGMA_FLAG, 3.0), ROWS, SEED)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "sample.csv")
        lines = ["x1,x2"] + [f"{a!r},{b!r}" for a, b in sample.tolist()]
        pathlib.Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        surface = os.path.join(tmp, "surface.json")
        run_cli(["oracle-t", "--mu", "0,0,0", "--sigma", option(SIGMA_3D), "--nu", "4",
                 "--direction", "fpc", "--alpha", "1/5000", "--n", "5000",
                 "--k", "100", "--grid", "8", "--output", surface])
        doc = json.loads(pathlib.Path(surface).read_text(encoding="utf-8"))
        flags = flag_outliers(sample, diagonal_direction(2), 0.01, 200)
        steps = {
            "parse_csv": lambda: cli.parse_csv(csv_path, has_header=True),
            "rotate_csv": lambda: run_cli([
                "rotate", "--input", csv_path, "--has-header", "--direction", "0.3,1",
                "--format", "csv", "--output", os.path.join(tmp, "rotated.csv")]),
            "surface_json": lambda: cli._json_text(doc),
            "flag_csv": flag_command(tmp, sample, flags, "csv"),
            "flag_json": flag_command(tmp, sample, flags, "json"),
        }
        ms = {name: timed(step, args.repeat) for name, step in steps.items()}

    result = {
        "rows": ROWS,
        "surface_points": len(doc["points"]),
        "seed": SEED,
        "calls": args.repeat,
        "best_ms": {name: min(t) for name, t in ms.items()},
        "median_ms": {name: statistics.median(t) for name, t in ms.items()},
    }
    for name in steps:
        print(f"{name:13s} best {result['best_ms'][name]:7.2f} ms, "
              f"median {result['median_ms'][name]:7.2f} ms ({args.repeat} calls)")
    return result


# ---------------------------------------------------------------------------
# oracle

# df of the bivariate t distribution functions: the paper's 3-D model
# (nu=4) takes the closed form, the other two the quadrature
ORACLE_DFS = (5.0, 48.5, 100.5)


def oracle_arguments(nu: float) -> tuple:
    """The bivariate t arguments (x1, x2, r) and df of the 3-D t model's
    radius over a grid-8 oracle in direction fpc, three per angle."""
    params = TParams(np.zeros(3), SIGMA_3D, nu)
    grid = dirquant.theta_grid(3, 8)
    real, seen = tmodel._t2_cdf, []
    tmodel._t2_cdf = lambda *args: seen.append(args) or real(*args)
    try:
        tmodel.theoretical_rho(grid.thetas, params, fpc_direction(SIGMA_3D))
    finally:
        tmodel._t2_cdf = real
    (args,) = seen
    return args


def bench_oracle(args) -> dict:
    """Fixed-input timing of the t-model oracle's bivariate t kernel and command.

    Times ``tmodel._t2_cdf`` on the 192 arguments of the paper's 3-D t
    model over a grid-8 oracle in direction fpc (three per angle, as
    ``t_stdf`` passes them), with the model's nu set so that the df is 5,
    48.5 and 100.5. Df 5 takes the closed form; the other two take the
    tanh-sinh quadrature, whose step shrinks with the df above 40. The
    arguments are read by wrapping ``tmodel._t2_cdf`` for one untimed call.
    It then times the ``oracle-t --grid 8`` command through in-process
    ``cli.main``: the paper's 3-D model (nu=4) in direction fpc at alpha
    1/5000, n=5000 and k=100, with JSON written to a temporary file, as
    the benchmark's ``oracle-3d`` workload runs it.
    """
    kernel = {}
    for df in ORACLE_DFS:
        x1, x2, r, nu = oracle_arguments(df - 1.0)
        ms = timed(lambda: tmodel._t2_cdf(x1, x2, r, nu), args.repeat)
        kernel[str(df)] = {"arguments": int(x1.size), "best_ms": min(ms),
                           "median_ms": statistics.median(ms)}
        print(f"_t2_cdf df {df:g}, {x1.size} arguments: best {min(ms):.2f} ms, "
              f"median {statistics.median(ms):.2f} ms")
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["oracle-t", "--mu", "0,0,0", "--sigma", option(SIGMA_3D), "--nu", "4",
                "--direction", "fpc", "--alpha", "1/5000", "--n", "5000", "--k", "100",
                "--grid", "8", "--output", os.path.join(tmp, "oracle.json")]
        ms = timed(lambda: run_cli(argv), args.repeat)
    command = {"argv": argv[:-2], "best_ms": min(ms), "median_ms": statistics.median(ms)}
    print(f"oracle-t --grid 8: best {min(ms):.2f} ms, median {statistics.median(ms):.2f} ms")
    return {"repeat": args.repeat, "t2_cdf": kernel, "oracle_t": command}


# ---------------------------------------------------------------------------
# startup


def startup_commands(tmp: str) -> dict:
    """Each command's arguments; ``simulate-t`` writes the others' input."""
    sample = os.path.join(tmp, "sample.csv")
    data = ["--input", sample, "--has-header"]
    model = ["--mu", "0,0", "--sigma", option(SIGMA_PAPER), "--nu", "3"]
    return {
        "simulate-t": ["simulate-t", *model, "--n", "5000", "--seed", "1",
                       "--output", sample],
        "rotate": ["rotate", *data, "--direction", "e", "--format", "csv",
                   "--output", os.path.join(tmp, "rotated.csv")],
        "select-k": ["select-k", *data, "--direction", "e", "--b1", "1000",
                     "--seed", "7", "--output", os.path.join(tmp, "ksel.json")],
        "estimate --k auto": ["estimate", *data, "--direction", "fpc",
                              "--alpha", "1/5000", "--k", "auto", "--grid", "64",
                              "--seed", "7", "--output", os.path.join(tmp, "surface.json")],
        "flag": ["flag", *data, "--direction", "e", "--alpha", "1/1250", "--k", "250",
                 "--format", "csv", "--output", os.path.join(tmp, "flags.csv")],
        "oracle-t": ["oracle-t", *model, "--direction", "fpc", "--alpha", "1/5000",
                     "--n", "5000", "--k", "250", "--grid", "64",
                     "--output", os.path.join(tmp, "oracle.json")],
    }


def run_process(argv: list, env: dict) -> float:
    """Seconds from the start of one ``python -m dirquant.cli`` process to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dirquant.cli", *argv],
                          capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr}")
    return seconds


def bench_startup(args) -> dict:
    """Fixed-seed timing of each CLI command as a fresh process.

    Runs six commands, each as ``python -m dirquant.cli`` in a new process,
    on fixed seeds and inputs, and times each process from start to exit:

    - ``simulate-t``: 5000 rows of the paper's bivariate t model (nu=3);
    - ``rotate``, ``select-k`` (b1=1000), ``estimate --k auto`` (grid 64,
      direction fpc) and ``flag`` (k=250) on that sample;
    - ``oracle-t`` for the same model (grid 64).

    So each time includes the interpreter's start, the imports (numpy, and
    scipy for ``oracle-t`` only) and the work. One untimed round of all six
    comes first, which also writes the bytecode caches; then ``--repeat``
    timed rounds, each running the commands in the order above. The child
    processes import ``dirquant`` from the directory this script imports it
    from.
    """
    src = os.path.dirname(os.path.dirname(dirquant.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    with tempfile.TemporaryDirectory() as tmp:
        cmds = startup_commands(tmp)
        times = {name: [] for name in cmds}
        for round_ in range(args.repeat + 1):
            for name, argv in cmds.items():
                seconds = run_process(argv, env)
                if round_:
                    times[name].append(seconds)
    rows = {}
    # the arguments with file names relative to the temporary directory
    for name, argv in startup_commands("").items():
        rows[name] = {
            "argv": argv,
            "best_s": min(times[name]),
            "median_s": statistics.median(times[name]),
        }
        print(f"{name}: median {rows[name]['median_s']:.3f} s, "
              f"best {rows[name]['best_s']:.3f} s")
    return {"repeat": args.repeat, "commands": rows}


# ---------------------------------------------------------------------------
# harness

# section: (its function, default --repeat, what one repeat is, default --label)
SECTIONS = {
    "select-k": (bench_select_k, 7, "timed calls per sample", "select_k"),
    "counting": (bench_counting, 7, "timed calls per size", "counting"),
    "cli-io": (bench_cli_io, 15, "timed calls per step", "cli_io"),
    "oracle": (bench_oracle, 15, "timed calls per step", "oracle"),
    "startup": (bench_startup, 9, "timed rounds", "startup"),
}


def harness_options(repeat: int, repeat_help: str, label: str) -> argparse.ArgumentParser:
    """The parent parser of a section, with the section's defaults. It is
    built per section: sections share a parent's actions, so they would
    share its defaults too."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--repeat", type=int, default=repeat, help=repeat_help)
    ap.add_argument("--label", default=label)
    ap.add_argument("--out", default="results", help="directory for BENCH_<label>.json")
    return ap


def host() -> dict:
    """The environment the timings were taken in."""
    return {
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sections = ap.add_subparsers(dest="section", required=True)
    for name, (run, *defaults) in SECTIONS.items():
        doc = inspect.getdoc(run)
        section = sections.add_parser(
            name, parents=[harness_options(*defaults)], help=doc.split("\n")[0],
            description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
        section.set_defaults(run=run)
    sections.choices["select-k"].add_argument("--n", type=int, default=5000)
    sections.choices["select-k"].add_argument("--b1", type=int, default=1000)
    args = ap.parse_args()

    result = {"label": args.label, **args.run(args), **host()}
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
