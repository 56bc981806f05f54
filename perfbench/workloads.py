"""Workload definitions: models, seeded inputs and the CLI operations run on them.

Inputs are drawn with the benchmark's own multivariate t sampler, so the
program under test receives only the generated CSV files and arguments.
Each workload cycles through a fixed list of distinct inputs; one round
is one pass over that list.
"""

from __future__ import annotations

import json
import os

import numpy as np

from reference import bootstrap_k, leading_direction, moment_fit, rotation

# The paper's 2D model (estimate-auto), the strongly dependent model of
# acceptance criterion 8 (flag-large) and the paper's 3D model (oracle-3d).
SIGMA_2D = [[5.0, 0.1], [0.1, 1.0]]
NU_2D = 3.0
SIGMA_FLAG = [[1.0, 0.9], [0.9, 1.0]]
NU_FLAG = 3.0
SIGMA_3D = [[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]]
NU_3D = 4.0

ESTIMATE = dict(n=5000, inputs=4, alpha="1/5000", grid=64, b1=1000)
FLAG = dict(n=10_000, inputs=4, alpha="0.01", k=200)
# Share of flag-large rows inside the extremal region (some Frechet weight
# positive), i.e. the number of counting queries over n. It follows the
# moment estimate of gamma and ranged from 0.29 to 0.997 over 300 draws
# (median 0.783). Inputs are drawn within this window around the median,
# so that runs on different seeds do the same amount of counting.
FLAG_REGION = (0.765, 0.805)
ORACLE = dict(n=5000, k=100, alpha="1/5000", grid=8)
# Directions visited after "fpc"; each run moves them by a seeded jitter
# small enough to keep the quadrature work nearly the same.
ORACLE_DIRECTIONS = [[1.0, 1.0, 1.0], [0.8, -0.5, 0.33], [-0.3, 0.7, 0.65]]
# Standard deviation of that jitter: it moves the quadrature work by less
# than 1% (integrand evaluations counted on three seeds).
JITTER = 0.01

# Small inputs for the untimed warm-up call made during set-up; they do
# not depend on the seed.
WARMUP_N = 2000
WARMUP_SEED = 20240601
# Draws of one input before giving up (see analysable_sample, flag_sample).
MAX_DRAWS = 1000

WORKLOADS = ("estimate-auto", "flag-large", "oracle-3d")


def _flat(m) -> str:
    return ",".join(repr(float(v)) for row in m for v in row)


def sample_t(sigma, nu: float, n: int, seed) -> np.ndarray:
    """n rows of a centred multivariate t: L Z / sqrt(S / nu), L the Cholesky factor."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    z = rng.standard_normal((n, chol.shape[0]))
    s = rng.chisquare(nu, n)
    return (z @ chol.T) / np.sqrt(s / nu)[:, None]


def load_sample(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_csv(path: str, sample: np.ndarray) -> None:
    d = sample.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    lines += [",".join(repr(float(v)) for v in row) for row in sample]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _seed(seed: int, workload: str, *idx: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, WORKLOADS.index(workload), *idx])


def analysable_sample(seed: int, idx: int, boot_seed: int):
    """Draw estimate-auto samples until one the estimator can analyse.

    About one draw in twenty of the paper's 2D model gets a bootstrap k at
    which the moment estimator of a rotated marginal is not positive, and
    the program then refuses to extrapolate (exit 3). The reference
    bootstrap predicts that k, so such draws are replaced by the next one
    from the same seed. Returns the sample, the reference bootstrap
    choice and the number of draws replaced.
    """
    cfg = ESTIMATE
    for draw in range(MAX_DRAWS):
        x = sample_t(SIGMA_2D, NU_2D, cfg["n"], _seed(seed, "estimate-auto", idx, draw))
        y = x @ rotation(leading_direction(np.cov(x.T))).T
        boot = bootstrap_k(y, cfg["b1"], boot_seed)
        gam, _, b = moment_fit(y, boot["k_hat"])
        if (gam > 0).all() and (b > 0).all():
            return x, boot, draw
    raise RuntimeError(f"no analysable estimate-auto sample in {MAX_DRAWS} draws")


def _jitter(v, rng) -> str:
    """A fixed direction moved by a small seeded perturbation, as a comma list."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v) + JITTER * rng.standard_normal(v.size)
    return ",".join(repr(float(c)) for c in v / np.linalg.norm(v))


def flag_sample(seed: int, idx: int):
    """Draw flag-large samples until the reference fit at k puts a share of
    rows within FLAG_REGION in the extremal region. Returns the sample and
    the number of draws replaced."""
    cfg = FLAG
    d = len(SIGMA_FLAG)
    r = rotation(np.ones(d) / np.sqrt(d))
    for draw in range(MAX_DRAWS):
        x = sample_t(SIGMA_FLAG, NU_FLAG, cfg["n"], _seed(seed, "flag-large", idx, draw))
        y = x @ r.T
        gam, a, b = moment_fit(y, cfg["k"])
        share = float((1.0 + gam * (y - b) / a > 0).any(axis=1).mean())
        if FLAG_REGION[0] <= share <= FLAG_REGION[1]:
            return x, draw
    raise RuntimeError(f"no flag-large sample in the region window in {MAX_DRAWS} draws")


def make_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's inputs under work_dir and return its manifest.

    The manifest lists one entry per distinct operation (argv and the
    facts the output checks need) plus one warm-up operation.
    """
    os.makedirs(work_dir, exist_ok=True)
    ops = []
    if workload == "estimate-auto":
        cfg = ESTIMATE
        for i in range(cfg["inputs"]):
            path = os.path.join(work_dir, f"sample{i}.csv")
            boot_seed = int(_seed(seed, workload, 100 + i).generate_state(1)[0] % 2**31)
            x, boot, replaced = analysable_sample(seed, i, boot_seed)
            write_csv(path, x)
            ops.append(dict(
                input=path, out=os.path.join(work_dir, f"out{i}.json"),
                bootstrap=boot, replaced_draws=replaced,
                argv=["estimate", "--input", path, "--has-header", "--direction", "fpc",
                      "--alpha", cfg["alpha"], "--k", "auto", "--grid", str(cfg["grid"]),
                      "--b1", str(cfg["b1"]), "--seed", str(boot_seed)],
            ))
        warm = os.path.join(work_dir, "warmup.csv")
        write_csv(warm, sample_t(SIGMA_2D, NU_2D, WARMUP_N, WARMUP_SEED))
        warmup = ["estimate", "--input", warm, "--has-header", "--direction", "fpc",
                  "--alpha", cfg["alpha"], "--k", "200", "--grid", "4"]
    elif workload == "flag-large":
        cfg = FLAG
        for i in range(cfg["inputs"]):
            path = os.path.join(work_dir, f"sample{i}.csv")
            x, replaced = flag_sample(seed, i)
            write_csv(path, x)
            ops.append(dict(
                input=path, out=os.path.join(work_dir, f"out{i}.csv"), replaced_draws=replaced,
                argv=["flag", "--input", path, "--has-header", "--direction", "e",
                      "--alpha", cfg["alpha"], "--k", str(cfg["k"]), "--format", "csv"],
            ))
        warm = os.path.join(work_dir, "warmup.csv")
        write_csv(warm, sample_t(SIGMA_FLAG, NU_FLAG, WARMUP_N, WARMUP_SEED))
        warmup = ["flag", "--input", warm, "--has-header", "--direction", "e",
                  "--alpha", cfg["alpha"], "--k", "100", "--format", "csv"]
    elif workload == "oracle-3d":
        cfg = ORACLE
        rng = np.random.default_rng(_seed(seed, workload, 0))
        model = ["--mu", "0,0,0", "--sigma", _flat(SIGMA_3D), "--nu", repr(NU_3D)]
        directions = ["fpc"] + [_jitter(v, rng) for v in ORACLE_DIRECTIONS]
        for i, direction in enumerate(directions):
            ops.append(dict(
                direction=direction, out=os.path.join(work_dir, f"out{i}.json"),
                argv=["oracle-t", *model, f"--direction={direction}",
                      "--alpha", cfg["alpha"], "--n", str(cfg["n"]),
                      "--k", str(cfg["k"]), "--grid", str(cfg["grid"])],
            ))
        warmup = ["oracle-t", *model, "--direction", "fpc", "--alpha", cfg["alpha"],
                  "--n", str(cfg["n"]), "--k", str(cfg["k"]), "--grid", "2"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup += ["--output", os.path.join(work_dir, "warmup.out")]
    for op in ops:
        op["argv"] += ["--output", op["out"]]
    manifest = dict(workload=workload, seed=seed, ops=ops, warmup=warmup)
    with open(os.path.join(work_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
