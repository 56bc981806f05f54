"""Fixed reference kernels, one per workload, timed alternately with operations.

On a small shared VM raw seconds drift by far more than a tenth within a
minute. Dividing an operation's time by that of a fixed kernel with a
similar mix of work, timed right next to it in the same process, cancels
most of that drift. Each kernel is plain numpy/scipy code of the
benchmark's own; it never calls the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# Kernel sizes. A kernel that takes about as long as an operation brackets
# it most finely: with the oracle kernel at a third of an operation op_ref
# spread by 5.1% over ten seeds, at three quarters by 1.3% over five. The
# sizes below give about 0.65 (estimate-auto), 0.44 (flag-large) and 0.74
# (oracle-3d) of an operation, i.e. 1/op_ref. flag-large's kernel is the
# shortest; its op_ref spread over ten seeds was 2.8 to 4.0%.

# 1500 resamples of 594 rows, the program's first-stage size
# floor(5000^0.75), drawn from 5000 rows as in estimate-auto.
BOOT_ROUNDS = 1500
BOOT_N = 5000
BOOT_M = 594
# 12 blocks of 250 queries against the 10 000 rows of flag-large (fresh
# 2.5 MB boolean arrays, so page faults are included), plus 5000 CSV lines.
STREAM_BLOCKS = 12
STREAM_N = 10_000
STREAM_ROWS = 250
STREAM_LINES = 5_000
# 500 quadratures and 500 bisections: three quarters of an oracle-3d
# operation at --grid 8.
QUAD_INTEGRALS = 500
QUAD_BISECTIONS = 500


def bootstrap_like():
    """Many small seeded draws, gathers, sorts and cumulative sums from an
    interpreter loop: the shape of a bootstrap over resamples."""
    x = np.random.default_rng(12345).standard_t(3.0, size=(BOOT_N, 2))

    def kernel() -> float:
        acc = 0.0
        for i in range(BOOT_ROUNDS):
            rng = np.random.default_rng([7, 1, i])
            rows = x[rng.integers(0, BOOT_N, BOOT_M)]
            keep = rows[(rows > 0).all(axis=1)]
            for j in range(2):
                logs = np.log(np.sort(keep[:, j])[::-1])
                c1 = np.cumsum(logs)[:-1]
                c2 = np.cumsum(logs * logs)[:-1]
                ks = np.arange(1, logs.size)
                curve = (c2 / ks - (c1 / ks) ** 2) ** 2
                acc += float(np.nanmin(curve[1:]))
        return acc

    return kernel


def stream_like():
    """Broadcast comparisons of query blocks against a large sample, plus
    text parsing and formatting of floats: the shape of batch counting with
    CSV input and output."""
    rng = np.random.default_rng(12345)
    x = rng.standard_t(3.0, size=(STREAM_N, 2))
    queries = rng.standard_t(3.0, size=(STREAM_ROWS, 2))
    text = [f"{a!r},{b!r}" for a, b in rng.standard_t(3.0, size=(STREAM_LINES, 2)).tolist()]
    cols = [np.ascontiguousarray(x[:, j]) for j in range(2)]

    def kernel() -> float:
        total = 0
        for _ in range(STREAM_BLOCKS):
            hit = cols[0][None, :] > queries[:, 0][:, None]
            hit |= cols[1][None, :] > queries[:, 1][:, None]
            total += int(hit.sum())
        parsed = [[float(c) for c in ln.split(",")] for ln in text]
        out = "\n".join(",".join(format(v, ".17g") for v in row) for row in parsed)
        return total + len(out)

    return kernel


def quadrature_like():
    """Adaptive quadrature of a scalar Python integrand that calls a special
    function, plus bisection on a distribution function: the shape of
    numerical evaluation of a t model."""
    nu = 4.0

    def cdf(x: float) -> float:
        tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + x * x))
        return 1.0 - tail if x >= 0 else float(tail)

    def integrand(s: float, r: float) -> float:
        dens = math.exp(-(nu + 1.0) / 2.0 * math.log1p(s * s / nu))
        return dens * cdf((1.0 - r * s) * math.sqrt(2.0 / (1.0 - r * r)))

    def kernel() -> float:
        acc = 0.0
        for i in range(QUAD_INTEGRALS):
            r = -0.8 + 1.6 * i / QUAD_INTEGRALS
            acc += integrate.quad(integrand, -np.inf, 1.0 + i / QUAD_INTEGRALS, args=(r,),
                                  epsabs=1e-10, epsrel=1e-11, limit=200)[0]
        for i in range(QUAD_BISECTIONS):
            lo, hi, target = 0.0, 50.0, 0.9 + 0.09 * i / QUAD_BISECTIONS
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if cdf(mid) < target else (lo, mid)
            acc += lo
        return acc

    return kernel


KERNELS = {
    "estimate-auto": bootstrap_like,
    "flag-large": stream_like,
    "oracle-3d": quadrature_like,
}
