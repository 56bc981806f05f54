"""Bootstrap selection of the intermediate sequence k = k(n).

Two rounds of bootstrap resamples (sizes m1 = floor(n^(1-eps)) and
m2 = floor(m1^2/n)) locate, per marginal, the k minimizing the averaged
squared deviation of the moment relation M2 = 2 M1^2. The two argmins
and an estimated convergence rate combine into the final k(n).

Resamples are drawn with replacement from the full rotated sample, then
rows with any non-positive component are dropped; a resample retaining
fewer rows than a floor is redrawn from the same stream. Resamples are
drawn and their error curves computed in blocks of row indices.

The error curves need each resample's retained values in descending
order and their logs, which depend only on the sample. So each stage
first builds a rank table: for every marginal, the place of each
positive row in descending order of that marginal (rows not positive in
every component take a sentinel place after all of them), and the log of
the value at each place. A block then sorts the small integer places of
its draws, cuts them to the widest resample and gathers their logs.

Resample i of stage s draws its rows as
``np.random.default_rng([seed, s, i]).integers(0, n, m)``, then its
redraws from the same generator. The first draws of a block are replayed
in batch: numpy's SeedSequence hash runs vectorised over the block's
indices, each stream's PCG64 state is derived from it, and one reused
PCG64 supplies the raw outputs that Lemire's multiply-shift maps to
[0, n). A stream whose mapping would reject an output, a redraw and any
input outside 0 <= seed < 2^32, 2 <= n < 2^32 go through ``default_rng``
itself, as does every stream if a once-per-process probe finds that the
replay disagrees with the installed numpy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NonFiniteCorrectionWarning,
    ResamplingError,
    SmallSampleWarning,
    _require_finite,
)
from .evt import _descending_logs, _profiles_from_logs, log_moment

REDRAW_ATTEMPTS = 100
DEFAULT_MIN_RETAINED = 10
# Floor below which the procedure cannot run at all: the error curve
# needs k = 2, hence at least three positive rows.
HARD_MIN_RETAINED = 3
# Resamples drawn and reduced together. In select_k at n = 5000, b1 = 1000
# a block of 128 peaks at about 4.5 MiB of traced allocations; all 1000
# resamples at once peak at about 34 MiB.
BLOCK = 128


@dataclass(frozen=True)
class KSelection:
    """Selected k with the per-marginal diagnostics that produced it."""

    k_hat: int
    k_j_m1: Optional[np.ndarray]
    k_j_m2: Optional[np.ndarray]
    pi_j: Optional[np.ndarray]
    m1: int
    m2: int
    epsilon: float
    b1: int
    seed: int
    n: int
    fallback: bool = False

    def __post_init__(self):
        if not (2 <= self.k_hat <= self.n - 1):
            raise ValueError(f"k_hat={self.k_hat} outside [2, n-1] for n={self.n}")
        for name in ("k_j_m1", "k_j_m2", "pi_j"):
            val = getattr(self, name)
            if val is not None:
                arr = np.array(val)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def to_dict(self) -> dict:
        def listify(a):
            return None if a is None else [x.item() for x in a]

        return {
            "k_hat": int(self.k_hat),
            "k_j_m1": listify(self.k_j_m1),
            "k_j_m2": listify(self.k_j_m2),
            "pi_j": listify(self.pi_j),
            "m1": int(self.m1),
            "m2": int(self.m2),
            "epsilon": float(self.epsilon),
            "b1": int(self.b1),
            "seed": int(self.seed),
            "n": int(self.n),
            "fallback": bool(self.fallback),
        }


def bootstrap_error(sorted_values, k: int) -> float:
    """Squared deviation of the moment relation, (M2 - 2 M1^2)^2, at k."""
    m1 = log_moment(sorted_values, k, 1)
    m2 = log_moment(sorted_values, k, 2)
    return (m2 - 2.0 * m1 * m1) ** 2


_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(value: int, mult: int, count: int) -> list:
    """(xor, multiplier) pairs of ``count`` successive SeedSequence hash steps."""
    out = []
    for _ in range(count):
        nxt = value * mult & _MASK32
        out.append((np.uint32(value), np.uint32(nxt)))
        value = nxt
    return out


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of
# four words. Entropy [seed, stage, i] fills three words and a zero the
# fourth; filling and the twelve cross-mixes take 16 hash steps, and
# generate_state(4, uint64) takes eight more.
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# Multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(value: np.ndarray, const) -> np.ndarray:
    xor, mult = const
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _pcg_states(seed: int, stage: int, indices) -> list:
    """PCG64 (state, inc) of ``default_rng([seed, stage, i])`` for each i."""
    idx = np.asarray(indices, dtype=np.uint32)
    entropy = [np.full_like(idx, seed), np.full_like(idx, stage), idx, np.zeros_like(idx)]
    consts = iter(_POOL_HASH)
    pool = [_hashmix(word, next(consts)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    words = [_hashmix(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_STATE_HASH)]
    # Little-endian pairs of 32-bit words make the four 64-bit seed words:
    # the first two the initial state, the last two the stream increment.
    seeds = [(words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    out = []
    for hi, lo, inc_hi, inc_lo in zip(*seeds):
        # PCG's srandom_r: state 0, one LCG step, add the seed, one more step.
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


def _replayed_draws(n: int, m: int, seed: int, stage: int, indices):
    """First draws of the streams ``indices``, without building them.

    Returns the (B, m) draws and a (B,) mask of the streams replayed
    exactly. A stream is not exact if Lemire's method rejects one of its
    words, since numpy then draws again and shifts the rest.
    """
    half = (m + 1) // 2
    raw = np.empty((len(indices), half), dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    doc = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for row, (state, inc) in zip(raw, _pcg_states(seed, stage, indices)):
        doc["state"] = {"state": state, "inc": inc}
        bitgen.state = doc
        row[:] = bitgen.random_raw(half)
    # integers() takes the low 32 bits of each raw output, then the high,
    # and maps a word u to the high half of u*n; it rejects u if the low
    # half falls below 2^32 mod n.
    words = raw.astype("<u8", copy=False).view("<u4")[:, :m]
    exact = (words * np.uint32(n) >= np.uint32((1 << 32) % n)).all(axis=1)
    draws = words.astype(np.uint64)
    draws *= np.uint64(n)
    draws >>= np.uint64(32)
    return draws.view(np.int64), exact


@functools.lru_cache(maxsize=None)
def _replay_matches_numpy() -> bool:
    """Whether the replay reproduces one stream, with no rejected word, of
    the installed numpy; a replay that raises (say, on a changed PCG64
    state format) counts as a mismatch."""
    seed, stage, index, n, m = 2**32 - 1, 2, 4321, 5000, 7
    want = np.random.default_rng([seed, stage, index]).integers(0, n, m)
    try:
        draws, exact = _replayed_draws(n, m, seed, stage, [index])
    except Exception:
        return False
    return bool(exact[0]) and np.array_equal(draws[0], want)


def _is_word(value) -> bool:
    return isinstance(value, (int, np.integer)) and 0 <= value <= _MASK32


def _first_draws(n: int, m: int, seed: int, stage: int, indices) -> np.ndarray:
    """(B, m) first draws ``default_rng([seed, stage, i]).integers(0, n, m)``."""
    replayable = (_is_word(seed) and _is_word(stage) and 2 <= n <= _MASK32 and m >= 1
                  and len(indices) > 0 and 0 <= min(indices) and max(indices) <= _MASK32)
    if not (replayable and _replay_matches_numpy()):
        return np.stack([np.random.default_rng([seed, stage, i]).integers(0, n, m)
                         for i in indices])
    draws, exact = _replayed_draws(n, m, seed, stage, indices)
    for i in np.flatnonzero(~exact):
        draws[i] = np.random.default_rng([seed, stage, indices[i]]).integers(0, n, m)
    return draws


def _rank_table(sample: np.ndarray):
    """Positive-orthant mask, ranks and logs of a finite (n, d) sample.

    Returns ``pos``, the (n,) mask of rows positive in every component;
    ``rank`` (d, n), where ``rank[j, i]`` is the flat index into ``logs``
    of row i's value in marginal j; and ``logs`` (d, npos + 1), whose
    ``logs[j, r]`` is the log of the r-th largest value of marginal j
    among the ``npos`` positive rows. Rows outside ``pos`` index the
    sentinel slot r = npos, which holds a finite pad, so a sort of ranks
    puts them after every positive row. Tied values take distinct
    places, whose logs are equal.
    """
    n, d = sample.shape
    pos = (sample > 0).all(axis=1)
    positive = sample[pos].T
    npos = positive.shape[1]
    order = np.argsort(positive, axis=1)
    logs = np.zeros((d, npos + 1))
    logs[:, :npos] = _descending_logs(np.take_along_axis(positive, order, axis=1))
    place = np.empty((d, npos), dtype=np.intp)
    np.put_along_axis(place, order, np.arange(npos - 1, -1, -1), axis=1)
    rank = np.full((d, n), npos, dtype=np.intp)
    rank[:, pos] = place
    rank += np.arange(d)[:, None] * (npos + 1)
    return pos, rank, logs


def _draw_block(pos: np.ndarray, m: int, seed: int, stage: int, indices,
                min_retained: int):
    """Draw the resamples ``indices`` of one stage, each from its own stream.

    Returns the (B, m) drawn row indices and the (B, m) mask ``pos[draws]``
    of rows positive in every component. A resample retaining fewer than
    ``min_retained`` rows is redrawn from its stream, up to
    REDRAW_ATTEMPTS draws in all.
    """
    n = pos.size
    draws = _first_draws(n, m, seed, stage, indices)
    keep = pos[draws]
    for i in np.flatnonzero(keep.sum(axis=1) < min_retained):
        rng = np.random.default_rng([seed, stage, indices[i]])
        rng.integers(0, n, m)  # the first draw, already in ``draws``
        for _ in range(REDRAW_ATTEMPTS - 1):
            draws[i] = rng.integers(0, n, m)
            keep[i] = pos[draws[i]]
            if keep[i].sum() >= min_retained:
                break
        else:
            raise ResamplingError(
                f"resamples of size {m} kept fewer than {min_retained} positive rows "
                f"in {REDRAW_ATTEMPTS} attempts; too little mass in the positive orthant"
            )
    return draws, keep


def _add_error_curves(sums: np.ndarray, counts: np.ndarray, rank: np.ndarray,
                      logs: np.ndarray, draws: np.ndarray, keep: np.ndarray) -> None:
    """Add the error curves of a block of resamples onto the running sums.

    ``rank`` and ``logs`` are the sample's ``_rank_table``; ``draws``
    (B, w) holds B resamples' row indices and ``keep`` (B, w) marks their
    retained rows. A resample retaining r rows contributes its error at
    k = 2, ..., r-1 to ``sums[:, k]`` and ``counts[:, k]``.
    """
    retained = keep.sum(axis=1)
    if retained.min() < 2:
        raise ValueError("need at least two observations")
    width = int(retained.max())
    # Ascending rank is descending value and the sentinel sorts last, so
    # each resample's first ``retained`` ranks are its retained rows in
    # order; columns right of the widest resample hold sentinels only.
    ranks = rank.take(draws, axis=1)
    ranks.sort(axis=-1)
    m1, m2 = _profiles_from_logs(logs.take(ranks[..., :width]))
    # Reducing the running sums and the block over the resample axis adds
    # one resample after another, as a loop over resamples would; summing
    # the block first would regroup the additions and change the last bits.
    # So the running sums go into row 0 of one buffer and the errors
    # (M2 - 2 M1^2)^2 at k = 1, ..., width-1, computed in place in that
    # order, into rows 1, ..., B.
    d, b, w = m1.shape
    block = np.empty((d, b + 1, w))
    err = block[:, 1:]
    np.multiply(2.0, m1, out=err)
    err *= m1
    np.subtract(m2, err, out=err)
    err *= err
    ks = np.arange(1, width)
    valid = (ks >= 2) & (ks < retained[:, None])
    err[:, ~valid] = 0.0
    block[:, 0] = sums[:, 1:width]
    sums[:, 1:width] = block.sum(axis=1)
    counts[:, 1:width] += valid.sum(axis=0)


def _argmin_per_marginal(sums: np.ndarray, counts: np.ndarray, b: int) -> np.ndarray:
    """Argmin of the averaged error; k needs backing from at least half the
    resamples to be eligible, and np.argmin breaks ties toward the smallest k."""
    quorum = max(1.0, b / 2.0)
    out = np.empty(sums.shape[0], dtype=np.int64)
    for j in range(sums.shape[0]):
        eligible = counts[j] >= quorum
        if not eligible.any():
            raise ResamplingError("no k value is backed by enough resamples")
        avg = np.where(eligible, sums[j] / np.maximum(counts[j], 1.0), np.inf)
        out[j] = int(np.argmin(avg))
    return out


def _as_columns(rotated_sample) -> np.ndarray:
    """The sample as an (n, d) array; a 1-D sample is n rows of one marginal."""
    sample = np.asarray(rotated_sample, dtype=float)
    return sample[:, None] if sample.ndim == 1 else sample


def optimal_k_for_size(
    rotated_sample,
    m: int,
    b: int,
    seed: int,
    stage: int = 1,
    min_retained: int = DEFAULT_MIN_RETAINED,
) -> np.ndarray:
    """Per-marginal optimal k from b positivity-filtered resamples of size m.

    Each resample owns the RNG stream derived from (seed, stage, index)
    and adds its error curve to the sums in index order, so results do
    not depend on how resamples are grouped into blocks.
    """
    sample = _as_columns(rotated_sample)
    _require_finite(sample)
    if b < 1:
        raise ValueError(f"need at least one resample, got b={b}")
    pos, rank, logs = _rank_table(sample)
    d = sample.shape[1]
    sums = np.zeros((d, m + 2))
    counts = np.zeros((d, m + 2))
    for start in range(0, b, BLOCK):
        indices = range(start, min(start + BLOCK, b))
        draws, keep = _draw_block(pos, m, seed, stage, indices, min_retained)
        _add_error_curves(sums, counts, rank, logs, draws, keep)
    return _argmin_per_marginal(sums, counts, b)


def convergence_rate(k_j_m1: int, m1: int) -> float:
    """Estimated marginal convergence rate, negative for k < m1.

    Reads as log k over twice the log ratio log(k/m1); the rate is the
    exponent pi <= 0 governing how fast the optimal fraction shrinks.
    """
    if not (2 <= k_j_m1 <= m1):
        raise ValueError(f"k={k_j_m1} outside [2, m1={m1}]")
    if k_j_m1 == m1:
        raise ZeroDivisionError("k equal to m1 makes the rate undefined")
    return math.log(k_j_m1) / (2.0 * math.log(k_j_m1) - 2.0 * math.log(m1))


def _positive_fraction(sample: np.ndarray) -> float:
    return float((sample > 0).all(axis=1).mean())


def select_k(
    rotated_sample,
    epsilon: float = 0.25,
    b1: int = 1000,
    seed: int = 0,
) -> KSelection:
    """Full bootstrap selection of k(n) on a finite, pre-rotated sample.

    Falls back to k = floor(sqrt(n)) with a warning for n below
    2000/2^d, where the resample sizes are too small for the two-stage
    procedure to be meaningful.
    """
    sample = _as_columns(rotated_sample)
    _require_finite(sample)
    n, d = sample.shape
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    m1 = int(math.floor(n ** (1.0 - epsilon)))
    m2 = (m1 * m1) // n
    if n < 2000 / 2**d:
        k_hat = int(np.clip(int(math.isqrt(n)), 2, n - 1))
        warnings.warn(
            f"n={n} is too small for the bootstrap selection in dimension {d}; "
            f"falling back to k = floor(sqrt(n)) = {k_hat}",
            SmallSampleWarning,
            stacklevel=2,
        )
        return KSelection(
            k_hat=k_hat, k_j_m1=None, k_j_m2=None, pi_j=None,
            m1=m1, m2=m2, epsilon=epsilon, b1=b1, seed=seed, n=n, fallback=True,
        )
    if m2 < 10:
        raise ValueError(f"m2={m2} below 10; n={n} too small for epsilon={epsilon!r}")

    # The default floor of 10 retained rows applies whenever resamples can
    # realistically reach it; demanding it when the expected retention is
    # lower would reject feasible inputs, so the floor degrades to the hard
    # minimum with a warning.
    frac = _positive_fraction(sample)
    floors = []
    for m in (m1, m2):
        floor = DEFAULT_MIN_RETAINED
        if m * frac < DEFAULT_MIN_RETAINED:
            floor = HARD_MIN_RETAINED
            warnings.warn(
                f"resamples of size {m} are expected to retain only "
                f"{m * frac:.1f} positive rows; lowering the retained-row floor "
                f"to {floor}",
                SmallSampleWarning,
                stacklevel=2,
            )
        floors.append(floor)

    k1 = optimal_k_for_size(sample, m1, b1, seed, stage=1, min_retained=floors[0])
    k2 = optimal_k_for_size(sample, m2, b1, seed, stage=2, min_retained=floors[1])
    pis = np.array([convergence_rate(int(k), m1) for k in k1])
    terms = np.empty(d)
    for j in range(d):
        factor = (1.0 - 1.0 / pis[j]) ** (1.0 / (2.0 * pis[j] - 1.0))
        if not np.isfinite(factor):
            warnings.warn(
                f"marginal {j}: non-finite correction factor; using 1",
                NonFiniteCorrectionWarning,
                stacklevel=2,
            )
            factor = 1.0
        terms[j] = (k1[j] ** 2 / k2[j]) * factor
    k_hat = int(np.clip(round(float(terms.mean())), 2, n - 1))
    return KSelection(
        k_hat=k_hat, k_j_m1=k1, k_j_m2=k2, pi_j=pis,
        m1=m1, m2=m2, epsilon=epsilon, b1=b1, seed=seed, n=n, fallback=False,
    )
