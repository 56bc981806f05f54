"""Bootstrap selection of the intermediate sequence k = k(n).

Two rounds of bootstrap resamples (sizes m1 = floor(n^(1-eps)) and
m2 = floor(m1^2/n)) locate, per marginal, the k minimizing the averaged
squared deviation of the moment relation M2 = 2 M1^2. The two argmins
and an estimated convergence rate combine into the final k(n).

Resamples are drawn with replacement from the full rotated sample, then
rows with any non-positive component are dropped; a resample retaining
fewer rows than a floor is redrawn from the same stream. Resamples are
drawn and their error curves computed in blocks of row indices. Every
per-block array is a view into one workspace, allocated once per call
and sized for BLOCK resamples of the larger stage, so the block loop
allocates no large array and touches no fresh memory after the first
block. Each stage takes as many resamples per block as the workspace
holds at its size, so the smaller second stage runs in fewer, larger
blocks; at n = 5000 and b1 = 1000, in one.

The error curves need each resample's retained values in descending
order and their logs, which depend only on the sample. So a selection
first builds a rank table: for every marginal, the place of each
positive row in descending order of that marginal (rows not positive in
every component take a sentinel place after all of them), and the log of
the value at each place, as int32 unless there are 2^31 places. A block
gathers the places of its draws once, reads positivity from them, sorts
them, cuts them to the widest resample and gathers their logs.

Resample i of stage s draws its rows as
``np.random.default_rng([seed, s, i]).integers(0, n, m)``, then its
redraws from the same generator. The first draws are replayed in batch:
numpy's SeedSequence hash runs vectorised over all of a stage's indices
once, four 64-bit words a stream; numpy builds each stream's PCG64 from
its words, and that PCG64 supplies the raw outputs that Lemire's
multiply-shift maps to [0, n). A stream whose mapping would reject an
output, a redraw and any input outside 0 <= seed < 2^32, 2 <= n < 2^32
go through ``default_rng`` itself, as does every stream if a
once-per-process probe finds that the replay disagrees with the
installed numpy.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ResamplingError, SmallSampleWarning, _readonly, _sample_columns
from .evt import MIN_ROWS, _descending_logs, _profiles_from_logs

REDRAW_ATTEMPTS = 100
DEFAULT_MIN_RETAINED = 10
# Floor below which the procedure cannot run at all: the error curve
# needs k = 2, hence at least three positive rows.
HARD_MIN_RETAINED = 3
# Stage-1 resamples drawn and reduced together; the workspace of select_k
# holds four buffers of 8 d (BLOCK+1) m1 bytes, 4.7 MiB at n = 5000, d = 2,
# and stage 2 takes as many of its smaller resamples per block as that
# holds, all 1000 there. At that size, on a 2-core x86-64 Xeon with numpy
# 2.4, blocks of 32 and of 256 ran slower than 128, and 64 or 96 no faster.
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
                object.__setattr__(self, name, _readonly(val, dtype=None))

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


class _Workspace:
    """Four flat buffers that hold every per-block array of a selection.

    Each array is a prefix view of one buffer, and arrays that share a
    buffer are never live at the same time. In order of use in a block:

    - buffer 0: the Lemire check, the ranks, mean1 and then M1;
    - buffer 1: the draws, the gathered logs, then 2 M1^2;
    - buffer 2: the raw PCG64 outputs, the intp cut ranks, the M2 terms,
      the invalid mask;
    - buffer 3: the low words of u*n, ``keep``, then the error block,
      whose rows 1, ..., B hold M2 and then the errors.

    Every buffer holds max(d, 1) ``capacity`` float64, with capacity
    (B+1) m for B resamples of size m. That is enough for any block of B'
    resamples of size m' with (B'+1) m' <= capacity, whose draws alone take
    B' m' and whose error block takes d (B'+1) (m'-1). So a workspace sized
    for stage 1 runs capacity // m2 - 1 resamples of the smaller stage-2
    size m2 at once. Pages are touched only as far as a block reaches, and
    reused by every later block and stage.
    """

    def __init__(self, d: int, block: int, m: int):
        self.capacity = (block + 1) * m
        size = 8 * max(d, 1) * self.capacity
        self._buffers = [np.empty(size, dtype=np.uint8) for _ in range(4)]

    def array(self, buffer: int, shape, dtype) -> np.ndarray:
        """A C-contiguous array of ``shape`` over the start of ``buffer``."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        return self._buffers[buffer][:nbytes].view(dtype).reshape(shape)


_MASK32 = (1 << 32) - 1


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


def _hashmix(value: np.ndarray, const) -> np.ndarray:
    xor, mult = const
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(seed: int, stage: int, indices) -> np.ndarray:
    """(B, 4) uint64 seed words of ``default_rng([seed, stage, i])`` for each i.

    numpy's SeedSequence hash, run vectorised over the indices.
    """
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
    return np.stack([words[2 * j] | words[2 * j + 1] << np.uint64(32) for j in range(4)],
                    axis=1)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One stream's row of ``_seed_words`` as the seed of a PCG64.

    PCG64 asks its seed sequence for four 64-bit words; any other request
    means a numpy that seeds differently, and raises.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream seed holds 4 uint64 words, not {n_words} {dtype}")
        return self.words


def _replayed_draws(n: int, m: int, words: np.ndarray, ws: _Workspace):
    """First draws of the streams with ``_seed_words`` rows ``words``,
    without building them.

    Returns the (B, m) draws, a view into ``ws``, and a (B,) mask of the
    streams replayed exactly. A stream is not exact if Lemire's method
    rejects one of its words, since numpy then draws again and shifts the
    rest.
    """
    b, half = len(words), (m + 1) // 2
    raw = ws.array(2, (b, half), np.uint64)
    for row, seed in zip(raw, words):
        row[:] = np.random.PCG64(_StreamSeed(seed)).random_raw(half)
    # integers() takes the low 32 bits of each raw output, then the high,
    # and maps a word u to the high half of u*n; it rejects u if the low
    # half falls below 2^32 mod n.
    u32 = raw.astype("<u8", copy=False).view("<u4")[:, :m]
    low = np.multiply(u32, np.uint32(n), out=ws.array(3, (b, m), np.uint32))
    accepted = np.greater_equal(low, np.uint32((1 << 32) % n), out=ws.array(0, (b, m), bool))
    draws = ws.array(1, (b, m), np.int64)
    high = draws.view(np.uint64)
    np.multiply(u32, np.uint64(n), out=high, dtype=np.uint64)
    high >>= np.uint64(32)
    return draws, accepted.all(axis=1)


@functools.lru_cache(maxsize=None)
def _replay_matches_numpy() -> bool:
    """Whether the replay reproduces one stream, with no rejected word, of
    the installed numpy; a replay that raises (say, when PCG64 asks its
    seed sequence for other words) counts as a mismatch."""
    seed, stage, index, n, m = 2**32 - 1, 2, 4321, 5000, 7
    want = np.random.default_rng([seed, stage, index]).integers(0, n, m)
    try:
        draws, exact = _replayed_draws(n, m, _seed_words(seed, stage, [index]),
                                       _Workspace(1, 1, m))
    except Exception:
        return False
    return bool(exact[0]) and np.array_equal(draws[0], want)


def _is_word(value) -> bool:
    return isinstance(value, (int, np.integer)) and 0 <= value <= _MASK32


def _stream_words(n: int, m: int, seed: int, stage: int, indices) -> Optional[np.ndarray]:
    """``_seed_words`` of the streams ``indices``, or None if their first
    draws of m rows from [0, n) go through ``default_rng`` itself."""
    replayable = (_is_word(seed) and _is_word(stage) and 2 <= n <= _MASK32 and m >= 1
                  and len(indices) > 0 and 0 <= min(indices) and max(indices) <= _MASK32)
    if not (replayable and _replay_matches_numpy()):
        return None
    return _seed_words(seed, stage, indices)


def _first_draws(n: int, m: int, seed: int, stage: int, indices,
                 words: Optional[np.ndarray], ws: _Workspace) -> np.ndarray:
    """(B, m) first draws ``default_rng([seed, stage, i]).integers(0, n, m)``,
    a view into ``ws``; ``words`` are the streams' ``_stream_words``, or None."""
    if words is None:
        draws = ws.array(1, (len(indices), m), np.int64)
        exact = np.zeros(len(indices), dtype=bool)
    else:
        draws, exact = _replayed_draws(n, m, words, ws)
    for i in np.flatnonzero(~exact):
        draws[i] = np.random.default_rng([seed, stage, indices[i]]).integers(0, n, m)
    return draws


def _rank_table(sample: np.ndarray):
    """Positive count, ranks and logs of a finite (n, d) sample.

    Returns ``npos``, the number of rows positive in every component;
    ``rank`` (d, n), where ``rank[j, i]`` is the flat index into ``logs``
    of row i's value in marginal j; and ``logs`` (d, npos + 1), whose
    ``logs[j, r]`` is the log of the r-th largest value of marginal j
    among the positive rows. Other rows index the sentinel slot r = npos,
    which holds a finite pad, so a sort of ranks puts them last, and
    ``rank[0] < npos`` marks the positive rows. Tied values take distinct
    places, whose logs are equal. Ranks are int32 if d (npos + 1) < 2^31.
    """
    n, d = sample.shape
    pos = (sample > 0).all(axis=1)
    positive = sample[pos].T
    npos = positive.shape[1]
    order = np.argsort(positive, axis=1)
    logs = np.zeros((d, npos + 1))
    logs[:, :npos] = _descending_logs(np.take_along_axis(positive, order, axis=1))
    dtype = np.int32 if d * (npos + 1) < 2**31 else np.intp
    place = np.empty((d, npos), dtype=dtype)
    np.put_along_axis(place, order, np.arange(npos - 1, -1, -1), axis=1)
    rank = np.full((d, n), npos, dtype=dtype)
    rank[:, pos] = place
    rank += (np.arange(d) * (npos + 1)).astype(dtype)[:, None]
    return npos, rank, logs


def _draw_block(npos: int, rank: np.ndarray, m: int, seed: int, stage: int, indices,
                words: Optional[np.ndarray], min_retained: int, ws: _Workspace):
    """Draw the resamples ``indices`` of one stage, each from its own stream,
    whose ``_stream_words`` are ``words``.

    Returns the (B, m) drawn row indices and their (d, B, m) ranks in the
    ``_rank_table`` ``npos, rank``, both views into ``ws``, and the (B,)
    counts of rows positive in every component. A resample retaining fewer
    than ``min_retained`` rows is redrawn from its stream, up to
    REDRAW_ATTEMPTS draws in all.
    """
    d, n = rank.shape
    draws = _first_draws(n, m, seed, stage, indices, words, ws)
    # mode="clip" writes straight into ``out``; draws lie in [0, n) anyway
    ranks = np.take(rank, draws, axis=1, out=ws.array(0, (d,) + draws.shape, rank.dtype),
                    mode="clip")
    keep = np.less(ranks[0], npos, out=ws.array(3, draws.shape, bool))
    retained = keep.sum(axis=1)
    for i in np.flatnonzero(retained < min_retained):
        rng = np.random.default_rng([seed, stage, indices[i]])
        rng.integers(0, n, m)  # the first draw, already in ``draws``
        for _ in range(REDRAW_ATTEMPTS - 1):
            draws[i] = rng.integers(0, n, m)
            ranks[:, i] = rank[:, draws[i]]
            retained[i] = np.less(ranks[0, i], npos, out=keep[i]).sum()
            if retained[i] >= min_retained:
                break
        else:
            raise ResamplingError(
                f"resamples of size {m} kept fewer than {min_retained} positive rows "
                f"in {REDRAW_ATTEMPTS} attempts; too little mass in the positive orthant"
            )
    return draws, ranks, retained


def _add_error_curves(sums: np.ndarray, counts: np.ndarray, logs: np.ndarray,
                      ranks: np.ndarray, retained: np.ndarray, ws: _Workspace) -> None:
    """Add the error curves of a block of resamples onto the running sums.

    ``logs`` is the sample's ``_rank_table`` logs, and ``ranks`` (d, B, w)
    and ``retained`` (B,) are a ``_draw_block``'s. A resample retaining r
    rows contributes its error at k = 2, ..., r-1 to ``sums[:, k]`` and
    ``counts[:, k]``. ``ranks`` is sorted in place; every temporary is a
    view into ``ws``, which may hold ``ranks``.
    """
    if retained.min() < 2:
        raise ValueError("need at least two observations")
    width = int(retained.max())
    d, b, _ = ranks.shape
    # Ascending rank is descending value and the sentinel sorts last, so
    # each resample's first ``retained`` ranks are its retained rows in
    # order; columns right of the widest resample hold sentinels only.
    ranks.sort(axis=-1)
    # np.take copies indices that are not contiguous or not intp, so the cut is made here
    cut = ws.array(2, (d, b, width), np.intp)
    np.copyto(cut, ranks[..., :width])
    gathered = np.take(logs, cut, out=ws.array(1, (d, b, width), float), mode="clip")
    # Reducing the running sums and the block over the resample axis adds
    # one resample after another, as a loop over resamples would; summing
    # the block first would regroup the additions and change the last bits.
    # So the running sums go into row 0 of one buffer and the errors
    # (M2 - 2 M1^2)^2 at k = 1, ..., width-1, computed in place in that
    # order, into rows 1, ..., B.
    block = ws.array(3, (d, b + 1, width - 1), float)
    err = block[:, 1:]
    m1, m2 = _profiles_from_logs(gathered, ws.array(0, err.shape, float), err,
                                 ws.array(2, err.shape, float))
    twice_sq = np.multiply(2.0, m1, out=ws.array(1, err.shape, float))
    twice_sq *= m1
    np.subtract(m2, twice_sq, out=err)
    err *= err
    # a resample retaining r rows has no error at k = 1 nor at k >= r
    invalid = np.greater_equal(np.arange(1, width), retained[:, None],
                               out=ws.array(2, (b, width - 1), bool))
    invalid[:, 0] = True
    np.copyto(err, 0.0, where=invalid)
    block[:, 0] = sums[:, 1:width]
    np.sum(block, axis=1, out=sums[:, 1:width])
    counts[:, 1:width] += b - invalid.sum(axis=0)


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
    sample = _sample_columns(rotated_sample)
    ws = _Workspace(sample.shape[1], BLOCK, m)
    return _stage_argmin(_rank_table(sample), m, b, seed, stage, min_retained, ws)


def _stage_argmin(table, m: int, b: int, seed: int, stage: int, min_retained: int,
                  ws: _Workspace) -> np.ndarray:
    """``optimal_k_for_size`` on a sample's ``_rank_table``, in blocks of as
    many resamples as ``ws`` holds at size m. The streams are hashed once
    for the stage; each block seeds its own streams' PCG64s from them."""
    if b < 1:
        raise ValueError(f"need at least one resample, got b={b}")
    npos, rank, logs = table
    d, n = rank.shape
    sums = np.zeros((d, m + 2))
    counts = np.zeros((d, m + 2))
    block = min(b, ws.capacity // m - 1)
    words = _stream_words(n, m, seed, stage, range(b))
    for start in range(0, b, block):
        stop = min(start + block, b)
        _, ranks, retained = _draw_block(npos, rank, m, seed, stage, range(start, stop),
                                         None if words is None else words[start:stop],
                                         min_retained, ws)
        _add_error_curves(sums, counts, logs, ranks, retained, ws)
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


def select_k(
    rotated_sample,
    epsilon: float = 0.25,
    b1: int = 1000,
    seed: int = 0,
) -> KSelection:
    """Full bootstrap selection of k(n) on a finite, pre-rotated sample.

    Falls back to k = floor(sqrt(n)) with a warning for n below 2000/2^d,
    where the resample sizes are too small for the two-stage procedure to
    be meaningful. DataError below ``MIN_ROWS``, which no fit accepts.
    """
    sample = _sample_columns(rotated_sample)
    n, d = sample.shape
    if n < MIN_ROWS:
        raise DataError(f"need at least {MIN_ROWS} rows, got {n}")
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    m1 = int(math.floor(n ** (1.0 - epsilon)))
    m2 = (m1 * m1) // n
    if n < 2000 / 2**d:
        k_hat = math.isqrt(n)  # in [7, n - 1] for n >= MIN_ROWS
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

    # One rank table and one workspace, sized for stage 1, serve both stages.
    table = _rank_table(sample)
    ws = _Workspace(d, BLOCK, m1)
    # The default floor of 10 retained rows applies whenever resamples can
    # realistically reach it; demanding it when the expected retention is
    # lower would reject feasible inputs, so the floor degrades to the hard
    # minimum with a warning.
    frac = table[0] / n
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

    k1 = _stage_argmin(table, m1, b1, seed, 1, floors[0], ws)
    k2 = _stage_argmin(table, m2, b1, seed, 2, floors[1], ws)
    pis = np.array([convergence_rate(int(k), m1) for k in k1])
    terms = np.empty(d)
    for j in range(d):
        # finite: k1[j] lies in [2, m1 - 1], so pis[j] < 0
        factor = (1.0 - 1.0 / pis[j]) ** (1.0 / (2.0 * pis[j] - 1.0))
        terms[j] = (k1[j] ** 2 / k2[j]) * factor
    k_hat = int(np.clip(round(float(terms.mean())), 2, n - 1))
    return KSelection(
        k_hat=k_hat, k_j_m1=k1, k_j_m2=k2, pi_j=pis,
        m1=m1, m2=m2, epsilon=epsilon, b1=b1, seed=seed, n=n, fallback=False,
    )
