import math
import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirquant import (
    DataError,
    PositivityError,
    ResamplingError,
    convergence_rate,
    diagonal_direction,
    fpc_direction,
    optimal_k_for_size,
    rotate,
    rotation_for,
    sample_t,
    select_k,
)
from dirquant import bootstrap
from dirquant.errors import SmallSampleWarning
from dirquant.evt import MIN_ROWS

from oracles import bootstrap_error, orthant_leq

LN2 = math.log(2.0)


def pareto_sample(rng, n, d, gamma=1.0):
    return rng.uniform(size=(n, d)) ** (-gamma)


def optimal_k_from_resamples(resamples) -> np.ndarray:
    """Per-marginal argmin of the error averaged over given retained
    resamples, through the same block kernel as optimal_k_for_size.

    The resamples are stacked into one sample, after which a zero row
    pads each resample's row indices to a common width.
    """
    resamples = [np.atleast_2d(np.asarray(r, dtype=float)) for r in resamples]
    if any((r <= 0).any() for r in resamples):
        raise PositivityError("profiles require all values positive")
    d = resamples[0].shape[1]
    size = max(r.shape[0] for r in resamples) + 2
    sample = np.concatenate(resamples + [np.zeros((1, d))])
    npos, rank, logs = bootstrap._rank_table(sample)
    draws = np.full((len(resamples), size), sample.shape[0] - 1)
    start = 0
    for i, rows in enumerate(resamples):
        draws[i, : rows.shape[0]] = np.arange(start, start + rows.shape[0])
        start += rows.shape[0]
    sums = np.zeros((d, size))
    counts = np.zeros((d, size))
    ws = bootstrap._Workspace(d, bootstrap.BLOCK, size)
    for start in range(0, len(resamples), bootstrap.BLOCK):
        ranks = np.take(rank, draws[start:start + bootstrap.BLOCK], axis=1)
        retained = (ranks[0] < npos).sum(axis=1)
        bootstrap._add_error_curves(sums, counts, logs, ranks, retained, ws)
    return bootstrap._argmin_per_marginal(sums, counts, len(resamples))


class TestBootstrapError:
    def test_hand_value(self):
        # M1 = 1.5 ln2, M2 = 2.5 (ln2)^2: error is (2 (ln2)^2)^2
        got = bootstrap_error([1.0, 2.0, 4.0], 2)
        assert got == pytest.approx(4.0 * LN2**4, abs=1e-14)
        assert got == pytest.approx(0.9233, abs=1e-4)

    def test_zero_when_moment_relation_holds(self):
        # top values {2, 8} over threshold 2: spacings {0, ln 4}
        assert bootstrap_error([2.0, 2.0, 8.0], 2) == 0.0

    def test_rescale_invariance(self):
        sample = [1.0, 3.0, 7.0, 20.0]
        for c in (0.25, 10.0, 3000.0):
            scaled = [c * v for v in sample]
            assert bootstrap_error(scaled, 3) == pytest.approx(
                bootstrap_error(sample, 3), rel=1e-10
            )


class TestOptimalK:
    def test_single_resample_reduces_to_argmin(self):
        rng = np.random.default_rng(17)
        sample = pareto_sample(rng, 120, 2)
        got = optimal_k_from_resamples([sample])
        for j in range(2):
            s = np.sort(sample[:, j])
            errs = [bootstrap_error(s, k) for k in range(2, 120 - 1)]
            assert got[j] == 2 + int(np.argmin(errs))

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(23)
        sample = pareto_sample(rng, 600, 2)
        k1 = optimal_k_for_size(sample, 150, 50, seed=9)
        k2 = optimal_k_for_size(sample, 150, 50, seed=9)
        assert np.array_equal(k1, k2)

    def test_one_dimensional_sample_is_one_marginal(self):
        rng = np.random.default_rng(29)
        x = pareto_sample(rng, 3000, 1)[:, 0]
        got = optimal_k_for_size(x, 400, 30, seed=5)
        assert got.shape == (1,)
        assert np.array_equal(got, optimal_k_for_size(x[:, None], 400, 30, seed=5))

    def test_exact_pareto_error_curve_flat_and_small(self):
        # exponential log-spacings satisfy the moment relation in
        # expectation, so the error stays uniformly small over a wide k range
        rng = np.random.default_rng(100)
        s = np.sort(pareto_sample(rng, 2000, 1)[:, 0])
        errs = np.array([bootstrap_error(s, k) for k in range(20, 1000)])
        assert np.median(errs) < 0.05
        assert errs.max() < 0.5

    def test_exact_pareto_argmin_sits_deep(self):
        # with no tail bias the averaged error keeps shrinking in k, so the
        # argmin lands in the upper half of the eligible range
        rng = np.random.default_rng(101)
        sample = pareto_sample(rng, 2000, 1)
        resamples = [sample[np.random.default_rng([7, b]).integers(0, 2000, 400)]
                     for b in range(100)]
        k = optimal_k_from_resamples(resamples)
        assert k[0] > 200

    def test_exhausted_redraws_raise(self):
        sample = -np.abs(np.random.default_rng(1).standard_normal((200, 2))) - 0.1
        message = ("resamples of size 50 kept fewer than 10 positive rows in 100 "
                   "attempts; too little mass in the positive orthant")
        with pytest.raises(ResamplingError) as exc:
            optimal_k_for_size(sample, 50, 5, seed=0)
        assert str(exc.value) == message

    def test_nonpositive_resample_rejected(self):
        with pytest.raises(PositivityError):
            optimal_k_from_resamples([[[1.0, 2.0], [0.0, 3.0], [4.0, 5.0]]])

    def test_block_size_does_not_change_sums(self, monkeypatch):
        # resamples join the running sums one at a time in index order, so
        # grouping them differently must not move a single bit
        sample = half_positive_sample(29)
        ref_sums, ref_counts = kernel_sums(monkeypatch, sample, 150, 60, 4)
        for block in (1, 7, 1000):
            monkeypatch.setattr(bootstrap, "BLOCK", block)
            sums, counts = kernel_sums(monkeypatch, sample, 150, 60, 4)
            assert np.array_equal(sums, ref_sums)
            assert np.array_equal(counts, ref_counts)

    def test_sums_match_one_resample_loop(self, monkeypatch):
        sample = half_positive_sample(30)
        sums, counts = kernel_sums(monkeypatch, sample, 150, 60, 4)
        ref_sums, ref_counts = loop_sums(sample, 150, 60, 4)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(counts, ref_counts)

    def test_reused_workspace_leaves_no_stale_values(self, monkeypatch):
        # blocks of 5 resamples, the last one of 3, whose widest resamples
        # keep from 10 to 18 rows, so each block lays its arrays over what
        # the previous one left; later blocks redraw some resamples
        monkeypatch.setattr(bootstrap, "BLOCK", 5)
        sample = half_positive_sample(32)
        widths, redrawn = block_widths(sample, 20, 48, 32, 1, 7)
        assert max(max(a, c) / min(a, c) for a, c in zip(widths, widths[1:])) > 1.6
        assert widths[4:6] == [18, 11] and any(redrawn[1:])
        sums, counts = kernel_sums(monkeypatch, sample, 20, 48, 32, 7)
        ref_sums, ref_counts = loop_sums(sample, 20, 48, 32, floor=7)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(counts, ref_counts)
        # select_k runs stage 2 in the workspace sized for stage 1
        sel = select_k(sample, b1=48, seed=32)
        assert (sel.m1, sel.m2) == (121, 24)
        assert np.array_equal(sel.k_j_m1, optimal_k_for_size(sample, 121, 48, 32, stage=1))
        assert np.array_equal(sel.k_j_m2, optimal_k_for_size(sample, 24, 48, 32, stage=2))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        floor=st.sampled_from([3, 10]),
        extra=st.integers(0, 44),
        data_seed=st.integers(0, 2**32 - 1),
        decimals=st.sampled_from([None, 0, 1]),
        duplicated=st.booleans(),
        dropped=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    # about 40% of these first draws keep fewer than 10 rows
    @example(d=2, floor=10, extra=0, data_seed=5, decimals=1, duplicated=True,
             dropped=0.5, seed=0)
    def test_sums_match_loop_on_ties_and_nonpositive_cells(
        self, d, floor, extra, data_seed, decimals, duplicated, dropped, seed
    ):
        # m of at least twice the floor keeps at least half the rows in
        # expectation, so no stream runs out of redraws
        rng = np.random.default_rng(data_seed)
        n, m = 120, 2 * floor + extra
        sample = pareto_sample(rng, n, d, 0.7)
        if decimals is not None:
            sample = np.round(sample, decimals)
        if duplicated:
            sample[n // 2:] = sample[rng.integers(0, n // 2, n - n // 2)]
        hit = np.flatnonzero(rng.uniform(size=n) < dropped)
        sample[hit, rng.integers(0, d, hit.size)] = rng.choice([0.0, -0.0, -1.5], hit.size)
        with pytest.MonkeyPatch.context() as mp:
            sums, counts = kernel_sums(mp, sample, m, 30, seed, floor)
        ref_sums, ref_counts = loop_sums(sample, m, 30, seed, floor=floor)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(counts, ref_counts)

    def test_int32_and_intp_ranks_give_the_same_sums(self):
        # the rank table's dtype is chosen by its size alone, so a block's
        # ranks widened to intp must give the very same sums and counts
        sample = half_positive_sample(33)
        npos, rank, logs = bootstrap._rank_table(sample)
        indices, m = range(40), 60
        words = bootstrap._stream_words(600, m, 5, 1, indices)
        ws = bootstrap._Workspace(2, len(indices), m)
        _, ranks, retained = bootstrap._draw_block(npos, rank, m, 5, 1, indices, words,
                                                   10, ws)
        results = []
        for block in (ranks.copy(), ranks.astype(np.intp)):
            sums, counts = np.zeros((2, m + 2)), np.zeros((2, m + 2))
            bootstrap._add_error_curves(sums, counts, logs, block, retained, ws)
            results.append((sums, counts))
        (sums32, counts32), (sums64, counts64) = results
        assert rank.dtype == np.int32 and counts32.any()
        assert np.array_equal(sums64, sums32)
        assert np.array_equal(counts64, counts32)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rank_table_logs_match_sorted_columns(self, d):
        rng = np.random.default_rng(40 + d)
        sample = np.round(pareto_sample(rng, 500, d, 0.7), 2)
        sample[:100, d - 1] = 0.0
        sample[100:200, 0] *= -1.0
        sample[300:] = sample[rng.integers(0, 300, 200)]
        npos, rank, logs = bootstrap._rank_table(sample)
        pos = (sample > 0).all(axis=1)
        assert npos == pos.sum() and rank.dtype == np.int32
        assert np.array_equal(rank[0] < npos, pos)
        assert logs.shape == (d, npos + 1) and np.isfinite(logs).all()
        for j in range(d):
            column = sample[pos, j]
            assert np.array_equal(logs[j, :npos], np.log(np.sort(column)[::-1]))
            place = rank[j] - j * (npos + 1)
            assert (place[~pos] == npos).all()
            assert np.array_equal(np.sort(place[pos]), np.arange(npos))
            assert np.array_equal(column[np.argsort(place[pos])], np.sort(column)[::-1])


def half_positive_sample(seed, n=600):
    rng = np.random.default_rng(seed)
    sample = pareto_sample(rng, n, 2)
    sample[rng.uniform(size=n) < 0.5, 1] *= -1.0
    return sample


def kernel_sums(monkeypatch, sample, m, b, seed, floor=10):
    """Running sums and counts as optimal_k_for_size hands them to the argmin."""
    captured = []
    real = bootstrap._argmin_per_marginal

    def spy(sums, counts, b):
        captured.append((sums.copy(), counts.copy()))
        return real(sums, counts, b)

    monkeypatch.setattr(bootstrap, "_argmin_per_marginal", spy)
    optimal_k_for_size(sample, m, b, seed=seed, min_retained=floor)
    monkeypatch.setattr(bootstrap, "_argmin_per_marginal", real)
    return captured[0]


def loop_sums(sample, m, b, seed, stage=1, floor=10):
    """The same sums built one resample, one marginal and one k at a time."""
    d = sample.shape[1]
    sums = np.zeros((d, m + 2))
    counts = np.zeros((d, m + 2))
    for idx in range(b):
        rng = np.random.default_rng([seed, stage, idx])
        for _ in range(100):
            rows = sample[rng.integers(0, sample.shape[0], m)]
            rows = rows[(rows > 0).all(axis=1)]
            if rows.shape[0] >= floor:
                break
        for j in range(d):
            logs = np.log(np.sort(rows[:, j])[::-1])
            c1 = np.cumsum(logs)
            c2 = np.cumsum(logs * logs)
            for k in range(2, rows.shape[0]):
                thr = logs[k]
                mean1 = c1[k - 1] / k
                m1 = mean1 - thr
                m2 = c2[k - 1] / k - 2.0 * thr * mean1 + thr * thr
                # a product, as numpy squares arrays: the scalar ** 2 calls
                # libm's pow, which can miss the correctly rounded square
                dev = m2 - 2.0 * m1 * m1
                sums[j, k] += dev * dev
                counts[j, k] += 1
    return sums, counts


def workspace(indices, m):
    return bootstrap._Workspace(1, len(indices), m)


def first_draws(n, m, seed, stage, indices):
    words = bootstrap._stream_words(n, m, seed, stage, indices)
    return bootstrap._first_draws(n, m, seed, stage, indices, words, workspace(indices, m))


def replayed_draws(n, m, seed, stage, indices):
    words = bootstrap._seed_words(seed, stage, indices)
    return bootstrap._replayed_draws(n, m, words, workspace(indices, m))


def draw_block(sample, m, seed, stage, indices, floor):
    npos, rank, _ = bootstrap._rank_table(sample)
    words = bootstrap._stream_words(sample.shape[0], m, seed, stage, indices)
    return bootstrap._draw_block(npos, rank, m, seed, stage, indices, words, floor,
                                 bootstrap._Workspace(rank.shape[0], len(indices), m))


def assert_ranks_and_counts(sample, draws, ranks, retained, i):
    """Resample i's ranks are its draws' ranks in a fresh rank table, and
    its retained count is the sum of its keep row; returns that row."""
    npos, rank, _ = bootstrap._rank_table(sample)
    assert np.array_equal(ranks[:, i], rank[:, draws[i]])
    keep = ranks[0, i] < npos
    assert retained[i] == keep.sum()
    return keep


def block_widths(sample, m, b, seed, stage, floor):
    """Per block of BLOCK resamples: the most rows a resample retains, and
    whether a resample was redrawn."""
    n = sample.shape[0]
    retained, redrawn = [], []
    for idx in range(b):
        rng = np.random.default_rng([seed, stage, idx])
        for attempt in range(100):
            kept = int((sample[rng.integers(0, n, m)] > 0).all(axis=1).sum())
            if kept >= floor:
                break
        retained.append(kept)
        redrawn.append(attempt > 0)
    starts = range(0, b, bootstrap.BLOCK)
    return ([max(retained[s:s + bootstrap.BLOCK]) for s in starts],
            [any(redrawn[s:s + bootstrap.BLOCK]) for s in starts])


def numpy_draws(n, m, seed, stage, indices):
    return np.stack([np.random.default_rng([seed, stage, i]).integers(0, n, m)
                     for i in indices])


@pytest.fixture
def fresh_probe():
    bootstrap._replay_matches_numpy.cache_clear()
    yield
    bootstrap._replay_matches_numpy.cache_clear()


class TestStreamReplay:
    """The batched first draws equal default_rng([seed, stage, i]).integers(0, n, m)."""

    def test_probe_passes_on_installed_numpy(self, fresh_probe):
        assert bootstrap._replay_matches_numpy()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 2**32 - 1]),
                       st.integers(2**32, 2**40)),
        stage=st.sampled_from([1, 2]),
        n=st.sampled_from([2, 3, 5000, 2**31, 2**32 - 1]),
        m=st.one_of(st.sampled_from([1, 2]), st.integers(1, 65)),
        indices=st.lists(st.one_of(st.integers(0, 2000), st.just(2**32 - 1)),
                         min_size=1, max_size=5),
    )
    def test_batch_equals_numpy_streams(self, seed, stage, n, m, indices):
        want = numpy_draws(n, m, seed, stage, indices)
        assert np.array_equal(first_draws(n, m, seed, stage, indices), want)
        if seed < 2**32:
            # the replay itself, before any stream goes back to numpy
            draws, exact = replayed_draws(n, m, seed, stage, indices)
            assert np.array_equal(draws[exact], want[exact])

    def test_lemire_rejection_goes_to_numpy(self):
        # about half of all 32-bit words are rejected for n = 2^31 + 1
        n, indices = 2**31 + 1, range(40)
        _, exact = replayed_draws(n, 3, 5, 1, indices)
        assert 0 < exact.sum() < len(indices)
        assert np.array_equal(first_draws(n, 3, 5, 1, indices),
                              numpy_draws(n, 3, 5, 1, indices))

    def test_rejection_inside_paper_run(self):
        # resample 651 of stage 1 in the PAPER_2D run rejects one word
        _, exact = replayed_draws(5000, 594, 7, 1, range(640, 660))
        assert np.flatnonzero(~exact).tolist() == [11]
        assert np.array_equal(first_draws(5000, 594, 7, 1, range(640, 660)),
                              numpy_draws(5000, 594, 7, 1, range(640, 660)))

    def test_redraws_continue_the_stream(self):
        sample = half_positive_sample(31)
        sample[:300, 0] *= -1.0  # about a quarter of the rows stay positive
        draws, ranks, retained = draw_block(sample, 40, 3, 1, range(60), 10)
        redrawn = 0
        for i in range(60):
            rng = np.random.default_rng([3, 1, i])
            for attempt in range(100):
                rows = sample[rng.integers(0, 600, 40)]
                if (rows > 0).all(axis=1).sum() >= 10:
                    break
            redrawn += attempt > 0
            assert np.array_equal(sample[draws[i]], rows)
            keep = assert_ranks_and_counts(sample, draws, ranks, retained, i)
            assert np.array_equal(keep, (rows > 0).all(axis=1))
        assert redrawn > 0

    def test_last_of_redraw_attempts_is_accepted(self):
        # resample 553 first keeps 5 positive rows on its 100th draw
        rng = np.random.default_rng(61)
        sample = rng.uniform(size=(400, 2)) ** -0.5
        sample[:360, 0] *= -1.0
        stream = np.random.default_rng([0, 1, 553])
        draws = [sample[stream.integers(0, 400, 20)] for _ in range(bootstrap.REDRAW_ATTEMPTS)]
        kept = [int((rows > 0).all(axis=1).sum()) for rows in draws]
        assert max(kept[:-1]) < 5 <= kept[-1]
        drawn, ranks, retained = draw_block(sample, 20, 0, 1, range(553, 554), 5)
        assert np.array_equal(sample[drawn[0]], draws[-1])
        keep = assert_ranks_and_counts(sample, drawn, ranks, retained, 0)
        assert np.array_equal(keep, (draws[-1] > 0).all(axis=1))

    def test_outside_domain_raises_as_numpy(self):
        with pytest.raises(ValueError) as ours:
            first_draws(100, 5, -1, 1, range(3))
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng([-1, 1, 0])
        assert str(ours.value) == str(theirs.value)
        assert np.array_equal(first_draws(1, 5, 0, 1, range(3)),
                              np.zeros((3, 5), dtype=np.int64))

    def test_stream_seed_gives_only_four_uint64_words(self):
        seed = bootstrap._StreamSeed(bootstrap._seed_words(7, 1, [0])[0])
        assert seed.generate_state(4, np.uint64) is seed.words
        for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64)]:
            with pytest.raises(ValueError, match="4 uint64 words"):
                seed.generate_state(n_words, dtype)

    def test_probe_failure_sends_every_stream_to_numpy(self, fresh_probe, monkeypatch):
        real = bootstrap._replayed_draws

        def shifted(*args):
            draws, exact = real(*args)
            return draws + 1, exact

        monkeypatch.setattr(bootstrap, "_replayed_draws", shifted)
        assert not bootstrap._replay_matches_numpy()
        assert np.array_equal(first_draws(5000, 31, 7, 1, range(50)),
                              numpy_draws(5000, 31, 7, 1, range(50)))


def drawn_blocks(monkeypatch):
    """Per stage, the indices and stream words of each block _draw_block draws."""
    blocks = {}
    real = bootstrap._draw_block

    def spy(npos, rank, m, seed, stage, indices, words, *rest):
        blocks.setdefault(stage, []).append((indices, words))
        return real(npos, rank, m, seed, stage, indices, words, *rest)

    monkeypatch.setattr(bootstrap, "_draw_block", spy)
    return blocks


class TestStageBlocks:
    """Each stage runs in blocks of as many resamples as the workspace holds."""

    def test_second_stage_runs_as_one_block(self, monkeypatch):
        blocks = drawn_blocks(monkeypatch)
        sample = pareto_sample(np.random.default_rng(71), 5000, 2)
        sel = select_k(sample, b1=1000, seed=8)
        assert (sel.m1, sel.m2) == (594, 70)
        assert [len(i) for i, _ in blocks[1]] == [128] * 7 + [104]
        assert [len(i) for i, _ in blocks[2]] == [1000]
        # each block carries the stage's hash of its own streams
        for stage, runs in blocks.items():
            for indices, words in runs:
                assert np.array_equal(words, bootstrap._seed_words(8, stage, indices))

    def test_second_stage_over_two_blocks_matches_loop(self, monkeypatch):
        # at n = 2000 the workspace holds 129 * 299 draws: 875 resamples of 44
        blocks = drawn_blocks(monkeypatch)
        captured = []
        real = bootstrap._argmin_per_marginal

        def spy(sums, counts, b):
            captured.append((sums.copy(), counts.copy()))
            return real(sums, counts, b)

        monkeypatch.setattr(bootstrap, "_argmin_per_marginal", spy)
        sample = half_positive_sample(72, 2000)
        sel = select_k(sample, b1=1000, seed=9)
        assert (sel.m1, sel.m2) == (299, 44)
        assert [len(i) for i, _ in blocks[2]] == [875, 125]
        ref_sums, ref_counts = loop_sums(sample, 44, 1000, 9, stage=2)
        assert np.array_equal(captured[1][0], ref_sums)
        assert np.array_equal(captured[1][1], ref_counts)

    def test_stage_hash_equals_per_index_streams(self):
        seed, stage, b = 7, 1, 1000
        words = bootstrap._stream_words(5000, 594, seed, stage, range(b))
        assert words.shape == (b, 4) and words.dtype == np.uint64
        picks = [0, 127, 128, b - 1]
        for i in picks:
            assert np.array_equal(words[i], bootstrap._seed_words(seed, stage, [i])[0])
            got = np.random.PCG64(bootstrap._StreamSeed(words[i])).state
            assert got == np.random.default_rng([seed, stage, i]).bit_generator.state

    def test_non_word_seed_goes_through_numpy(self, fresh_probe, monkeypatch):
        def refuse(*args):
            raise AssertionError("replayed a stream outside the replay's domain")

        # the probe passes first, so only the domain check can keep the replay out
        assert bootstrap._replay_matches_numpy()
        monkeypatch.setattr(bootstrap, "_replayed_draws", refuse)
        assert bootstrap._stream_words(600, 40, 2**32, 1, range(30)) is None
        sample = half_positive_sample(73)
        sums, counts = kernel_sums(monkeypatch, sample, 40, 30, 2**32)
        ref_sums, ref_counts = loop_sums(sample, 40, 30, 2**32)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(counts, ref_counts)


class TestConvergenceRate:
    def test_sqrt_m1(self):
        assert convergence_rate(10, 100) == pytest.approx(-0.5, abs=1e-12)

    def test_two_thirds_power(self):
        assert convergence_rate(100, 1000) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        want = math.log(21.0) / (2.0 * (math.log(21.0) - math.log(105.0)))
        got = convergence_rate(21, 105)
        assert got == want
        assert got == pytest.approx(-0.9458, abs=1e-4)

    def test_k_equal_m1_rejected(self):
        with pytest.raises(ZeroDivisionError):
            convergence_rate(105, 105)

    def test_bounds(self):
        with pytest.raises(ValueError):
            convergence_rate(1, 100)


class TestSelectK:
    def test_resample_sizes_hand_values(self):
        rng = np.random.default_rng(31)
        sample = pareto_sample(rng, 500, 2)
        sel = select_k(sample, epsilon=0.25, b1=20, seed=0)
        assert sel.m1 == 105
        assert sel.m2 == 22
        assert not sel.fallback
        assert 2 <= sel.k_hat <= 499

    def test_one_dimensional_sample_is_one_marginal(self):
        rng = np.random.default_rng(41)
        x = pareto_sample(rng, 3000, 1)[:, 0]
        sel = select_k(x, b1=20, seed=3)
        assert not sel.fallback
        assert (sel.n, sel.m1, sel.m2) == (3000, 405, 54)
        assert sel.k_j_m1.shape == (1,)
        assert sel.to_dict() == select_k(x[:, None], b1=20, seed=3).to_dict()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(37)
        sample = pareto_sample(rng, 800, 2)
        s1 = select_k(sample, b1=40, seed=11)
        s2 = select_k(sample, b1=40, seed=11)
        assert s1.to_dict() == s2.to_dict()

    def test_small_sample_fallback(self):
        rng = np.random.default_rng(43)
        sample = pareto_sample(rng, 400, 2)
        with pytest.warns(SmallSampleWarning):
            sel = select_k(sample, b1=10, seed=0)
        assert sel.fallback
        assert sel.k_hat == 20
        assert sel.k_j_m1 is None and sel.k_j_m2 is None and sel.pi_j is None

    @pytest.mark.parametrize("n, k_hat", [(MIN_ROWS, 7), (63, 7), (64, 8), (499, 22)])
    def test_fallback_warning_states_its_k(self, n, k_hat):
        # from MIN_ROWS = 50 up to 2000/2^d = 500 rows in 2-D
        with pytest.warns(SmallSampleWarning) as record:
            sel = select_k(np.full((n, 2), 1.5))
        assert [str(w.message) for w in record] == [
            f"n={n} is too small for the bootstrap selection in dimension 2; "
            f"falling back to k = floor(sqrt(n)) = {k_hat}"]
        assert sel.fallback and sel.k_hat == k_hat

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_rows_is_a_data_error(self, n):
        with pytest.raises(DataError, match=f"^need at least 50 rows, got {n}$"):
            select_k(np.full((n, 2), 1.5))

    @pytest.mark.parametrize("n", [3, MIN_ROWS - 1])
    def test_fewer_than_min_rows_is_a_data_error(self, n):
        # the fewest rows that any fit accepts, so no fit could use the k
        with pytest.raises(DataError, match=f"^need at least 50 rows, got {n}$"):
            select_k(np.full((n, 2), 1.5))

    def test_tiny_m2_rejected(self):
        rng = np.random.default_rng(47)
        sample = pareto_sample(rng, 70, 5)
        with pytest.raises(ValueError, match="m2"):
            select_k(sample, epsilon=0.45, b1=10, seed=0)

    def test_epsilon_domain(self):
        sample = pareto_sample(np.random.default_rng(0), 600, 2)
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                select_k(sample, epsilon=eps)

    def test_positivity_filter_matches_orthant_order(self):
        rng = np.random.default_rng(53)
        rows = rng.standard_normal((500, 3))
        mask_filter = (rows > 0).all(axis=1)
        e = diagonal_direction(3)
        mask_order = np.array([orthant_leq(np.zeros(3), r, e) for r in rows])
        assert np.array_equal(mask_filter, mask_order)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(520, 5000), st.floats(0.05, 0.45))
    def test_resample_size_floor_semantics(self, n, eps):
        rng = np.random.default_rng(n)
        sample = pareto_sample(rng, n, 2)
        try:
            sel = select_k(sample, epsilon=eps, b1=2, seed=1)
        except ValueError:
            assert (int(math.floor(n ** (1 - eps))) ** 2) // n < 10
            return
        assert sel.m1 == int(math.floor(n ** (1.0 - eps)))
        assert sel.m2 == (sel.m1 * sel.m1) // n


# select_k(...).to_dict() recorded from the one-resample-at-a-time
# implementation that the block kernel replaced; the kernel must
# reproduce every field exactly.
PAPER_2D = {
    "k_hat": 143, "k_j_m1": [29, 40], "k_j_m2": [5, 6],
    "pi_j": [-0.5575762090754673, -0.683632253216196],
    "m1": 594, "m2": 70, "epsilon": 0.25, "b1": 1000, "seed": 7, "n": 5000,
    "fallback": False,
}
T_3D = {
    "k_hat": 13, "k_j_m1": [10, 10, 5], "k_j_m2": [2, 3, 2],
    "pi_j": [-0.33882886916544847, -0.33882886916544847, -0.1967044347792189],
    "m1": 299, "m2": 44, "epsilon": 0.25, "b1": 200, "seed": 3, "n": 2000,
    "fallback": False,
}
SPARSE = {
    "k_hat": 2, "k_j_m1": [3, 4], "k_j_m2": [2, 2],
    "pi_j": [-0.11936685861510675, -0.16066833724443672],
    "m1": 299, "m2": 44, "epsilon": 0.25, "b1": 150, "seed": 13, "n": 2000,
    "fallback": False,
}


def short_first_draws(sample, m, b, seed, stage, floor):
    """Resamples whose first draw from their stream retains too few rows."""
    n = sample.shape[0]
    return sum(
        int((sample[np.random.default_rng([seed, stage, i]).integers(0, n, m)] > 0)
            .all(axis=1).sum() < floor)
        for i in range(b)
    )


class TestSelectKReference:
    def test_paper_model_2d_fpc(self, params_2d):
        rotated = rotate(rotation_for(fpc_direction(params_2d.sigma)),
                         sample_t(params_2d, 5000, 2024))
        assert select_k(rotated, b1=1000, seed=7).to_dict() == PAPER_2D

    def test_three_dimensional_with_lowered_floor(self, params_3d):
        rotated = rotate(rotation_for(diagonal_direction(3)),
                         sample_t(params_3d, 2000, 31))
        with pytest.warns(SmallSampleWarning, match="resamples of size 44"):
            sel = select_k(rotated, b1=200, seed=3)
        assert sel.to_dict() == T_3D

    def test_sparse_orthant_forces_redraws(self):
        # about 4% of the rows are positive in both coordinates
        rng = np.random.default_rng(59)
        sample = rng.uniform(size=(2000, 2)) ** -0.5 - 1.0
        sample[rng.uniform(size=2000) > 0.05, 0] *= -1.0
        assert short_first_draws(sample, 299, 150, 13, 1, 10) > 0
        assert short_first_draws(sample, 44, 150, 13, 2, 3) > 0
        with pytest.warns(SmallSampleWarning, match="floor to 3"):
            sel = select_k(sample, b1=150, seed=13)
        assert sel.to_dict() == SPARSE


# One select_k call after a warm-up one, under the malloc setting of the
# benchmark in perfbench/, which maps every freed array above 128 KiB back
# to the system; prints the call's minor page faults.
FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from dirquant import TParams, fpc_direction, rotate, rotation_for, sample_t, select_k
    x = sample_t(TParams(np.zeros(2), np.array([[5.0, 0.1], [0.1, 1.0]]), 3.0), 5000, 2024)
    y = rotate(rotation_for(fpc_direction(np.cov(x.T))), x)
    select_k(y, b1=1000, seed=7)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    select_k(y, b1=1000, seed=7)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under a glibc malloc setting")
def test_select_k_reuses_its_pages():
    # one workspace per call takes about 730 faults, all of them its first
    # touch; fresh arrays for every block take about 13.5k
    src = os.path.dirname(os.path.dirname(bootstrap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert int(proc.stdout) < 2000
