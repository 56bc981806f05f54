import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirquant import (
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
    pos, rank, logs = bootstrap._rank_table(sample)
    draws = np.full((len(resamples), size), sample.shape[0] - 1)
    start = 0
    for i, rows in enumerate(resamples):
        draws[i, : rows.shape[0]] = np.arange(start, start + rows.shape[0])
        start += rows.shape[0]
    sums = np.zeros((d, size))
    counts = np.zeros((d, size))
    for start in range(0, len(resamples), bootstrap.BLOCK):
        block = draws[start:start + bootstrap.BLOCK]
        bootstrap._add_error_curves(sums, counts, rank, logs, block, pos[block])
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rank_table_logs_match_sorted_columns(self, d):
        rng = np.random.default_rng(40 + d)
        sample = np.round(pareto_sample(rng, 500, d, 0.7), 2)
        sample[:100, d - 1] = 0.0
        sample[100:200, 0] *= -1.0
        sample[300:] = sample[rng.integers(0, 300, 200)]
        pos, rank, logs = bootstrap._rank_table(sample)
        npos = int(pos.sum())
        assert np.array_equal(pos, (sample > 0).all(axis=1))
        assert logs.shape == (d, npos + 1) and np.isfinite(logs).all()
        for j in range(d):
            column = sample[pos, j]
            assert np.array_equal(logs[j, :npos], np.log(np.sort(column)[::-1]))
            place = rank[j] - j * (npos + 1)
            assert (place[~pos] == npos).all()
            assert np.array_equal(np.sort(place[pos]), np.arange(npos))
            assert np.array_equal(column[np.argsort(place[pos])], np.sort(column)[::-1])


def half_positive_sample(seed):
    rng = np.random.default_rng(seed)
    sample = pareto_sample(rng, 600, 2)
    sample[rng.uniform(size=600) < 0.5, 1] *= -1.0
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
        assert np.array_equal(bootstrap._first_draws(n, m, seed, stage, indices), want)
        if seed < 2**32:
            # the replay itself, before any stream goes back to numpy
            draws, exact = bootstrap._replayed_draws(n, m, seed, stage, indices)
            assert np.array_equal(draws[exact], want[exact])

    def test_lemire_rejection_goes_to_numpy(self):
        # about half of all 32-bit words are rejected for n = 2^31 + 1
        n, indices = 2**31 + 1, range(40)
        _, exact = bootstrap._replayed_draws(n, 3, 5, 1, indices)
        assert 0 < exact.sum() < len(indices)
        assert np.array_equal(bootstrap._first_draws(n, 3, 5, 1, indices),
                              numpy_draws(n, 3, 5, 1, indices))

    def test_rejection_inside_paper_run(self):
        # resample 651 of stage 1 in the PAPER_2D run rejects one word
        _, exact = bootstrap._replayed_draws(5000, 594, 7, 1, range(640, 660))
        assert np.flatnonzero(~exact).tolist() == [11]
        assert np.array_equal(bootstrap._first_draws(5000, 594, 7, 1, range(640, 660)),
                              numpy_draws(5000, 594, 7, 1, range(640, 660)))

    def test_redraws_continue_the_stream(self):
        sample = half_positive_sample(31)
        sample[:300, 0] *= -1.0  # about a quarter of the rows stay positive
        draws, keep = bootstrap._draw_block((sample > 0).all(axis=1), 40, 3, 1,
                                            range(60), 10)
        redrawn = 0
        for i in range(60):
            rng = np.random.default_rng([3, 1, i])
            for attempt in range(100):
                rows = sample[rng.integers(0, 600, 40)]
                if (rows > 0).all(axis=1).sum() >= 10:
                    break
            redrawn += attempt > 0
            assert np.array_equal(sample[draws[i]], rows)
            assert np.array_equal(keep[i], (rows > 0).all(axis=1))
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
        drawn, keep = bootstrap._draw_block((sample > 0).all(axis=1), 20, 0, 1,
                                            range(553, 554), 5)
        assert np.array_equal(sample[drawn[0]], draws[-1])
        assert np.array_equal(keep[0], (draws[-1] > 0).all(axis=1))

    def test_outside_domain_raises_as_numpy(self):
        with pytest.raises(ValueError) as ours:
            bootstrap._first_draws(100, 5, -1, 1, range(3))
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng([-1, 1, 0])
        assert str(ours.value) == str(theirs.value)
        assert np.array_equal(bootstrap._first_draws(1, 5, 0, 1, range(3)),
                              np.zeros((3, 5), dtype=np.int64))

    def test_probe_failure_sends_every_stream_to_numpy(self, fresh_probe, monkeypatch):
        real = bootstrap._replayed_draws

        def shifted(*args):
            draws, exact = real(*args)
            return draws + 1, exact

        monkeypatch.setattr(bootstrap, "_replayed_draws", shifted)
        assert not bootstrap._replay_matches_numpy()
        assert np.array_equal(bootstrap._first_draws(5000, 31, 7, 1, range(50)),
                              numpy_draws(5000, 31, 7, 1, range(50)))


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
