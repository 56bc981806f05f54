import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import (
    HeavyTailError,
    StdfContext,
    TailFit,
    rho_hat_batch,
)
from dirquant import stdf
from dirquant.evt import extrapolate

from oracles import empirical_neg_log_G, rho_hat


def make_ctx(sample, k, a, b, gamma=None):
    sample = np.asarray(sample, dtype=float)
    d = sample.shape[1]
    gam = np.full(d, 0.5) if gamma is None else np.asarray(gamma, dtype=float)
    fit = TailFit(
        k=k, gamma_marginal=gam, gamma=float(gam.mean()),
        a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        n=sample.shape[0],
    )
    return StdfContext(sample, fit)


def counting_oracle(sample, thresholds):
    """Row-by-row union count, written as plainly as possible."""
    count = 0
    for row in sample:
        if any(row[j] > thresholds[j] for j in range(len(thresholds))):
            count += 1
    return count


class TestEmpiricalNegLogG:
    def test_infinite_thresholds_give_zero(self):
        ctx = make_ctx([[1.0, 2.0], [3.0, 1.0], [2.0, 4.0]], 2, [1.0, 1.0], [2.0, 2.0])
        assert empirical_neg_log_G(ctx, np.array([np.inf, np.inf])) == 0.0

    def test_hand_counting_example(self):
        sample = [[1.0, 2.0], [3.0, 1.0], [2.0, 4.0], [5.0, 3.0]]
        ctx = make_ctx(sample, 2, [1.0, 1.0], [2.0, 2.0])
        # thresholds (2, 2): rows (3,1), (2,4), (5,3) exceed in some coordinate
        assert empirical_neg_log_G(ctx, np.array([0.0, 0.0])) == 1.5

    def test_zero_thresholds_on_positive_sample(self):
        sample = np.abs(np.random.default_rng(0).standard_normal((40, 3))) + 0.1
        ctx = make_ctx(sample, 5, [2.0, 3.0, 1.0], [1.0, 1.5, 2.0],
                       gamma=[0.5, 0.5, 0.5])
        x = -ctx.fit.b / ctx.fit.a
        assert empirical_neg_log_G(ctx, x) == ctx.n / ctx.fit.k

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(3, 51))
            d = int(rng.integers(1, 5))
            sample = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
            a = rng.uniform(0.2, 2.0, d)
            b = rng.uniform(0.1, 2.0, d)
            k = int(rng.integers(2, n))
            ctx = make_ctx(sample, k, a, b, gamma=np.full(d, 0.4))
            x = rng.standard_normal(d)
            got = empirical_neg_log_G(ctx, x)
            want = counting_oracle(sample, a * x + b) / k
            assert got == want

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(7)
        sample = rng.standard_normal((60, 2))
        ctx = make_ctx(sample, 10, [1.0, 1.0], [0.5, 0.5])
        x = np.array([-0.3, 0.2])
        base = empirical_neg_log_G(ctx, x)
        for j in range(2):
            higher = x.copy()
            higher[j] += 0.5
            assert empirical_neg_log_G(ctx, higher) <= base


class TestRhoHat:
    def test_identity_argument_single_coordinate(self):
        # theta = 1 in a one-dimensional reduction: Frechet argument is 0,
        # threshold is b, and exactly k of n distinct values exceed it
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(size=200) ** (-0.5))
        k = 20
        ctx = make_ctx(x[:, None], k, [1.0], [x[200 - 1 - k]], gamma=[0.5])
        est = rho_hat(ctx, np.array([1.0]))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert not est.floored

    def test_sandwich_union_bounds(self):
        rng = np.random.default_rng(11)
        sample = rng.pareto(1.5, (300, 3)) + 0.5
        ctx = make_ctx(sample, 25, [1.0, 0.8, 1.2], [2.0, 1.5, 2.5],
                       gamma=[0.6, 0.7, 0.65])
        fit = ctx.fit
        theta = np.array([0.5, 0.5, np.sqrt(1 - 0.5)])
        theta /= np.linalg.norm(theta)
        est = rho_hat(ctx, theta)
        x = (theta ** fit.gamma_marginal - 1.0) / fit.gamma_marginal
        thr = fit.a * x + fit.b
        marg = [(sample[:, j] > thr[j]).sum() for j in range(3)]
        assert max(marg) / fit.k <= est.value <= sum(marg) / fit.k

    def test_floor_flag_on_empty_count(self):
        sample = np.full((50, 2), 1.0) + np.random.default_rng(0).uniform(0, 0.1, (50, 2))
        ctx = make_ctx(sample, 5, [1.0, 1.0], [100.0, 100.0], gamma=[0.5, 0.5])
        est = rho_hat(ctx, np.array([np.sqrt(0.5), np.sqrt(0.5)]))
        assert est.floored
        assert est.value == 1.0 / 5

    def test_nonpositive_gamma_rejected(self):
        sample = np.abs(np.random.default_rng(1).standard_normal((30, 2))) + 0.1
        ctx = make_ctx(sample, 5, [1.0, 1.0], [1.0, 1.0], gamma=[0.5, -0.2])
        with pytest.raises(HeavyTailError) as exc:
            rho_hat(ctx, np.array([np.sqrt(0.5), np.sqrt(0.5)]))
        assert "marginal 2 has tail index -0.2 <= 0" in str(exc.value)
        assert "np.float64" not in str(exc.value)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        sample = rng.pareto(2.0, (100, 2)) + 1.0
        theta = np.array([0.6, 0.8])
        fit_kwargs = dict(k=10, a=[1.1, 0.9], b=[2.0, 2.2], gamma=[0.5, 0.5])
        v1 = rho_hat(make_ctx(sample, fit_kwargs["k"], fit_kwargs["a"],
                              fit_kwargs["b"], fit_kwargs["gamma"]), theta)
        v2 = rho_hat(make_ctx(sample[rng.permutation(100)], fit_kwargs["k"],
                              fit_kwargs["a"], fit_kwargs["b"], fit_kwargs["gamma"]),
                     theta)
        assert v1 == v2

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        sample = rng.pareto(2.0, (150, 2)) + 1.0
        ctx = make_ctx(sample, 15, [1.0, 1.0], [1.5, 1.8], gamma=[0.5, 0.45])
        phis = np.linspace(0.1, np.pi / 2 - 0.1, 9)
        thetas = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        values, floored = rho_hat_batch(ctx, thetas)
        for i, theta in enumerate(thetas):
            single = rho_hat(ctx, theta)
            assert values[i] == single.value
            assert floored[i] == single.floored


class TestUnionExceedanceCounts:
    def test_chunked_counts_match_oracle(self, monkeypatch):
        # 50 cells over 20 rows: chunks of two queries, the last one partial
        monkeypatch.setattr(stdf, "_CHUNK_CELLS", 50)
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            sample = rng.standard_normal((20, d))
            thresholds = rng.standard_normal((7, d))
            thresholds[0] = sample[3]  # ties: strict comparison counts none
            counts = stdf.union_exceedance_counts(sample, thresholds)
            assert counts.dtype == np.int64
            assert counts.tolist() == [counting_oracle(sample, t) for t in thresholds]


# Integer cells make ties between rows and thresholds common; the special
# values check strict comparison against infinities and that nan is never
# exceeded (nor exceeds).
_CELL = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])
_ROWS = st.integers(0, 110)


def sorted_counts(sample, thresholds):
    """Union counts from the sorted kernel of the sample's dimension."""
    n, d = sample.shape
    if d == 1:
        return n - stdf._count_at_or_below(sample[:, 0], thresholds[:, 0])[1]
    return n - stdf._dominated_2d(sample, thresholds)


def tied_special_draw(rng, n, q):
    """A 2-D sample and thresholds with heavy ties, +-inf and nan on both
    sides, and every seventh threshold equal to a sample row."""
    sample = np.round(rng.standard_normal((n, 2)) * 4.0) / 4.0
    thresholds = np.round(rng.standard_normal((q, 2)) * 4.0) / 4.0
    for a in (sample, thresholds):
        special = rng.random(a.shape) < 0.05
        a[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
    thresholds[::7] = sample[rng.integers(0, n, thresholds[::7].shape[0])]
    return sample, thresholds


class StripProbe:
    """The queries above their clamp, and their strip rows, per 2-D kernel call."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = stdf._strip_counts

        def spy(x1, order, start, stop, t1):
            self.calls.append((start.size, int((stop - start).sum())))
            return real(x1, order, start, stop, t1)

        monkeypatch.setattr(stdf, "_strip_counts", spy)

    @property
    def above(self):
        return sum(c[0] for c in self.calls)

    @property
    def rows(self):
        return sum(c[1] for c in self.calls)


class TestSortedCounting:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2), _ROWS, st.integers(0, 40), st.data())
    def test_matches_counting_oracle(self, d, n, q, data):
        sample = np.array(data.draw(st.lists(_CELL, min_size=n * d, max_size=n * d)))
        thresholds = np.array(data.draw(st.lists(_CELL, min_size=q * d, max_size=q * d)))
        sample, thresholds = sample.reshape(n, d), thresholds.reshape(q, d)
        counts = sorted_counts(sample, thresholds)
        assert counts.dtype == np.int64
        assert counts.tolist() == [counting_oracle(sample, t) for t in thresholds]

    @pytest.mark.parametrize("d, n, q, sorted_path", [
        (1, 300, 15, False), (1, 300, 16, True),
        (2, 511, 1024, False), (2, 512, 127, False), (2, 512, 128, True),
        (2, 512, 1024, True), (2, 3000, 4000, True), (3, 600, 2000, False),
        # estimate-auto's 64 grid angles over 5000 rows, and flag-large's
        # about 7800 rows in the extremal region over 10 000
        (2, 5000, 64, False), (2, 10_000, 7800, True),
    ])
    def test_chosen_path_matches_comparison(self, d, n, q, sorted_path, monkeypatch):
        compare = stdf._exceedances_by_comparison
        ran = []
        for name in ("_dominated_2d", "_exceedances_by_comparison"):
            real = getattr(stdf, name)
            monkeypatch.setattr(stdf, name, lambda s, t, real=real, name=name:
                                ran.append((name, t)) or real(s, t))
        strips = StripProbe(monkeypatch)
        rng = np.random.default_rng(n + q + d)
        cases = [
            (rng.standard_t(3, (n, d)), rng.standard_t(3, (q, d))),
            (rng.integers(0, 20, (n, d)).astype(float),
             rng.integers(-1, 21, (q, d)).astype(float)),
        ]
        for sample, thresholds in cases:
            thresholds[::7] = sample[rng.integers(0, n, thresholds[::7].shape[0])]
        # non-finite thresholds in one coordinate of the integer case
        cases[1][1][3::11, 0] = np.inf
        cases[1][1][5::13, -1] = np.nan
        if d == 2:
            cases.append((rng.standard_t(3, (n, d)), arc_thresholds(rng, q)))
        for i, (sample, thresholds) in enumerate(cases):
            ran.clear()
            strips.calls.clear()
            got = stdf.union_exceedance_counts(sample, thresholds)
            assert got.dtype == np.int64
            assert np.array_equal(got, compare(sample, thresholds))
            kernels = {name: t.shape[0] for name, t in ran}
            if not sorted_path:
                assert kernels == {"_exceedances_by_comparison": q}
            elif d == 1:
                assert kernels == {}
            else:
                # every query takes the 2-D kernel, inf and nan included
                assert kernels == {"_dominated_2d": q}
                if i == 2:
                    # an arc leaves at most a few queries above their clamp
                    assert strips.above <= q // 500 + 1


def arc_thresholds(rng, q):
    """Thresholds extrapolated from q unit non-negative angles, the axes included."""
    phi = rng.uniform(0.0, np.pi / 2, q)
    thetas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    thetas[:2] = [[1.0, 0.0], [0.0, 1.0]]
    return extrapolate(thetas, rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 2),
                       rng.uniform(0.2, 0.8, 2))


class TestChainCounting:
    """The 2-D kernel: the clamped chain plus the strips above it."""

    @settings(max_examples=300, deadline=None)
    @given(_ROWS, st.integers(0, 40), st.data())
    def test_matches_counting_oracle(self, n, q, data):
        # random queries have wide strips; ties, infinities and nan on both
        # sides included
        sample = np.array(data.draw(st.lists(_CELL, min_size=2 * n, max_size=2 * n)))
        thresholds = np.array(data.draw(st.lists(_CELL, min_size=2 * q, max_size=2 * q)))
        sample, thresholds = sample.reshape(n, 2), thresholds.reshape(q, 2)
        counts = n - stdf._dominated_2d(sample, thresholds)
        assert counts.dtype == np.int64
        assert counts.tolist() == [counting_oracle(sample, t) for t in thresholds]

    def test_strips_in_small_chunks_match_comparison(self, monkeypatch):
        # chunks of at most 7 strip rows, and strips longer than a chunk
        monkeypatch.setattr(stdf, "_CHUNK_CELLS", 7)
        strips = StripProbe(monkeypatch)
        rng = np.random.default_rng(8)
        for n, q in [(1, 5), (40, 40), (700, 301)]:
            for sample, thresholds in [tied_special_draw(rng, n, q),
                                       (rng.standard_t(3, (n, 2)), rng.standard_t(3, (q, 2)))]:
                got = sorted_counts(sample, thresholds)
                assert np.array_equal(got, stdf._exceedances_by_comparison(sample, thresholds))
        assert strips.rows > 100 * strips.above > 0

    def test_ulp_violators_ties_and_special_values(self, monkeypatch):
        # an arc plus copies of its points moved by up to 3 ulps either way
        # in each coordinate, rows equal to thresholds or sharing one
        # coordinate, and nan or +-inf on both sides: the queries that
        # rounded above their clamp, or whose nan or inf second coordinate
        # lies above it, count their strips
        rng = np.random.default_rng(21)
        n, q = 700, 300
        arc = arc_thresholds(rng, 200)
        near = arc[rng.integers(0, 200, q - 200)]
        thresholds = np.concatenate([arc, near + rng.integers(-3, 4, near.shape)
                                     * np.spacing(near)])
        sample = rng.standard_t(3, (n, 2)) + 1.0
        sample[:60] = thresholds[rng.integers(0, q, 60)]
        sample[60:90, 0] = thresholds[rng.integers(0, q, 30), 0]
        sample[90:120, 1] = thresholds[rng.integers(0, q, 30), 1]
        for a in (sample, thresholds):
            special = rng.random(a.shape) < 0.02
            a[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
        strips = StripProbe(monkeypatch)
        got = stdf.union_exceedance_counts(sample, thresholds)
        assert len(strips.calls) == 1 and strips.above >= 10
        assert not np.isfinite(thresholds).all(axis=1).all()
        assert np.array_equal(got, stdf._exceedances_by_comparison(sample, thresholds))
        assert got.tolist() == [counting_oracle(sample, t) for t in thresholds]

    def test_peak_memory_is_linear_in_rows_and_queries(self):
        # n = 1e5 rows and an arc of q = 0.78 n queries, the flag shape. The
        # kernel traced 36 bytes per row and query at its peak with numpy 2.4.
        rng = np.random.default_rng(3)
        n, q = 100_000, 78_000
        sample = rng.standard_t(3, (n, 2))
        thresholds = arc_thresholds(rng, q)
        tracemalloc.start()
        try:
            stdf._dominated_2d(sample, thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (n + q)

    def test_peak_memory_of_wide_strips_is_bounded_by_chunks(self, monkeypatch):
        # random queries: 5.9 M strip rows over n = 3000, gathered in
        # chunks of at most 2 M rows. The kernel traced 36 MB at its peak
        # with numpy 2.4.
        rng = np.random.default_rng(4)
        n, q = 3000, 4000
        sample = rng.standard_t(3, (n, 2))
        thresholds = rng.standard_t(3, (q, 2))
        strips = StripProbe(monkeypatch)
        tracemalloc.start()
        try:
            stdf._dominated_2d(sample, thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strips.rows > 2 * stdf._CHUNK_CELLS
        assert peak < 48_000_000
