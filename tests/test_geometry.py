import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirquant import (
    DataError,
    Direction,
    FactorizationError,
    InvalidDirectionError,
    RotationMatrix,
    diagonal_direction,
    qr_positive_diag,
    rotate,
    rotation_for,
)

from oracles import orthant_leq

SQ2 = np.sqrt(2.0) / 2.0


def random_direction(rng, d, min_comp=0.05):
    while True:
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if np.abs(v).min() >= min_comp:
            return Direction(v)


class TestDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidDirectionError):
            Direction(np.array([1.0, 1.0]))

    def test_rejects_null_component(self):
        with pytest.raises(InvalidDirectionError) as exc:
            Direction(np.array([1.0, 0.0]))
        assert str(exc.value) == ("direction component 2 is below the non-null "
                                  "threshold 1e-08 (value 0.0)")

    def test_rejects_scalar(self):
        with pytest.raises(InvalidDirectionError):
            Direction(np.array([1.0]))

    def test_from_vector_normalizes(self):
        u = Direction.from_vector([3.0, 4.0])
        assert np.allclose(u.components, [0.6, 0.8])

    @pytest.mark.parametrize("v, message", [
        ([np.nan, 1.0], "component 1 is not finite (value nan)"),
        ([1.0, np.inf, 1.0], "component 2 is not finite (value inf)"),
        ([1.0, 1.0, -np.inf], "component 3 is not finite (value -inf)"),
    ])
    def test_rejects_non_finite_component(self, v, message):
        # from_vector checks before normalizing, which would turn every
        # component nan and blame component 0
        for build in (Direction, Direction.from_vector):
            with pytest.raises(InvalidDirectionError) as exc:
                build(np.array(v))
            assert str(exc.value) == "direction " + message


class TestQrPositiveDiag:
    def test_identity(self):
        q, t = qr_positive_diag(np.eye(3))
        assert np.array_equal(q, np.eye(3))
        assert np.array_equal(t, np.eye(3))

    def test_hand_gram_schmidt_2d(self):
        # columns [e, e2] with e = (1/sqrt2, 1/sqrt2):
        # q1 = e, q2 = normalize(e2 - (e.e2) e) = (-1/sqrt2, 1/sqrt2)
        m = np.array([[SQ2, 0.0], [SQ2, 1.0]])
        q, t = qr_positive_diag(m)
        expected = np.array([[SQ2, -SQ2], [SQ2, SQ2]])
        assert np.abs(q - expected).max() < 1e-12
        assert (np.diag(t) > 0).all()

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 7):
            m = rng.standard_normal((d, d))
            q, t = qr_positive_diag(m)
            assert np.abs(q @ t - m).max() < 1e-10
            assert np.abs(q @ q.T - np.eye(d)).max() < 1e-10
            assert (np.diag(t) > 0).all()
            assert np.abs(np.tril(t, -1)).max() == 0.0

    def test_singular_raises_and_names_matrix(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(FactorizationError, match=r"\[1.0, 2.0\]"):
            qr_positive_diag(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            qr_positive_diag(np.ones((2, 3)))

    def test_messages_print_plain_floats(self):
        # the same text under numpy 1 and numpy 2, which prints np.float64(...)
        with pytest.raises(FactorizationError, match=r"\(rcond=[0-9.e-]+\): "):
            qr_positive_diag(np.array([[1.0, 2.0], [2.0, 4.0]]))
        u = Direction.from_vector([0.6, 0.8])
        with pytest.raises(FactorizationError, match=r"max deviation 3\.0$"):
            RotationMatrix(np.diag([2.0, 1.0]), u)
        with pytest.raises(FactorizationError, match=r"map u to e: deviation 0\.1[0-9]*$"):
            RotationMatrix(np.eye(2), u)


class TestRotationFor:
    def test_e_gives_exact_identity(self):
        for d in range(2, 7):
            r = rotation_for(diagonal_direction(d))
            assert np.array_equal(r.entries, np.eye(d))

    def test_minus_e_2d_is_minus_identity(self):
        r = rotation_for(diagonal_direction(2, negative=True))
        assert np.abs(r.entries + np.eye(2)).max() < 1e-12
        e = np.ones(2) / np.sqrt(2)
        assert np.abs(r.entries @ (-e) - e).max() < 1e-12

    def test_maps_u_to_e(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            for _ in range(50):
                u = random_direction(rng, d, min_comp=0.1)
                r = rotation_for(u)
                e = np.ones(d) / np.sqrt(d)
                assert np.abs(r.entries @ u.components - e).max() < 1e-10
                assert np.abs(r.entries @ r.entries.T - np.eye(d)).max() < 1e-10

    def test_deterministic_bitwise(self):
        u = Direction.from_vector([0.3, -0.2, 0.93])
        r1 = rotation_for(u)
        r2 = rotation_for(Direction.from_vector([0.3, -0.2, 0.93]))
        assert np.array_equal(r1.entries, r2.entries)

    def test_invalid_direction_raises(self):
        with pytest.raises(InvalidDirectionError):
            rotation_for(Direction(np.array([1.0, 1e-12])))


class TestRotate:
    def test_identity_passthrough(self):
        r = rotation_for(diagonal_direction(3))
        pts = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        assert np.array_equal(rotate(r, pts), pts)

    def test_sign_flip(self):
        r = rotation_for(diagonal_direction(2, negative=True))
        out = rotate(r, np.array([1.0, 2.0]))
        assert np.abs(out - np.array([-1.0, -2.0])).max() < 1e-12

    def test_transpose_roundtrip(self):
        rng = np.random.default_rng(3)
        u = random_direction(rng, 4)
        r = rotation_for(u)
        pts = rng.standard_normal((20, 4))
        back = rotate(r.entries.T, rotate(r, pts))
        assert np.abs(back - pts).max() < 1e-12

    def test_dimension_mismatch(self):
        r = rotation_for(diagonal_direction(2))
        with pytest.raises(ValueError):
            rotate(r, np.ones(3))

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           point=st.booleans(), identity=st.booleans(),
           non_finite=st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_refuses_exactly_the_overflowed_cells(self, d, n, seed, point, identity,
                                                  non_finite):
        # rows scaled toward the float maximum, whose rotated sums may overflow;
        # a row given a non-finite cell passes through as the product makes it
        rng = np.random.default_rng(seed)
        u = diagonal_direction(d) if identity else random_direction(rng, d)
        r = rotation_for(u)
        scale = np.finfo(float).max * 10.0 ** -rng.uniform(0.0, 0.5, (n, 1))
        pts = rng.uniform(0.5, 1.0, (n, d)) * rng.choice([-1.0, 1.0], (n, d)) * scale
        if non_finite is not None:
            pts[rng.integers(n), rng.integers(d)] = non_finite
        if point:
            pts = pts[0]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = pts.copy() if identity else pts @ r.entries.T
        rows = np.atleast_2d(expected)
        bad = np.argwhere(~np.isfinite(rows)
                          & np.isfinite(np.atleast_2d(pts)).all(axis=1, keepdims=True))
        if bad.size:
            i, j = bad[0]
            with pytest.raises(DataError) as info:
                rotate(r, pts)
            assert str(info.value) == (
                f"rotated sample cell at row {i + 1}, column {j + 1} overflowed to "
                f"{float(rows[i, j])!r}; rescale the sample")
        else:
            out = rotate(r, pts)
            assert out.shape == pts.shape
            assert np.array_equal(out, expected, equal_nan=True)

    def test_point_counts_as_row_one(self):
        r = rotation_for(Direction.from_vector([0.3, 1.0]))
        with pytest.raises(DataError) as info:
            rotate(r, np.array([1.7e308, 1.7e308]))
        assert str(info.value) == ("rotated sample cell at row 1, column 1 overflowed "
                                   "to inf; rescale the sample")


class TestOrthantOrder:
    def test_e_direction_examples(self):
        e = diagonal_direction(2)
        assert orthant_leq([0.0, 0.0], [1.0, 1.0], e)
        assert not orthant_leq([0.0, 1.0], [1.0, 0.0], e)
        assert not orthant_leq([1.0, 0.0], [0.0, 1.0], e)

    def test_minus_e_reverses(self):
        me = diagonal_direction(2, negative=True)
        assert orthant_leq([0.0, 0.0], [-1.0, -1.0], me)

    def test_reflexive_antisymmetric_transitive(self):
        rng = np.random.default_rng(5)
        u = random_direction(rng, 3)
        r = rotation_for(u)
        for _ in range(100):
            x = rng.standard_normal(3)
            assert orthant_leq(x, x, r)
            # generate a comparable chain x <= y <= z in rotated coordinates
            gx = rotate(r.entries.T, rotate(r, x) + rng.uniform(0, 1, 3))
            gz = rotate(r.entries.T, rotate(r, gx) + rng.uniform(0, 1, 3))
            assert orthant_leq(x, gx, r) and orthant_leq(gx, gz, r)
            assert orthant_leq(x, gz, r)
            assert not orthant_leq(gx, x, r)

    def test_vertex_boundary_included(self):
        u = diagonal_direction(2)
        z = np.array([0.3, -0.7])
        assert orthant_leq(z, z, u)

    def test_orthant_example(self):
        assert orthant_leq([0.0, 0.0], [2.0, 3.0], diagonal_direction(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_rotation_property_randomized(d, seed):
    rng = np.random.default_rng(seed)
    u = random_direction(rng, d, min_comp=0.02)
    r = rotation_for(u)
    e = np.ones(d) / np.sqrt(d)
    assert np.abs(r.entries @ u.components - e).max() < 1e-10
    assert np.abs(r.entries @ r.entries.T - np.eye(d)).max() < 1e-10
