import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biobj.transforms import (
    boundary_penalty,
    derive_seed,
    diagonal_scaling,
    gaussian_stream,
    random_rotation,
    t_asy,
    t_osz,
    uniform_stream,
)


class TestUniformStream:
    def test_zero_length(self):
        assert uniform_stream(42, 0).shape == (0,)

    def test_deterministic(self):
        a = uniform_stream(123, 5)
        b = uniform_stream(123, 5)
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        assert np.array_equal(uniform_stream(9, 100)[:10], uniform_stream(9, 10))

    def test_range(self):
        u = uniform_stream(7, 10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_moments(self):
        u = uniform_stream(2024, 10**5)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_stream(1, -1)

    def test_seeds_decorrelated(self):
        a = uniform_stream(1, 1000)
        b = uniform_stream(2, 1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestGaussianStream:
    def test_zero_length(self):
        assert gaussian_stream(42, 0).shape == (0,)

    def test_deterministic(self):
        assert np.array_equal(gaussian_stream(5, 99), gaussian_stream(5, 99))

    def test_moments(self):
        g = gaussian_stream(77, 10**5)
        assert abs(g.mean()) < 0.02
        assert abs(g.var() - 1.0) < 0.05

    def test_odd_count(self):
        assert gaussian_stream(3, 7).shape == (7,)


class TestRandomRotation:
    def test_dim_one(self):
        r = random_rotation(11, 1)
        assert r.shape == (1, 1)
        assert abs(abs(r[0, 0]) - 1.0) < 1e-12

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            random_rotation(11, 0)

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_orthogonality_and_isometry_over_seeds(self, dim):
        rng = np.random.default_rng(dim)
        for seed in range(100):
            r = random_rotation(seed, dim)
            assert np.max(np.abs(r @ r.T - np.eye(dim))) < 1e-10
            assert abs(abs(np.linalg.det(r)) - 1.0) < 1e-9
            x = rng.standard_normal(dim)
            assert abs(np.linalg.norm(r @ x) - np.linalg.norm(x)) < 1e-10

    def test_deterministic(self):
        assert np.array_equal(random_rotation(8, 10), random_rotation(8, 10))


class TestDiagonalScaling:
    def test_alpha_one(self):
        assert np.array_equal(diagonal_scaling(1.0, 6), np.ones(6))

    def test_dim_one(self):
        # the suite starts at D = 2; (i-1)/(D-1) is undefined for D = 1
        with pytest.raises(ValueError):
            diagonal_scaling(1e6, 1)

    def test_condition_ratio(self):
        for alpha in (10.0, 1e6):
            d = diagonal_scaling(alpha, 9)
            assert (d[-1] / d[0]) ** 2 == pytest.approx(alpha, rel=1e-12)


def _t_osz_scalar_reference(x: float) -> float:
    # independent scalar re-implementation (math module only)
    if x == 0.0:
        return 0.0
    xh = math.log(abs(x))
    c1, c2 = (10.0, 7.9) if x > 0 else (5.5, 3.1)
    return math.copysign(
        math.exp(xh + 0.049 * (math.sin(c1 * xh) + math.sin(c2 * xh))), x
    )


class TestOscillation:
    def test_fixes_zero(self):
        assert t_osz(0.0) == 0.0
        assert np.array_equal(t_osz([0.0, 0.0]), [0.0, 0.0])

    def test_sign_preserving(self):
        x = np.random.default_rng(0).uniform(-10, 10, 500)
        assert np.array_equal(np.sign(t_osz(x)), np.sign(x))

    def test_against_independent_scalar_implementation(self):
        points = [2.0, -2.0, 0.5, -0.031, 17.3, 1.0, -1.0]
        for p in points:
            assert t_osz(p) == pytest.approx(_t_osz_scalar_reference(p), abs=1e-15)

    def test_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b = sorted(rng.uniform(-20, 20, 2))
            assert t_osz(a) <= t_osz(b)


# Ragged float vectors mixing zeros with tiny, unit and huge magnitudes.
_osz_inputs = hnp.arrays(
    np.float64,
    st.integers(0, 12),
    elements=st.one_of(
        st.just(0.0),
        st.floats(-1e-300, 1e-300),
        st.floats(-20.0, 20.0),
        st.floats(-1e300, 1e300),
    ),
)


class TestOscillationProperties:
    @settings(max_examples=300, deadline=None)
    @given(_osz_inputs)
    def test_vector_equals_scalar_elementwise(self, x):
        out = t_osz(x)
        assert out.shape == x.shape
        for i in range(len(x)):
            assert out[i] == t_osz(float(x[i]))

    @settings(max_examples=300, deadline=None)
    @given(_osz_inputs)
    def test_sign_preserving(self, x):
        assert np.array_equal(np.sign(t_osz(x)), np.sign(x))

    @settings(max_examples=300, deadline=None)
    @given(_osz_inputs)
    def test_monotone(self, x):
        # Monotone up to rounding: the sines can swap images of inputs a
        # few ulps apart by a few ulps, so allow a relative 1e-12 step back.
        y = t_osz(np.sort(x))
        assert np.all(np.diff(y) >= -1e-12 * np.abs(y[1:]))


class TestAsymmetry:
    def test_beta_zero_identity(self):
        x = np.random.default_rng(1).uniform(-3, 3, 12)
        assert np.allclose(t_asy(x, 0.0), x, atol=1e-15)

    def test_negative_coordinates_unchanged(self):
        x = np.array([-1.5, 2.0, -0.1, 3.0])
        for beta in (0.2, 0.5, 1.0):
            out = t_asy(x, beta)
            assert np.array_equal(out[x <= 0], x[x <= 0])

    def test_fixed_point_at_one(self):
        assert np.allclose(t_asy(np.ones(3), 0.5), np.ones(3))

    def test_dim_one_is_identity(self):
        # the suite starts at D = 2; (i-1)/(D-1) is undefined for D = 1
        with pytest.raises(ValueError):
            t_asy(np.array([2.5]), 0.9)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            t_asy(np.ones(2), -0.1)


class TestBoundaryPenalty:
    def test_zero_inside_box(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert boundary_penalty(rng.uniform(-5, 5, 6)) == 0.0

    def test_unit_excess(self):
        assert boundary_penalty([6.0, 0.0, 0.0]) == 1.0

    def test_sum_of_squared_excesses(self):
        assert boundary_penalty([-7.0, 6.0]) == 5.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-9, 9, 5)
            # stay away from the hinge |x_i| = 5
            x[np.abs(np.abs(x) - 5.0) < 0.1] += 0.3
            grad = 2.0 * np.sign(x) * np.maximum(0.0, np.abs(x) - 5.0)
            h = 1e-6
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (boundary_penalty(x + e) - boundary_penalty(x - e)) / (2 * h)
                scale = max(1.0, abs(grad[i]))
                assert abs(fd - grad[i]) / scale < 1e-6


class TestSeedDerivation:
    def test_deterministic_and_sensitive(self):
        assert derive_seed(1, 2, 3, 4) == derive_seed(1, 2, 3, 4)
        assert derive_seed(1, 2, 3, 4) != derive_seed(1, 2, 3, 5)
        assert derive_seed(1, 2, 3, 4) != derive_seed(2, 1, 3, 4)
