import math

import numpy as np
import pytest

from biobj.base_functions import (
    BASE_FUNCTION_IDS,
    BASE_FUNCTION_NAMES,
    UnknownFunctionError,
    evaluate_base,
    instantiate_base,
    properties_of,
)

SUITE_DIMS = (2, 3, 5, 10, 20, 40)


class TestInstantiation:
    def test_rejects_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            instantiate_base(3, 1, 5)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            instantiate_base(1, 1, 0)

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_rejects_dim_one(self, fn):
        # the suite starts at D = 2
        with pytest.raises(ValueError):
            instantiate_base(fn, 1, 1)

    def test_deterministic(self):
        a = instantiate_base(15, 4, 7)
        b = instantiate_base.__wrapped__(15, 4, 7)  # bypass the cache
        assert np.array_equal(a.x_opt, b.x_opt)
        assert a.f_opt == b.f_opt
        assert a.aux.keys() == b.aux.keys() == {"rot", "outer"}
        for key in a.aux:
            assert np.array_equal(a.aux[key], b.aux[key])

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_x_opt_in_inner_box(self, fn):
        for dim in SUITE_DIMS:
            for k in (1, 5, 22):
                inst = instantiate_base(fn, k, dim)
                assert np.all(np.abs(inst.x_opt) <= 4.0)

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_f_opt_bounded(self, fn):
        for k in range(1, 23):
            assert abs(instantiate_base(fn, k, 3).f_opt) <= 1000.0

    def test_instance_distinctness(self):
        # The Schwefel-type function (fn 20) places optima on a finite sign
        # lattice: only 2^D patterns exist, so distinctness across 22
        # instances cannot hold in low dimension and is excluded here.
        for fn in BASE_FUNCTION_IDS:
            if fn == 20:
                continue
            for dim in (2, 5):
                opts = [instantiate_base(fn, k, dim).x_opt for k in range(1, 23)]
                for i in range(len(opts)):
                    for j in range(i + 1, len(opts)):
                        assert not np.array_equal(opts[i], opts[j]), (fn, dim, i, j)

    def test_schwefel_sign_patterns_distinct_for_paired_ids(self):
        # paired single-objective ids (consecutive, or the fixed (2,4)/(3,5))
        # must give distinct sign patterns even at D=2
        for dim in (2, 3):
            for ka, kb in [(2, 4), (3, 5)] + [(2 * k + 1, 2 * k + 2) for k in range(3, 11)]:
                a = instantiate_base(20, ka, dim).x_opt
                b = instantiate_base(20, kb, dim).x_opt
                assert not np.array_equal(a, b)

    def test_gallagher_aux(self):
        inst = instantiate_base(21, 2, 5)
        assert inst.aux["centers"].shape == (101, 5)
        assert inst.aux["heights"][0] == 10.0
        assert np.max(inst.aux["heights"]) == 10.0
        assert np.all(inst.aux["heights"][1:] >= 1.1)
        assert np.all(inst.aux["heights"][1:] <= 9.1)
        assert np.all(np.abs(inst.aux["centers"]) <= 4.9)
        # global peak center is the optimum
        assert np.array_equal(inst.aux["centers"][0], inst.x_opt)
        # per-peak conditioning ratios: global sqrt(1000), schedule max 1000
        coeffs = inst.aux["coeffs"]
        ratios = coeffs[:, -1] / coeffs[:, 0]
        assert ratios[0] == pytest.approx(math.sqrt(1000.0), rel=1e-12)
        assert np.max(ratios[1:]) == pytest.approx(1000.0, rel=1e-12)


class TestEvaluation:
    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    @pytest.mark.parametrize("dim", SUITE_DIMS)
    def test_optimum_consistency(self, fn, dim):
        for k in range(1, 23):
            inst = instantiate_base(fn, k, dim)
            assert abs(evaluate_base(inst, inst.x_opt) - inst.f_opt) <= 1e-8

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_local_minimality(self, fn):
        rng = np.random.default_rng(fn)
        for dim in (2, 5):
            inst = instantiate_base(fn, 3, dim)
            for _ in range(100):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                for h in (1e-3, 1e-2):
                    value = evaluate_base(inst, inst.x_opt + h * u)
                    assert value >= inst.f_opt - 1e-9

    def test_sphere_translation_structure(self):
        rng = np.random.default_rng(9)
        for k in (1, 4, 17):
            inst = instantiate_base(1, k, 6)
            for _ in range(20):
                x = rng.uniform(-5, 5, 6)
                expected = float(np.sum((x - inst.x_opt) ** 2))
                assert abs(evaluate_base(inst, x) - inst.f_opt - expected) < 1e-10

    def test_sphere_unit_offset(self):
        inst = instantiate_base(1, 2, 5)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert evaluate_base(inst, inst.x_opt + e1) == pytest.approx(
            inst.f_opt + 1.0, abs=1e-12
        )

    def test_ellipsoid_condition_number(self):
        # coefficient ratio between first and last coordinate is 10^6
        inst = instantiate_base(2, 1, 2)
        assert inst.aux["weights"][-1] / inst.aux["weights"][0] == pytest.approx(1e6)

    def test_rastrigin_core_at_zero(self):
        d = 4
        z = np.zeros(d)
        assert 10.0 * (d - np.sum(np.cos(2 * np.pi * z))) + z @ z == 0.0

    def test_dimension_mismatch_rejected(self):
        inst = instantiate_base(1, 1, 5)
        with pytest.raises(ValueError):
            evaluate_base(inst, np.zeros(4))

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_finite_on_random_points(self, fn):
        rng = np.random.default_rng(100 + fn)
        inst = instantiate_base(fn, 1, 5)
        for _ in range(50):
            x = rng.uniform(-20, 20, 5)
            value = evaluate_base(inst, x)
            assert np.isfinite(value)
            assert value >= inst.f_opt - 1e-8


class TestProperties:
    def test_fixture_table(self):
        # transcribed landscape metadata: (separable, partially_separable,
        # unimodal, conditioning, asymmetric, n_local_optima_scale)
        fixture = {
            1: (True, True, True, 1.0, False, "1"),
            2: (True, True, True, 1e6, False, "1"),
            6: (False, False, True, 10.0, True, "1"),
            8: (False, True, False, 100.0, False, "2"),
            13: (False, False, True, 100.0, False, "1"),
            14: (False, False, True, math.inf, False, "1"),
            15: (False, False, False, 10.0, True, "~10^D"),
            17: (False, False, False, 10.0, True, "~10^D"),
            20: (False, True, False, 10.0, False, "2^D"),
            21: (False, False, False, 30.0, False, "101"),
        }
        for fn, row in fixture.items():
            p = properties_of(fn)
            assert (
                p.separable,
                p.partially_separable,
                p.unimodal,
                p.conditioning,
                p.asymmetric,
                p.n_local_optima_scale,
            ) == row

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownFunctionError):
            properties_of(24)

    def test_names(self):
        assert BASE_FUNCTION_NAMES[1] == "Sphere"
        assert BASE_FUNCTION_NAMES[21] == "Gallagher 101 peaks"
