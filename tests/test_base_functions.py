import math

import numpy as np
import pytest

from biobj.base_functions import (
    BASE_FUNCTION_IDS,
    BASE_FUNCTION_NAMES,
    UnknownFunctionError,
    evaluate_base,
    instantiate_base,
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

    @pytest.mark.parametrize("dim", [2, 40])
    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_cached_arrays_are_read_only(self, fn, dim):
        # instantiate_base shares one instance with every caller.
        inst = instantiate_base(fn, 1, dim)
        arrays = [inst.x_opt]
        arrays += [v for v in inst.aux.values() if isinstance(v, np.ndarray)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0

    #: The aux entries with one value per coordinate.
    PER_COORDINATE = {2: {"weights"}, 14: {"exponents"}, 20: {"lam", "x_opt_sign"}}

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_vectors_are_one_dimensional(self, fn):
        # Each instance fact is stored once, as a (D,) vector: no (1, D) row.
        for dim in SUITE_DIMS:
            inst = instantiate_base(fn, 1, dim)
            assert inst.x_opt.shape == (dim,)
            for key in self.PER_COORDINATE.get(fn, ()):
                assert inst.aux[key].shape == (dim,), (key, dim)
            for key, value in inst.aux.items():
                assert np.shape(value) != (1, dim), (key, dim)
            if fn == 20:  # x_opt's magnitude is a constant, not an aux vector
                assert inst.aux.keys() == self.PER_COORDINATE[20]

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_cached_aux_mapping_is_read_only(self, fn):
        # Rebinding a key of the shared instance's aux once changed the nadir
        # of every later problem built on it.
        aux = instantiate_base(fn, 1, 5).aux
        for key in aux:
            with pytest.raises(TypeError):
                aux[key] = aux[key] * 2
            with pytest.raises(TypeError):
                del aux[key]
        with pytest.raises(TypeError):
            aux["new"] = 1.0

    def test_gallagher_aux(self):
        inst = instantiate_base(21, 2, 5)
        # (D, 101): one column per peak
        assert inst.aux["centers"].shape == (5, 101)
        assert inst.aux["heights"][0] == 10.0
        assert np.max(inst.aux["heights"]) == 10.0
        assert np.all(inst.aux["heights"][1:] >= 1.1)
        assert np.all(inst.aux["heights"][1:] <= 9.1)
        assert np.all(np.abs(inst.aux["centers"]) <= 4.9)
        # global peak center is the optimum
        assert np.array_equal(inst.aux["centers"][:, 0], inst.x_opt)
        # per-peak conditioning ratios: global sqrt(1000), schedule max 1000
        coeffs = inst.aux["coeffs"]
        assert coeffs.shape == (5, 101)
        ratios = coeffs[-1] / coeffs[0]
        assert ratios[0] == pytest.approx(math.sqrt(1000.0), rel=1e-12)
        assert np.max(ratios[1:]) == pytest.approx(1000.0, rel=1e-12)


class TestEvaluation:
    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    @pytest.mark.parametrize("dim", SUITE_DIMS)
    def test_optimum_consistency(self, fn, dim):
        for k in range(1, 23):
            inst = instantiate_base(fn, k, dim)
            assert abs(evaluate_base(inst, inst.x_opt[None])[0] - inst.f_opt) <= 1e-8

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_local_minimality(self, fn):
        rng = np.random.default_rng(fn)
        for dim in (2, 5):
            inst = instantiate_base(fn, 3, dim)
            for _ in range(100):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                for h in (1e-3, 1e-2):
                    value = evaluate_base(inst, (inst.x_opt + h * u)[None])[0]
                    assert value >= inst.f_opt - 1e-9

    def test_sphere_translation_structure(self):
        rng = np.random.default_rng(9)
        for k in (1, 4, 17):
            inst = instantiate_base(1, k, 6)
            for _ in range(20):
                x = rng.uniform(-5, 5, 6)
                expected = float(np.sum((x - inst.x_opt) ** 2))
                value = evaluate_base(inst, x[None])[0]
                assert abs(value - inst.f_opt - expected) < 1e-10

    def test_sphere_unit_offset(self):
        inst = instantiate_base(1, 2, 5)
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert evaluate_base(inst, (inst.x_opt + e1)[None])[0] == pytest.approx(
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
        for shape in ((1, 4), (5,), (1, 1, 5)):
            with pytest.raises(ValueError):
                evaluate_base(inst, np.zeros(shape))

    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_finite_on_random_points(self, fn):
        rng = np.random.default_rng(100 + fn)
        inst = instantiate_base(fn, 1, 5)
        for _ in range(50):
            x = rng.uniform(-20, 20, 5)
            value = evaluate_base(inst, x[None])[0]
            assert np.isfinite(value)
            assert value >= inst.f_opt - 1e-8


class TestProperties:
    def test_names(self):
        assert BASE_FUNCTION_NAMES[1] == "Sphere"
        assert BASE_FUNCTION_NAMES[21] == "Gallagher 101 peaks"


def _box_rows(inst, r):
    """Rows of [-r, r]^D where values grow fastest: the all-r corner, an
    alternating corner, each axis point, and for each (D, D) matrix in
    ``aux`` the corners that maximize one of its output coordinates; then
    all their negatives and 16 uniform rows."""
    d = inst.dim
    rows = [np.ones(d), np.resize([1.0, -1.0], d), *np.eye(d)]
    for m in inst.aux.values():
        if isinstance(m, np.ndarray) and m.shape == (d, d):
            rows += list(np.sign(m))
    X = np.array(rows)
    rng = np.random.default_rng([inst.fn, inst.instance_id, d])
    return r * np.vstack([X, -X, rng.uniform(-1.0, 1.0, (16, d))])


class TestMargin:
    """The archive evolver's constant step keeps its rows within |x_i| <= 20
    (tests/test_batch.py); every value stays finite far past that."""

    @pytest.mark.parametrize("dim", SUITE_DIMS)
    @pytest.mark.parametrize("fn", BASE_FUNCTION_IDS)
    def test_finite_within_1e3(self, fn, dim):
        for instance in range(1, 16):
            inst = instantiate_base(fn, instance, dim)
            with np.errstate(all="raise", under="ignore"):
                assert np.isfinite(evaluate_base(inst, _box_rows(inst, 1e3))).all()

    @pytest.mark.parametrize("fn, dims", [(15, (40,)), (17, SUITE_DIMS)])
    def test_overflows_at_1e4(self, fn, dims):
        for dim in dims:
            inst = instantiate_base(fn, 1, dim)
            with np.errstate(all="ignore"):
                assert not np.isfinite(evaluate_base(inst, _box_rows(inst, 1e4))).all()
