import dataclasses

import numpy as np
import pytest

from biobj import suite
from biobj.suite import (
    INSTANCE_PAIRS,
    MANIFEST_HEADER,
    MAX_INSTANCE,
    N_PAIRS,
    ProblemId,
    SUITE_DIMS,
    SuiteConsistencyError,
    _build,
    _derive_instance_pair,
    _pair_is_valid,
    enumerate_suite,
    function_pair,
    group_of,
    instance_map,
    instantiate_problem,
    manifest_lines,
    pair_index,
    pair_name,
    unpair,
)


class TestPairing:
    def test_table_anchors(self):
        assert pair_index(1, 1) == 1
        assert pair_index(1, 10) == 10
        assert pair_index(2, 2) == 11
        assert pair_index(3, 3) == 20
        assert pair_index(10, 10) == 55

    def test_bijection(self):
        seen = set()
        for i in range(1, 11):
            for j in range(i, 11):
                k = pair_index(i, j)
                assert 1 <= k <= 55
                assert unpair(k) == (i, j)
                seen.add(k)
        assert seen == set(range(1, 56))

    def test_rejects_symmetric_duplicate(self):
        with pytest.raises(ValueError):
            pair_index(5, 3)

    def test_unpair_rejects_out_of_range(self):
        for k in (0, 56):
            with pytest.raises(ValueError):
                unpair(k)

    def test_rosenbrock_pair(self):
        assert unpair(28) == (4, 4)
        assert pair_name(28) == "Rosenbrock original/Rosenbrock original"

    def test_function_pair(self):
        assert function_pair(1) == (1, 1)
        assert function_pair(55) == (21, 21)
        assert function_pair(10) == (1, 21)


class TestGroups:
    # membership fixture: class label -> pair indices
    FIXTURE = {
        "separable-separable": [1, 2, 11],
        "separable-moderate": [3, 4, 12, 13],
        "separable-ill-conditioned": [5, 6, 14, 15],
        "separable-multi-modal": [7, 8, 16, 17],
        "separable-weakly-structured": [9, 10, 18, 19],
        "moderate-moderate": [20, 21, 28],
        "moderate-ill-conditioned": [22, 23, 29, 30],
        "moderate-multi-modal": [24, 25, 31, 32],
        "moderate-weakly-structured": [26, 27, 33, 34],
        "ill-conditioned-ill-conditioned": [35, 36, 41],
        "ill-conditioned-multi-modal": [37, 38, 42, 43],
        "ill-conditioned-weakly-structured": [39, 40, 44, 45],
        "multi-modal-multi-modal": [46, 47, 50],
        "multi-modal-weakly-structured": [48, 49, 51, 52],
        "weakly-structured-weakly-structured": [53, 54, 55],
    }

    def test_membership_lists(self):
        for label, members in self.FIXTURE.items():
            for k in members:
                assert group_of(k) == label, k

    def test_partition(self):
        sizes = [len(v) for v in self.FIXTURE.values()]
        assert sizes == [3, 4, 4, 4, 4, 3, 4, 4, 4, 3, 4, 4, 3, 4, 3]
        assert sum(sizes) == 55
        all_members = sorted(k for v in self.FIXTURE.values() for k in v)
        assert all_members == list(range(1, 56))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            group_of(56)


class TestInstanceMap:
    def test_historical_exceptions(self):
        assert instance_map(1) == (2, 4)
        assert instance_map(2) == (3, 5)

    def test_shipped_table(self):
        # frozen values, regenerated by the validity loop when the
        # generator changes
        assert INSTANCE_PAIRS == {
            1: (2, 4),
            2: (3, 5),
            3: (7, 8),
            4: (9, 10),
            5: (11, 12),
            6: (13, 14),
            7: (15, 16),
            8: (17, 18),
            9: (19, 20),
            10: (21, 22),
        }

    def test_instance_8(self):
        assert instance_map(8) == (17, 18)

    def test_instance_9_starts_at_19(self):
        ka, kb = instance_map(9)
        assert ka == 19
        assert kb >= 20

    def test_shipped_table_matches_validity_loop(self):
        # ids 3..10 through the full loop (1 and 2 are the exceptions); on a
        # generator change, the assertion's diff prints the table to ship
        derived = {k: _derive_instance_pair(k) for k in INSTANCE_PAIRS if k > 2}
        assert derived == {k: v for k, v in INSTANCE_PAIRS.items() if k > 2}

    def test_extends_beyond_table(self):
        ka, kb = instance_map(11)
        assert ka == 23
        assert kb >= 24

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            instance_map(0)

    def test_rejects_ids_past_the_bound(self, monkeypatch):
        ProblemId(1, 2, MAX_INSTANCE)
        monkeypatch.setattr(suite, "_pair_is_valid", None)  # the loop must not run
        with pytest.raises(ValueError, match="instance id"):
            instance_map(MAX_INSTANCE + 1)

    def test_derived_pair_cached(self, monkeypatch):
        calls = []

        def counting_build(*args):
            calls.append(args)
            return _build(*args)

        _derive_instance_pair.cache_clear()
        monkeypatch.setattr(suite, "_build", counting_build)
        first = instance_map(11)
        n = len(calls)
        assert n >= N_PAIRS * len(SUITE_DIMS)
        assert instance_map(11) == first
        assert len(calls) == n


class TestEnumeration:
    def test_full_cardinality(self):
        assert len(enumerate_suite()) == 3300

    def test_single_cell(self):
        assert len(enumerate_suite(functions={1}, dims={5})) == 10

    def test_instance_filter(self):
        assert len(enumerate_suite(instances={1}, dims={2, 3})) == 110

    def test_order_dimension_major(self):
        ids = enumerate_suite(functions={1, 2}, dims={2, 3}, instances={1, 2})
        key = [(p.dim, p.pair_index, p.instance) for p in ids]
        assert key == sorted(key)
        assert ids[0].dim == 2 and ids[-1].dim == 3

    def test_empty_result_allowed(self):
        assert enumerate_suite(functions=set(), dims={2}) == []

    def test_problem_count_capped(self, monkeypatch):
        monkeypatch.setattr(suite, "MAX_PROBLEMS", 110)
        assert len(enumerate_suite(instances={1}, dims={2, 3})) == 110
        with pytest.raises(ValueError, match="more than 110 problems"):
            enumerate_suite(instances={1, 2}, dims={2, 3})

    def test_invalid_filters_rejected(self):
        with pytest.raises(ValueError):
            enumerate_suite(dims={4})
        with pytest.raises(ValueError):
            enumerate_suite(functions={56})


class TestProblems:
    def test_sphere_sphere_nadir_closed_form(self):
        p = instantiate_problem(1, 5, 1)
        delta = p.beta.x_opt - p.alpha.x_opt
        gap = float(delta @ delta)
        assert p.ideal == (p.alpha.f_opt, p.beta.f_opt)
        assert p.nadir[0] == pytest.approx(p.alpha.f_opt + gap, abs=1e-10)
        assert p.nadir[1] == pytest.approx(p.beta.f_opt + gap, abs=1e-10)

    def test_extreme_points_map_to_nadir_components(self):
        p = instantiate_problem(13, 3, 2)
        (fa, fa_beta_opt), (fb_alpha_opt, fb) = p.evaluate(
            np.stack([p.alpha.x_opt, p.beta.x_opt])
        )
        assert fa == p.ideal[0]
        assert fb_alpha_opt == p.nadir[1]
        assert fa_beta_opt == p.nadir[0]
        assert fb == p.ideal[1]

    def test_evaluate_is_composition(self):
        from biobj.base_functions import evaluate_base

        p = instantiate_problem(23, 5, 4)
        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 5, (5, 5))
        fa, fb = p.evaluate(X)
        assert fa.shape == fb.shape == (5,)
        assert np.array_equal(fa, evaluate_base(p.alpha, X))
        assert np.array_equal(fb, evaluate_base(p.beta, X))

    def test_problem_is_frozen(self):
        p = instantiate_problem(1, 2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.ideal = (0.0, 0.0)

    def test_gallagher_pair_uses_distinct_instances(self):
        p = instantiate_problem(55, 2, 3)
        assert p.alpha.fn == 21 and p.beta.fn == 21
        assert p.alpha.instance_id != p.beta.instance_id

    def test_objectives_never_below_ideal(self):
        rng = np.random.default_rng(5)
        for k in (1, 18, 35, 55):
            p = instantiate_problem(k, 3, 2)
            fa, fb = p.evaluate(rng.uniform(-30, 30, (500, 3)))
            assert np.all(fa >= p.ideal[0] - 1e-8)
            assert np.all(fb >= p.ideal[1] - 1e-8)

    def test_conditions_hold_on_sample(self):
        for k in (1, 28, 53, 55):
            for dim in SUITE_DIMS:
                for inst in (1, 2, 7):
                    p = instantiate_problem(k, dim, inst)
                    sep = np.linalg.norm(p.alpha.x_opt - p.beta.x_opt)
                    assert sep >= 1e-4
                    gap = np.hypot(
                        p.nadir[0] - p.ideal[0], p.nadir[1] - p.ideal[1]
                    )
                    assert gap >= 1e-1
                    assert p.ideal[0] < p.nadir[0] and p.ideal[1] < p.nadir[1]

    def test_non_standard_dim_gate(self):
        with pytest.raises(ValueError):
            instantiate_problem(1, 4, 1)

    @pytest.mark.parametrize(
        "fields, error",
        [((0, 2, 1), "pair index"), ((56, 2, 1), "pair index"),
         ((1, 4, 1), "dimension 4"), ((1, 1, 1), "dimension 1"),
         ((1, 2, 0), "instance id"), ((1, 2, MAX_INSTANCE + 1), "instance id")],
    )
    def test_problem_id_checks_itself(self, fields, error):
        with pytest.raises(ValueError, match=error):
            ProblemId(*fields)

    def test_coincident_optima_rejected(self):
        # sphere/sphere with one instance id for both objectives
        with pytest.raises(SuiteConsistencyError, match="optima too close"):
            _build(1, 2, 7, 7)
        assert not _pair_is_valid(7, 7)

    def test_validity_loop_requires_strict_dominance(self, monkeypatch):
        # A nadir one unit below the ideal is far from it but not dominated.
        monkeypatch.setattr(
            suite, "evaluate_base", lambda inst, X: np.full(len(X), inst.f_opt - 1.0)
        )
        with pytest.raises(SuiteConsistencyError, match="strictly dominate"):
            instantiate_problem(1, 2, 1)
        assert not _pair_is_valid(2, 4)


class TestManifest:
    def test_deterministic(self):
        ids = enumerate_suite(functions={1, 30, 55}, dims={2, 10}, instances={1, 6})
        assert manifest_lines(ids) == manifest_lines(ids)

    def test_shape(self):
        ids = enumerate_suite(functions={2}, dims={3}, instances={1})
        lines = manifest_lines(ids)
        assert lines[0] == MANIFEST_HEADER
        fields = lines[1].split()
        assert fields[:5] == ["2", "3", "1", "2", "4"]
        assert fields[-1] == "separable-separable"
