import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj.indicator import Archive, dominates, hypervolume, normalize


class TestDominates:
    def test_strict_in_one_coordinate(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert dominates((0.0, 3.0), (1.0, 3.0))
        assert dominates((0.0, 2.0), (1.0, 3.0))

    def test_irreflexive(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_strict_partial_order_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(10**4):
            u, v, w = (tuple(p) for p in rng.uniform(0, 1, (3, 2)))
            assert not dominates(u, u)
            if dominates(u, v) and dominates(v, w):
                assert dominates(u, w)
            assert not (dominates(u, v) and dominates(v, u))


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        ideal, nadir = (2.0, -1.0), (4.0, 3.0)
        assert normalize(ideal, ideal, nadir) == (0.0, 0.0)
        assert normalize(nadir, ideal, nadir) == (1.0, 1.0)
        assert normalize((3.0, 1.0), ideal, nadir) == (0.5, 0.5)

    def test_values_outside_unit_box_permitted(self):
        a, b = normalize((10.0, -5.0), (0.0, 0.0), (1.0, 1.0))
        assert a == 10.0 and b == -5.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normalize((0.0, 0.0), (1.0, 1.0), (1.0, 2.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ideal = rng.uniform(-5, 5, 2)
            nadir = ideal + rng.uniform(0.1, 10, 2)
            y = rng.uniform(-10, 10, 2)
            scale = rng.uniform(0.01, 100, 2)
            shift = rng.uniform(-100, 100, 2)
            base = normalize(tuple(y), tuple(ideal), tuple(nadir))
            scaled = normalize(
                tuple(scale * y + shift),
                tuple(scale * ideal + shift),
                tuple(scale * nadir + shift),
            )
            assert base[0] == pytest.approx(scaled[0], abs=1e-12)
            assert base[1] == pytest.approx(scaled[1], abs=1e-12)


def _mc_hypervolume(points, n=10**6, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(size=(n, 2))
    covered = np.zeros(n, dtype=bool)
    for a, b in points:
        covered |= (samples[:, 0] >= a) & (samples[:, 1] >= b)
    p = covered.mean()
    return p, np.sqrt(p * (1 - p) / n)


class TestHypervolume:
    def test_empty(self):
        assert hypervolume([]) == 0.0

    def test_ideal_covers_unit_box(self):
        assert hypervolume([(0.0, 0.0)]) == 1.0

    def test_single_rectangle(self):
        assert hypervolume([(0.5, 0.5)]) == 0.25

    def test_points_beyond_ref_contribute_zero(self):
        assert hypervolume([(1.0, 0.0), (0.0, 1.0), (2.0, -1.0)]) == 0.0

    def test_worked_three_point_example(self):
        pts = [(0.6, 0.2), (0.2, 0.6), (0.4, 0.4)]
        # strip decomposition: 0.2*0.4 + 0.2*0.6 + 0.4*0.8
        assert hypervolume(pts) == pytest.approx(0.52, abs=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(13)
        pts = [tuple(p) for p in rng.uniform(0, 1, (8, 2))]
        value = hypervolume(pts)
        for _ in range(5):
            rng.shuffle(pts)
            assert hypervolume(pts) == value

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            n_points = int(rng.integers(1, 9))
            pts = [tuple(p) for p in rng.uniform(0, 1, (n_points, 2))]
            exact = hypervolume(pts)
            estimate, se = _mc_hypervolume(pts, seed=trial)
            assert abs(exact - estimate) <= 3 * se + 1e-12


class TestArchive:
    def unit_archive(self):
        return Archive((0.0, 0.0), (1.0, 1.0))

    def test_insert_into_empty(self):
        arch = self.unit_archive()
        assert arch.insert([0.0], (0.5, 0.5)) is True
        assert len(arch) == 1

    def test_reinsert_identical_rejected(self):
        arch = self.unit_archive()
        arch.insert([0.0], (0.5, 0.5))
        assert arch.insert([1.0], (0.5, 0.5)) is False
        assert len(arch) == 1

    def test_dominated_insert_rejected(self):
        arch = self.unit_archive()
        arch.insert([0.0], (0.4, 0.4))
        assert arch.insert([0.0], (0.5, 0.5)) is False

    def test_dominating_insert_removes(self):
        arch = self.unit_archive()
        arch.insert([0.0], (0.4, 0.6))
        arch.insert([0.0], (0.6, 0.4))
        assert arch.insert([0.0], (0.3, 0.3)) is True
        assert len(arch) == 1

    def test_equal_first_objective_keeps_smaller_second(self):
        arch = self.unit_archive()
        arch.insert([0.0], (0.5, 0.6))
        assert arch.insert([0.0], (0.5, 0.4)) is True
        assert len(arch) == 1
        assert arch.entries[0].objectives == (0.5, 0.4)

    def test_worked_sequence(self):
        arch = self.unit_archive()
        for y in [(0.6, 0.2), (0.2, 0.6), (0.4, 0.4)]:
            assert arch.insert([0.0], y) is True
        assert len(arch) == 3
        assert arch.hypervolume_value == pytest.approx(0.52, abs=1e-12)

    def test_extreme_point_contributes_zero(self):
        arch = self.unit_archive()
        assert arch.insert([0.0], (0.0, 1.0)) is True
        assert arch.hypervolume_value == 0.0

    def test_point_at_ideal_gives_one(self):
        arch = self.unit_archive()
        arch.insert([0.0], (0.0, 0.0))
        assert arch.hypervolume_value == 1.0

    def test_sorted_invariant_and_non_domination_under_fuzz(self):
        rng = np.random.default_rng(15)
        arch = self.unit_archive()
        hv_prev = 0.0
        for _ in range(10**4):
            arch.insert(rng.uniform(size=2), tuple(rng.uniform(-0.3, 1.4, 2)))
            assert arch.hypervolume_value >= hv_prev - 1e-15
            hv_prev = arch.hypervolume_value
        keys = [e.normalized[0] for e in arch.entries]
        bs = [e.normalized[1] for e in arch.entries]
        assert keys == sorted(keys)
        assert bs == sorted(bs, reverse=True)
        for i, u in enumerate(arch.entries):
            for j, v in enumerate(arch.entries):
                if i != j:
                    assert not dominates(u.normalized, v.normalized)

    def test_incremental_matches_scratch(self):
        rng = np.random.default_rng(16)
        arch = self.unit_archive()
        for step in range(5000):
            arch.insert(rng.uniform(size=2), tuple(rng.uniform(-0.1, 1.2, 2)))
            if step % 100 == 0:
                assert abs(
                    arch.hypervolume_value - arch.recompute_hypervolume()
                ) < 1e-12

    # Normalized objectives on a 0.1 grid over [-0.2, 1.2]: ties, duplicates
    # and points on or beyond the (1, 1) edge are common.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=60))
    def test_incremental_matches_scratch_on_a_grid(self, cells):
        arch = self.unit_archive()
        for a, b in cells:
            arch.insert([0.0], (a / 10, b / 10))
            assert abs(arch.hypervolume_value - arch.recompute_hypervolume()) <= 1e-12

    def test_raw_objectives_normalized_against_problem_scale(self):
        arch = Archive((10.0, -2.0), (20.0, 8.0))
        arch.insert([0.0], (10.0, 8.0))  # extreme point -> (0, 1)
        assert arch.entries[0].normalized == (0.0, 1.0)
        assert arch.hypervolume_value == 0.0
        arch.insert([0.0], (15.0, 3.0))  # midpoint -> (0.5, 0.5)
        assert arch.hypervolume_value == pytest.approx(0.25)

    def test_rejects_non_finite(self):
        arch = self.unit_archive()
        with pytest.raises(ValueError):
            arch.insert([0.0], (float("nan"), 0.5))
