import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj.indicator import Archive, hypervolume, normalize
from test_reference import dominates


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
        assert arch.rows[0][2:4] == (0.5, 0.4)

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
        offered = {}
        hv_prev = 0.0
        for _ in range(10**4):
            x, y = rng.uniform(size=2), tuple(rng.uniform(-0.3, 1.4, 2))
            offered[y] = x.tolist()
            arch.insert(x, y)
            assert arch.hypervolume_value >= hv_prev - 1e-15
            hv_prev = arch.hypervolume_value
        keys = [row[0] for row in arch.rows]
        bs = [row[1] for row in arch.rows]
        assert keys == sorted(keys)
        assert bs == sorted(bs, reverse=True)
        for i, u in enumerate(arch.rows):
            for j, v in enumerate(arch.rows):
                if i != j:
                    assert not dominates(u[:2], v[:2])
        # Each entry keeps the decision vector it was offered with.
        assert [row[4].tolist() for row in arch.rows] == [
            offered[row[2:4]] for row in arch.rows
        ]

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
        assert arch.rows[0][:2] == (0.0, 1.0)
        assert arch.hypervolume_value == 0.0
        arch.insert([0.0], (15.0, 3.0))  # midpoint -> (0.5, 0.5)
        assert arch.hypervolume_value == pytest.approx(0.25)

    def test_rejects_non_finite(self):
        arch = self.unit_archive()
        with pytest.raises(ValueError):
            arch.insert([0.0], (float("nan"), 0.5))

    @pytest.mark.parametrize(
        "ideal, nadir",
        [((-math.inf, 0.0), (1.0, 1.0)), ((0.0, 0.0), (math.inf, 1.0))],
    )
    def test_rejects_non_finite_bounds(self, ideal, nadir):
        # Accepted, these stored a NaN a_norm or reported HV 0.5 for (0.5, 0.5).
        with pytest.raises(ValueError, match="must be finite"):
            Archive(ideal, nadir)
        with pytest.raises(ValueError, match="must be finite"):
            normalize((0.5, 0.5), ideal, nadir)


# Raw objectives on a grid of the archive below whose normalized values are
# k / 10 for k in -2..12: ties, duplicates, equal first objectives and points
# on or beyond the (1, 1) edge are common.
IDEAL, NADIR = (10.0, -2.0), (20.0, 8.0)
grid_rows = st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(
    lambda c: (IDEAL[0] + c[0], IDEAL[1] + c[1])
)


def _state(arch):
    rows = [(*row[:4], *row[4].tolist()) for row in arch.rows]
    return rows, arch.hypervolume_value.hex()


# Grid rows and, now and then, one with a NaN or infinite objective.
mixed_rows = st.one_of(
    grid_rows,
    st.tuples(
        grid_rows, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 1)
    ).map(lambda t: tuple(t[1] if c == t[2] else v for c, v in enumerate(t[0]))),
)


def _archive_of(rows):
    arch = Archive(IDEAL, NADIR)
    for y in rows:
        arch.insert([0.0], y)
    return arch


def _columns(block):
    return (np.array(column) for column in zip(*block))


def _pre_screened(blocks, screen):
    """Accepted row indices, rows for which ``insert`` raised, and final
    state, with ``Archive.screen`` in front of ``insert`` if ``screen``."""
    arch = Archive(IDEAL, NADIR)
    accepted, offset = [], 0
    for block in blocks:
        rows = arch.screen(*_columns(block)) if screen else range(len(block))
        for j in rows:
            try:
                if arch.insert([offset + j], block[j]):
                    accepted.append(offset + j)
            except ValueError:
                accepted.append(("raised", offset + j))
        offset += len(block)
    return accepted, _state(arch)


class TestDominatedMask:
    """``Archive.screen`` against the archive as the block starts."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(grid_rows, max_size=20), st.lists(mixed_rows, min_size=1, max_size=20)
    )
    def test_masks_every_finite_row_place_rejects(self, archived, block):
        arch = _archive_of(archived)
        rows = arch.screen(*_columns(block))
        assert rows == sorted(set(rows)) and set(rows) <= set(range(len(block)))
        da, db = NADIR[0] - IDEAL[0], NADIR[1] - IDEAL[1]
        for j, (f1, f2) in enumerate(block):
            rejected = arch._place((f1 - IDEAL[0]) / da, (f2 - IDEAL[1]) / db) is None
            finite = math.isfinite(f1) and math.isfinite(f2)
            if rejected and finite:
                assert j not in rows, (j, f1, f2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(grid_rows, max_size=10),
        st.lists(grid_rows, max_size=10),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 1),
        st.booleans(),
    )
    def test_non_finite_row_reaches_insert(self, archived, block, bad, column, dominated):
        # An entry at the ideal masks every finite row at or beyond it, so
        # only the non-finite check keeps the bad row from being masked too.
        arch = _archive_of(archived + ([IDEAL] if dominated else []))
        row = list(block[0] if block else IDEAL)
        row[column] = bad
        block = block + [tuple(row)]
        rows = arch.screen(*_columns(block))
        assert rows[-1] == len(block) - 1
        with pytest.raises(ValueError):
            for j in rows:
                arch.insert([0.0], block[j])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(mixed_rows, min_size=1, max_size=20), max_size=12))
    def test_same_accepted_rows_and_hypervolume_with_and_without(self, blocks):
        assert _pre_screened(blocks, False) == _pre_screened(blocks, True)


class TestDominatedInBlock:
    """``Archive.screen`` against the earlier rows of the block."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(grid_rows, max_size=20), st.lists(mixed_rows, min_size=1, max_size=40)
    )
    def test_masked_rows_are_finite_and_rejected(self, archived, block):
        arch = _archive_of(archived)
        rows = set(arch.screen(*_columns(block)))
        for j, y in enumerate(block):
            try:
                accepted = arch.insert([0.0], y)
            except ValueError:  # a non-finite row
                assert j in rows, (j, y)
            else:
                assert j in rows or not accepted, (j, y)

    def test_masks_rows_an_earlier_least_row_dominates(self):
        # Offsets from the ideal.  The NaN row first must not hide the rows
        # after it from the minima.  Row 4 is dominated by row 3 (least
        # a + b) alone, row 5 duplicates row 1 (least a), row 6 is dominated
        # by row 2 (least b), and the infinite row 7 is never masked.
        rows = [
            (math.nan, 0), (1, 5), (5, 1), (2, 2), (3, 3), (1, 5), (6, 1), (math.inf, 9)
        ]
        fa, fb = (np.array([y[i] for y in rows]) + IDEAL[i] for i in (0, 1))
        assert Archive(IDEAL, NADIR).screen(fa, fb) == [0, 1, 2, 3, 7]
