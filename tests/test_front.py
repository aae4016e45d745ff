"""Pair 1 (sphere/sphere) has a known Pareto front.

Its Pareto set is the segment from the first optimum x_a to the second x_b.
After the ideal/nadir normalization, x_a + t (x_b - x_a) maps to
(t², (1 - t)²) in every dimension and instance, so the front is
sqrt(a) + sqrt(b) = 1 and its normalized hypervolume is exactly 5/6.  These
references come from the definition, not from biobj's own output, and they
tie evaluation, the nadir, normalization and the archive together.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj.harness import OPTIMIZERS, run_optimizer
from biobj.indicator import Archive, normalize
from biobj.suite import N_INSTANCES, SUITE_DIMS, instantiate_problem

dims = st.sampled_from(SUITE_DIMS)
instances = st.integers(1, N_INSTANCES)


def _segment(p, t):
    """Rows x_a + t (x_b - x_a) of problem ``p``, one per value of ``t``."""
    t = np.asarray(t, dtype=float)[:, None]
    return p.alpha.x_opt + t * (p.beta.x_opt - p.alpha.x_opt)


@settings(max_examples=30, deadline=None)
@given(dims, instances, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_segment_maps_to_known_front(dim, instance, ts):
    p = instantiate_problem(1, dim, instance)
    fa, fb = p.evaluate(_segment(p, ts))
    for t, ya, yb in zip(ts, fa, fb):
        a, b = normalize((ya, yb), p.ideal, p.nadir)
        assert abs(a - t * t) <= 1e-11
        assert abs(b - (1.0 - t) ** 2) <= 1e-11


def _exact_hypervolume(n):
    """Hypervolume of the n points (t², (1 - t)²), t = i / (n - 1), with
    reference point (1, 1), as an exact fraction."""
    a = [Fraction(i, n - 1) ** 2 for i in range(n)] + [Fraction(1)]
    b = [(1 - Fraction(i, n - 1)) ** 2 for i in range(n)]
    return sum((a[i + 1] - a[i]) * (1 - b[i]) for i in range(n))


@settings(max_examples=20, deadline=None)
@given(dims, instances, st.integers(2, 200))
def test_segment_archive_hypervolume_is_exact_sum(dim, instance, n):
    p = instantiate_problem(1, dim, instance)
    X = _segment(p, [i / (n - 1) for i in range(n)])
    archive = Archive(p.ideal, p.nadir)
    for x, y in zip(X, zip(*p.evaluate(X))):
        archive.insert(x, y)
    exact = _exact_hypervolume(n)
    assert exact < Fraction(5, 6)
    assert abs(archive.hypervolume_value - float(exact)) <= 1e-11


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(OPTIMIZERS),
    dims,
    instances,
    st.integers(0, 2**31),
    st.integers(1, 300),
)
def test_final_hypervolume_below_front(optimizer, dim, instance, seed, budget):
    record = run_optimizer(optimizer, instantiate_problem(1, dim, instance), budget, seed)
    assert record.final_hv <= 5 / 6
