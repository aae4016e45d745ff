"""A plain reference runner, checked record by record against ``run_optimizer``.

The reference shares none of ``Archive``'s bisection, screen, incremental
hypervolume, or the runner's blocks, marks and rewind.  It evaluates one row
at a time, keeps its archive in a sorted list, tests dominance pair by pair
on values normalized by ``normalize``, and computes each trace value as the
exact hypervolume of its front in ``fractions.Fraction``.  A row changes the
archive iff no earlier row weakly dominates it.

``dominates`` lives here because only tests use it.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj import evaluate_base, harness, instantiate_problem, normalize
from biobj.constants import PENALTY_EDGE
from biobj.suite import N_PAIRS, ProblemId


def dominates(u, v) -> bool:
    """Minimization dominance: u no worse in both, strictly better in one."""
    ua, ub = u
    va, vb = v
    return ua <= va and ub <= vb and (ua < va or ub < vb)


def exact_hypervolume(front) -> Fraction:
    """Exact hypervolume, reference point (1, 1), of mutually non-dominated
    normalized points (a, b) sorted by a."""
    inside = [(Fraction(a), Fraction(b)) for a, b in front if a < 1.0 and b < 1.0]
    edges = [a for a, _ in inside[1:]] + [Fraction(1)]
    return sum(((end - a) * (1 - b) for (a, b), end in zip(inside, edges)), Fraction(0))


def reference_run(name, problem, budget, seed, values):
    """Trace and archive rows of optimizer ``name``, one row at a time;
    ``values(x)`` gives one row's raw objectives (f1, f2)."""
    pid = problem.id
    rng = np.random.default_rng(
        [seed, pid.pair_index, pid.dim, pid.instance, harness.OPTIMIZERS.index(name)]
    )
    if name == "random-search":
        draws = iter(rng.uniform(-PENALTY_EDGE, PENALTY_EDGE, (budget, pid.dim)))
    archive, trace = [], []  # archive: (a, b, f1, f2, x), sorted by a
    for i in range(1, budget + 1):
        if name == "random-search":
            x = next(draws)
        elif not archive:
            x = rng.uniform(-PENALTY_EDGE, PENALTY_EDGE, (1, pid.dim))[0]
        else:
            parent = archive[rng.integers(len(archive))][4]
            x = parent + harness.SIGMA * rng.standard_normal(pid.dim)
        f1, f2 = values(x)
        y = normalize((f1, f2), problem.ideal, problem.nadir)
        if any(e[:2] == y or dominates(e[:2], y) for e in archive):
            continue
        kept = [e for e in archive if not dominates(y, e[:2])]
        archive = sorted(kept + [(*y, f1, f2, x)], key=lambda e: e[0])
        trace.append((i, exact_hypervolume(e[:2] for e in archive)))
    return trace, [(*e[:4], *e[4].tolist()) for e in archive]


def assert_same_run(name, problem, budget, seed, values):
    record = harness.run_optimizer(name, problem, budget, seed)
    trace, archive = reference_run(name, problem, budget, seed, values)
    assert [i for i, _ in record.trace] == [i for i, _ in trace]
    for (_, hv), (_, exact) in zip(record.trace, trace):
        assert abs(Fraction(hv) - exact) <= 1e-12
    assert record.archive == archive


def _grid(X):
    """Objective values on a 0.1 grid, so that ties and equal first
    objectives occur."""
    x1 = np.floor(np.abs(X[:, 1]))
    return (
        (np.floor(np.abs(X[:, 0] + 2)) + x1) / 10,
        (np.floor(np.abs(X[:, 0] - 2)) + x1) / 10,
    )


@dataclass(frozen=True)
class GridProblem:
    """The part of ``BiObjProblem`` that ``run_optimizer`` reads, over ``_grid``."""

    id: ProblemId
    ideal = (0.0, -0.1)
    nadir = (0.7, 0.9)

    def evaluate(self, X):
        return _grid(X)


OPTIMIZER = st.sampled_from(harness.OPTIMIZERS)
SEED = st.integers(0, harness.MAX_SEED)
BUDGET = st.integers(1, 300)
DIM = st.sampled_from((2, 3, 5))


@settings(max_examples=40, deadline=None)
@given(OPTIMIZER, st.integers(1, N_PAIRS), DIM, st.integers(1, 12), SEED, BUDGET)
def test_suite_run_matches_reference(name, k, dim, instance, seed, budget):
    problem = instantiate_problem(k, dim, instance)

    def values(x):
        row = x[None]
        return (
            float(evaluate_base(problem.alpha, row)[0]),
            float(evaluate_base(problem.beta, row)[0]),
        )

    assert_same_run(name, problem, budget, seed, values)


@settings(max_examples=40, deadline=None)
@given(OPTIMIZER, DIM, SEED, BUDGET)
def test_grid_run_with_ties_matches_reference(name, dim, seed, budget):
    problem = GridProblem(ProblemId(1, dim, 1))

    def values(x):
        fa, fb = _grid(x[None])
        return float(fa[0]), float(fb[0])

    assert_same_run(name, problem, budget, seed, values)

