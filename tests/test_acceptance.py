"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and per-criterion timings.
"""

import os
import time

import numpy as np
import pytest

from biobj.harness import (
    ExperimentConfig,
    run_experiment,
    run_optimizer,
)
from biobj.indicator import Archive, hypervolume
from biobj.suite import (
    SUITE_DIMS,
    enumerate_suite,
    instance_map,
    instantiate_problem,
    pair_index,
    unpair,
)
from test_reference import dominates

# Analytic ceiling for the Sphere/Sphere normalized hypervolume: the front
# image is (t^2, (1-t)^2), so max hv = 1 - integral of (1 - sqrt(u))^2 = 5/6.
SPHERE_SPHERE_HV_MAX = 5.0 / 6.0

# Pilot-pinned regression interval for random search, budget 1e4, D=2
# (pilot over instances 1..10, seeds 1..5 gave [0.8274, 0.8316]).
RS_PINNED_INTERVAL = (0.80, SPHERE_SPHERE_HV_MAX + 1e-9)


class _Verdict:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.start = time.perf_counter()
        self.ok = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} [{verdict}] {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_suite_cardinality():
    with _Verdict(1, "suite cardinality and pairing bijection") as v:
        start = time.perf_counter()
        ids = enumerate_suite()
        assert len(ids) == 3300
        assert pair_index(1, 1) == 1
        assert pair_index(2, 2) == 11
        assert pair_index(3, 3) == 20
        assert pair_index(10, 10) == 55
        for i in range(1, 11):
            for j in range(i, 11):
                assert unpair(pair_index(i, j)) == (i, j)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_optimum_consistency():
    from biobj.base_functions import BASE_FUNCTION_IDS, evaluate_base, instantiate_base

    with _Verdict(2, "optimum consistency over all shipped instance ids"):
        start = time.perf_counter()
        single_ids = sorted(
            {k for pair in map(instance_map, range(1, 11)) for k in pair}
        )
        for fn in BASE_FUNCTION_IDS:
            for dim in SUITE_DIMS:
                for k in single_ids:
                    inst = instantiate_base(fn, k, dim)
                    value = evaluate_base(inst, inst.x_opt[None])[0]
                    assert abs(value - inst.f_opt) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_3_instance_validity():
    with _Verdict(3, "separation conditions on all 3300 problems"):
        start = time.perf_counter()
        assert instance_map(1) == (2, 4)
        assert instance_map(2) == (3, 5)
        for pid in enumerate_suite():
            p = instantiate_problem(pid.pair_index, pid.dim, pid.instance)
            assert np.linalg.norm(p.alpha.x_opt - p.beta.x_opt) >= 1e-4
            gap = np.hypot(p.nadir[0] - p.ideal[0], p.nadir[1] - p.ideal[1])
            assert gap >= 1e-1
        assert time.perf_counter() - start < 30.0


def test_criterion_4_nadir_correctness():
    from biobj.base_functions import evaluate_base

    with _Verdict(4, "nadir via cross-evaluation and sphere closed form"):
        rng = np.random.default_rng(4)
        ids = enumerate_suite()
        for pid in [ids[i] for i in rng.choice(len(ids), 20, replace=False)]:
            p = instantiate_problem(pid.pair_index, pid.dim, pid.instance)
            assert p.nadir[0] == evaluate_base(p.alpha, p.beta.x_opt[None])[0]
            assert p.nadir[1] == evaluate_base(p.beta, p.alpha.x_opt[None])[0]
        for inst in range(1, 11):
            p = instantiate_problem(1, 5, inst)
            delta = p.beta.x_opt - p.alpha.x_opt
            gap = float(delta @ delta)
            assert abs(p.nadir[0] - (p.ideal[0] + gap)) <= 1e-10
            assert abs(p.nadir[1] - (p.ideal[1] + gap)) <= 1e-10


def test_criterion_5_hypervolume_oracle():
    with _Verdict(5, "hypervolume sweep vs Monte Carlo and incremental cache"):
        start = time.perf_counter()
        # worked 3-point example; the strip decomposition gives
        # 0.2*0.4 + 0.2*0.6 + 0.4*0.8 = 0.52
        assert hypervolume([(0.6, 0.2), (0.2, 0.6), (0.4, 0.4)]) == pytest.approx(
            0.52, abs=1e-12
        )
        rng = np.random.default_rng(5)
        for trial in range(20):
            pts = [tuple(p) for p in rng.uniform(0, 1, (int(rng.integers(1, 9)), 2))]
            exact = hypervolume(pts)
            samples = np.random.default_rng(5000 + trial).uniform(size=(10**6, 2))
            covered = np.zeros(len(samples), dtype=bool)
            for a, b in pts:
                covered |= (samples[:, 0] >= a) & (samples[:, 1] >= b)
            estimate = covered.mean()
            se = np.sqrt(estimate * (1 - estimate) / len(samples))
            assert abs(exact - estimate) <= 3 * se + 1e-12
        arch = Archive((0.0, 0.0), (1.0, 1.0))
        for step in range(10**4):
            arch.insert(rng.uniform(size=2), tuple(rng.uniform(-0.2, 1.3, 2)))
            if step % 250 == 0:
                assert abs(arch.hypervolume_value - arch.recompute_hypervolume()) < 1e-12
        assert abs(arch.hypervolume_value - arch.recompute_hypervolume()) < 1e-12
        assert time.perf_counter() - start < 60.0


def test_criterion_6_dominance_laws():
    with _Verdict(6, "dominance partial order and archive non-domination"):
        rng = np.random.default_rng(6)
        for _ in range(10**4):
            u, v, w = (tuple(p) for p in rng.uniform(0, 1, (3, 2)))
            assert not dominates(u, u)
            if dominates(u, v) and dominates(v, w):
                assert dominates(u, w)
        arch = Archive((0.0, 0.0), (1.0, 1.0))
        check_at = set(np.geomspace(1, 10**4, 40, dtype=int))
        for step in range(1, 10**4 + 1):
            arch.insert(rng.uniform(size=2), tuple(rng.uniform(-0.1, 1.2, 2)))
            bs = [row[1] for row in arch.rows]
            assert bs == sorted(bs, reverse=True)  # sortedness == non-domination
            if step in check_at:
                pts = [row[:2] for row in arch.rows]
                for i, p in enumerate(pts):
                    for j, q in enumerate(pts):
                        if i != j:
                            assert not dominates(p, q)


def test_criterion_7_group_taxonomy():
    from test_suite import TestGroups
    from biobj.suite import group_of

    with _Verdict(7, "15 function classes match the membership fixture"):
        fixture = TestGroups.FIXTURE
        assert len(fixture) == 15
        assert sum(len(v) for v in fixture.values()) == 55
        for label, members in fixture.items():
            for k in members:
                assert group_of(k) == label


def test_criterion_8_end_to_end_determinism(tmp_path):
    with _Verdict(8, "byte-identical re-runs and full D=2 sweep under 5 min"):
        # byte-identity of a re-run with identical config
        out = str(tmp_path / "twice")
        config = dict(
            out_dir=out,
            functions=(1, 28, 55),
            dims=(2,),
            instances=(1, 2),
            optimizers=("random-search", "archive-evolver"),
            seeds=(1, 2),
            budget_multiplier=100,
        )
        run_experiment(ExperimentConfig(**config))
        first = {
            n: open(os.path.join(out, n), "rb").read() for n in sorted(os.listdir(out))
        }
        run_experiment(ExperimentConfig(**config))
        second = {
            n: open(os.path.join(out, n), "rb").read() for n in sorted(os.listdir(out))
        }
        assert first == second

        # full D=2 random-search sweep: 55 functions x 10 instances
        start = time.perf_counter()
        sweep = ExperimentConfig(
            out_dir=str(tmp_path / "sweep"),
            dims=(2,),
            optimizers=("random-search",),
            seeds=(1,),
            budget_multiplier=1000,  # 2000 evaluations at D=2
        )
        run_experiment(sweep)
        elapsed = time.perf_counter() - start
        records = [n for n in os.listdir(sweep.out_dir) if n.endswith(".rec")]
        assert len(records) == 550
        assert elapsed < 300.0


def test_criterion_9_baseline_sanity():
    with _Verdict(9, "random-search regression interval and evolver pairing"):
        # Sphere/Sphere D=2, budget 1e4: pinned pilot interval.  Note the
        # analytic optimum for this pair under reference (1, 1) is 5/6.
        record = run_optimizer("random-search", instantiate_problem(1, 2, 1), 10**4, 1)
        assert RS_PINNED_INTERVAL[0] <= record.final_hv <= RS_PINNED_INTERVAL[1]

        for k in (1, 11):
            rs, ev = [], []
            for seed in range(1, 16):
                rs.append(
                    run_optimizer(
                        "random-search", instantiate_problem(k, 2, 1), 2000, seed
                    ).final_hv
                )
                ev.append(
                    run_optimizer(
                        "archive-evolver", instantiate_problem(k, 2, 1), 2000, seed
                    ).final_hv
                )
            assert np.median(ev) >= np.median(rs)
