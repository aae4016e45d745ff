"""Batch evaluation: a row's value does not depend on its batch, and no
record byte depends on how the runner blocks its evaluations."""

import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj import harness
from biobj.base_functions import BASE_FUNCTION_IDS, evaluate_base, instantiate_base
from biobj.harness import (
    ExperimentConfig,
    run_experiment,
    run_optimizer,
)
from biobj.indicator import Archive
from biobj.suite import SUITE_DIMS, instantiate_problem

#: Five pairs that together use all 10 base functions once each.
ALL_FUNCTION_PAIRS = (2, 21, 36, 47, 54)

#: sha256 over the sorted ``.rec`` files (name, NUL, bytes) of the run in
#: ``test_record_bytes_pinned``, as written by the per-point evaluator that
#: batch evaluation replaced.
PINNED_RECORDS_SHA256 = (
    "a2aa72ae3cfe9631258bbdc8f06bdb37f83e47a491e0b78fe0a3c084f1ccbbed"
)


def test_record_bytes_pinned(tmp_path):
    run_experiment(
        ExperimentConfig(
            out_dir=str(tmp_path),
            functions=ALL_FUNCTION_PAIRS,
            dims=(2, 3, 40),
            instances=(1,),
            optimizers=("random-search", "archive-evolver"),
            seeds=(1,),
            budget_multiplier=20,
        )
    )
    digest = hashlib.sha256()
    names = sorted(n for n in os.listdir(tmp_path) if n.endswith(".rec"))
    assert len(names) == 30
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == PINNED_RECORDS_SHA256


@st.composite
def row_blocks(draw):
    """An instance and a ragged block of rows: inside the box, outside it,
    at the optimum and next to it."""
    fn = draw(st.sampled_from(BASE_FUNCTION_IDS))
    dim = draw(st.sampled_from(SUITE_DIMS))
    inst = instantiate_base(fn, draw(st.integers(1, 12)), dim)
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(4, size=n)
    X = np.select(
        [(kind == k)[:, None] for k in range(3)],
        [
            rng.uniform(-5, 5, (n, dim)),
            rng.uniform(-50, 50, (n, dim)),
            np.broadcast_to(inst.x_opt, (n, dim)),
        ],
        inst.x_opt + rng.normal(0.0, 1e-3, (n, dim)),
    )
    return inst, X


@settings(max_examples=150, deadline=None)
@given(row_blocks())
def test_row_value_independent_of_batch(block):
    inst, X = block
    full = evaluate_base(inst, X)
    assert full.shape == (len(X),)
    single = np.concatenate([evaluate_base(inst, X[i : i + 1]) for i in range(len(X))])
    assert full.tobytes() == single.tobytes()


def test_random_search_record_independent_of_chunk(monkeypatch):
    # 600 evaluations: two full default blocks, then ragged last blocks for
    # chunks 7 and the default.
    default = harness.CHUNK
    texts = {}
    for chunk in (1, 7, default):
        monkeypatch.setattr(harness, "CHUNK", chunk)
        texts[chunk] = []
        for k in ALL_FUNCTION_PAIRS:
            problem = instantiate_problem(k, 3, 2)
            record = run_optimizer("random-search", problem, 600, 5)
            texts[chunk].append(record.to_text())
            assert problem.eval_count == 600
    assert texts[1] == texts[7] == texts[default]


@pytest.mark.parametrize("dim", [2, 40])
def test_random_search_inserts_only_archive_changes(monkeypatch, dim):
    calls = []
    insert = Archive.insert

    def counted(self, x, y):
        calls.append(y)
        return insert(self, x, y)

    monkeypatch.setattr(Archive, "insert", counted)
    for k in ALL_FUNCTION_PAIRS:
        calls.clear()
        record = run_optimizer("random-search", instantiate_problem(k, dim, 1), 600, 3)
        assert len(calls) == len(record.trace)


def _evolver_text(k, dim, budget, seed, sigma, spec):
    """Record text of an evolver run with blocks of up to ``spec`` rows."""
    problem = instantiate_problem(k, dim, 1)
    with mock.patch.object(harness, "SPEC", spec):
        text = run_optimizer("archive-evolver", problem, budget, seed, sigma).to_text()
    assert problem.eval_count == budget
    return text


@pytest.mark.parametrize("dim,budget", [(3, 150), (40, 200)])
def test_evolver_record_independent_of_spec(dim, budget):
    texts = {
        spec: [_evolver_text(k, dim, budget, 5, 0.5, spec) for k in ALL_FUNCTION_PAIRS]
        for spec in (1, 2, 3, harness.SPEC, 64)
    }
    assert all(t == texts[1] for t in texts.values())


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(1, 55),
    dim=st.sampled_from((2, 3, 5)),
    seed=st.integers(0, 2**31),
    sigma=st.floats(1e-3, 3.0),
    budget=st.integers(1, 200),
)
def test_evolver_record_same_as_one_row_at_a_time(k, dim, seed, sigma, budget):
    assert _evolver_text(k, dim, budget, seed, sigma, 1) == _evolver_text(
        k, dim, budget, seed, sigma, harness.SPEC
    )


@pytest.mark.parametrize("dim,rows", [(40, 4), (2, 81)])  # rows per slice
def test_gallagher_slice_boundaries(dim, rows):
    inst = instantiate_base(21, 1, dim)
    rng = np.random.default_rng(dim)
    for n in (1, rows - 1, rows, rows + 1, 64):
        X = rng.uniform(-6, 6, (n, dim))
        single = np.concatenate([evaluate_base(inst, X[i : i + 1]) for i in range(n)])
        assert evaluate_base(inst, X).tobytes() == single.tobytes()
