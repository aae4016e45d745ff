"""The 55 bi-objective functions: pairing, instances, ideal/nadir, enumeration.

A suite problem is named by (pair_index k in 1..55, dimension D, bi-objective
instance K).  Pair index k maps to an ordered pair (i <= j) of positions in
the 10-function list; instance K maps to a pair of single-objective instance
ids through a shipped, generator-validated table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._instance_pairs import INSTANCE_PAIRS
from .base_functions import (
    BASE_FUNCTION_IDS,
    BASE_FUNCTION_NAMES,
    BaseInstance,
    evaluate_base,
    instantiate_base,
)

#: Standard suite dimensions.
SUITE_DIMS = (2, 3, 5, 10, 20, 40)

#: Default number of shipped bi-objective instances.
N_INSTANCES = 10

N_PAIRS = 55

#: Validity conditions on an instantiated problem: minimum separation of the
#: two optima in search space, and of ideal/nadir in objective space.
MIN_X_OPT_DISTANCE = 1e-4
MIN_IDEAL_NADIR_DISTANCE = 1e-1

#: Difficulty category of each position in the 10-function list (two
#: functions per category).
_CATEGORIES = (
    "separable",
    "moderate",
    "ill-conditioned",
    "multi-modal",
    "weakly-structured",
)


class SuiteConsistencyError(RuntimeError):
    """An instantiated problem violated a suite invariant (build-time bug)."""


def pair_index(i: int, j: int) -> int:
    """Map an ordered pair of list positions (1 <= i <= j <= 10) to 1..55."""
    if not (1 <= i <= j <= 10):
        raise ValueError(f"need 1 <= i <= j <= 10, got ({i}, {j})")
    return (i - 1) * 10 - (i - 1) * (i - 2) // 2 + (j - i + 1)


def unpair(k: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if not (1 <= k <= N_PAIRS):
        raise ValueError(f"pair index must be in 1..55, got {k}")
    for i in range(1, 11):
        first = pair_index(i, i)
        last = pair_index(i, 10)
        if first <= k <= last:
            return i, i + (k - first)
    raise AssertionError("unreachable")


def function_pair(k: int) -> tuple[int, int]:
    """Base-function ids (fn_alpha, fn_beta) of pair index ``k``."""
    i, j = unpair(k)
    return BASE_FUNCTION_IDS[i - 1], BASE_FUNCTION_IDS[j - 1]


def pair_name(k: int) -> str:
    fa, fb = function_pair(k)
    return f"{BASE_FUNCTION_NAMES[fa]}/{BASE_FUNCTION_NAMES[fb]}"


def group_of(k: int) -> str:
    """Function-class label of pair index ``k`` (one of 15)."""
    i, j = unpair(k)
    return f"{_CATEGORIES[(i - 1) // 2]}-{_CATEGORIES[(j - 1) // 2]}"


def all_groups() -> list[str]:
    """The 15 class labels in pair order."""
    seen: list[str] = []
    for k in range(1, N_PAIRS + 1):
        g = group_of(k)
        if g not in seen:
            seen.append(g)
    return seen


# ---------------------------------------------------------------------------
# Instance-id arithmetic
# ---------------------------------------------------------------------------


def _pair_is_valid(k_alpha: int, k_beta: int) -> bool:
    """True iff every pair in every suite dimension builds with these ids."""
    try:
        for dim in SUITE_DIMS:
            for k in range(1, N_PAIRS + 1):
                _build(k, dim, k_alpha, k_beta)
    except SuiteConsistencyError:
        return False
    return True


@lru_cache(maxsize=None)
def compute_instance_pair(biobj_instance: int) -> tuple[int, int]:
    """Derive the single-objective instance ids for one bi-objective id.

    Ids 1 and 2 are the fixed historical exceptions (2, 4) and (3, 5).
    Otherwise the candidate (2K+1, 2K+2) is used, incrementing the second
    id until the validity conditions hold for every pair and dimension.
    The result is cached: each id's validity loop runs once per process.
    """
    if biobj_instance < 1:
        raise ValueError(f"instance id must be >= 1, got {biobj_instance}")
    if biobj_instance == 1:
        return (2, 4)
    if biobj_instance == 2:
        return (3, 5)
    k_alpha = 2 * biobj_instance + 1
    k_beta = k_alpha + 1
    while not _pair_is_valid(k_alpha, k_beta):
        k_beta += 1
    return (k_alpha, k_beta)


def instance_map(biobj_instance: int) -> tuple[int, int]:
    """Single-objective instance ids (K_alpha, K_beta) for a bi-objective id.

    Shipped ids come from the pre-validated table; ids beyond it are derived
    on demand with the same validity loop.
    """
    if biobj_instance < 1:
        raise ValueError(f"instance id must be >= 1, got {biobj_instance}")
    if biobj_instance in INSTANCE_PAIRS:
        return INSTANCE_PAIRS[biobj_instance]
    return compute_instance_pair(biobj_instance)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemId:
    pair_index: int
    dim: int
    instance: int

    def __str__(self) -> str:
        return f"k{self.pair_index:02d}_d{self.dim:02d}_i{self.instance:02d}"


@dataclass(eq=False)
class BiObjProblem:
    """A bi-objective problem: two base instances plus ideal/nadir points.

    Evaluation increments ``eval_count``, so one handle must not be shared
    mutably across threads; independent handles of the same ProblemId may
    run in parallel.
    """

    id: ProblemId
    alpha: BaseInstance
    beta: BaseInstance
    ideal: tuple[float, float]
    nadir: tuple[float, float]
    eval_count: int = field(default=0)

    @property
    def dim(self) -> int:
        return self.id.dim

    @property
    def group(self) -> str:
        return group_of(self.id.pair_index)

    def evaluate(self, x) -> tuple[float, float]:
        """Both objective values at ``x``; counts one evaluation."""
        fa = evaluate_base(self.alpha, x)
        fb = evaluate_base(self.beta, x)
        self.eval_count += 1
        return (fa, fb)


def _build(pair_idx: int, dim: int, k_alpha: int, k_beta: int):
    """Base instances, ideal and nadir of one problem; checks the conditions.

    Raises SuiteConsistencyError unless the optima are apart in search space
    and the ideal strictly dominates, and is apart from, the nadir.
    """
    fa, fb = function_pair(pair_idx)
    alpha = instantiate_base(fa, k_alpha, dim)
    beta = instantiate_base(fb, k_beta, dim)
    where = f"pair {pair_idx}, dim {dim}, instances ({k_alpha}, {k_beta})"
    if np.linalg.norm(alpha.x_opt - beta.x_opt) < MIN_X_OPT_DISTANCE:
        raise SuiteConsistencyError(f"{where}: extreme optima too close")

    ideal = (alpha.f_opt, beta.f_opt)
    # Cross-evaluation formula; valid because every base optimum is unique.
    nadir = (evaluate_base(alpha, beta.x_opt), evaluate_base(beta, alpha.x_opt))
    if not (ideal[0] < nadir[0] and ideal[1] < nadir[1]):
        raise SuiteConsistencyError(
            f"{where}: ideal {ideal} does not strictly dominate nadir {nadir}"
        )
    gap = np.hypot(nadir[0] - ideal[0], nadir[1] - ideal[1])
    if gap < MIN_IDEAL_NADIR_DISTANCE:
        raise SuiteConsistencyError(f"{where}: ideal and nadir too close")
    return alpha, beta, ideal, nadir


def instantiate_problem(pair_idx: int, dim: int, instance: int) -> BiObjProblem:
    """Build one suite problem; raises on invariant violations."""
    if dim not in SUITE_DIMS:
        raise ValueError(f"dimension {dim} is not in {SUITE_DIMS}")
    parts = _build(pair_idx, dim, *instance_map(instance))
    return BiObjProblem(ProblemId(pair_idx, dim, instance), *parts)


def enumerate_suite(
    functions=None, dims=None, instances=None
) -> list[ProblemId]:
    """Ordered problem ids: dimension-major, then pair index, then instance.

    Unfiltered, this is the full 55 x 6 x 10 = 3300-problem suite.
    """
    funcs = sorted(set(functions)) if functions is not None else range(1, N_PAIRS + 1)
    ds = sorted(set(dims)) if dims is not None else SUITE_DIMS
    insts = (
        sorted(set(instances))
        if instances is not None
        else range(1, N_INSTANCES + 1)
    )
    for k in funcs:
        if not (1 <= k <= N_PAIRS):
            raise ValueError(f"pair index must be in 1..55, got {k}")
    for d in ds:
        if d not in SUITE_DIMS:
            raise ValueError(f"dimension {d} is not in {SUITE_DIMS}")
    for i in insts:
        if i < 1:
            raise ValueError(f"instance id must be >= 1, got {i}")
    return [
        ProblemId(k, d, i) for d in ds for k in funcs for i in insts
    ]


def _xopt_checksum(inst: BaseInstance) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(inst.x_opt).tobytes()
    ).hexdigest()[:12]


MANIFEST_HEADER = (
    "# pair_index dim instance k_alpha k_beta "
    "ideal_a ideal_b nadir_a nadir_b xopt_a_sha xopt_b_sha group"
)


def manifest_lines(ids) -> list[str]:
    """One text line per problem, for regression pinning and the logger."""
    lines = [MANIFEST_HEADER]
    for pid in ids:
        p = instantiate_problem(pid.pair_index, pid.dim, pid.instance)
        lines.append(
            f"{pid.pair_index} {pid.dim} {pid.instance} "
            f"{p.alpha.instance_id} {p.beta.instance_id} "
            f"{p.ideal[0]!r} {p.ideal[1]!r} {p.nadir[0]!r} {p.nadir[1]!r} "
            f"{_xopt_checksum(p.alpha)} {_xopt_checksum(p.beta)} {p.group}"
        )
    return lines
