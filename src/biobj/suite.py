"""The 55 bi-objective functions: pairing, instances, ideal/nadir, enumeration.

A suite problem is named by (pair_index k in 1..55, dimension D, bi-objective
instance K).  Pair index k maps to an ordered pair (i <= j) of positions in
the 10-function list; instance K maps to a pair of single-objective instance
ids through ``INSTANCE_PAIRS``, a table the validity loop reproduces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


#: The ordered pairs (i <= j) of positions in the 10-function list, in pair
#: order: pair index k names ``_PAIRS[k - 1]``.
_PAIRS = tuple((i, j) for i in range(1, 11) for j in range(i, 11))

N_PAIRS = len(_PAIRS)


class SuiteConsistencyError(RuntimeError):
    """An instantiated problem violated a suite invariant (build-time bug)."""


def pair_index(i: int, j: int) -> int:
    """Map an ordered pair of list positions (1 <= i <= j <= 10) to 1..55."""
    if not (1 <= i <= j <= 10):
        raise ValueError(f"need 1 <= i <= j <= 10, got ({i}, {j})")
    return _PAIRS.index((i, j)) + 1


def unpair(k: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`."""
    if not (1 <= k <= N_PAIRS):
        raise ValueError(f"pair index must be in 1..55, got {k}")
    return _PAIRS[k - 1]


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


#: Ids 1..N_INSTANCES, as ``instance_map`` derives them; a test re-derives
#: ids 3..N_INSTANCES through the validity loop.
INSTANCE_PAIRS = {
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


def instance_map(biobj_instance: int) -> tuple[int, int]:
    """Single-objective instance ids (K_alpha, K_beta) for a bi-objective id.

    Ids 1 and 2 are the paper's exceptions; any other id K takes (2K+1,
    2K+2), the second raised until every pair builds in every dimension.
    Ids in ``INSTANCE_PAIRS`` are read from it, and each other id is derived
    once per process.  Raises ValueError unless ``ProblemId`` accepts K.
    """
    ProblemId(1, SUITE_DIMS[0], biobj_instance)  # its instance rule
    if biobj_instance in INSTANCE_PAIRS:
        return INSTANCE_PAIRS[biobj_instance]
    return _derive_instance_pair(biobj_instance)


@lru_cache(maxsize=None)
def _derive_instance_pair(biobj_instance: int) -> tuple[int, int]:
    """The validity loop for one id K >= 3."""
    k_alpha = 2 * biobj_instance + 1
    k_beta = k_alpha + 1
    while not _pair_is_valid(k_alpha, k_beta):
        k_beta += 1
    return (k_alpha, k_beta)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

#: Largest instance id: a record file name stays short at any id up to it.
MAX_INSTANCE = 2**32 - 1


@dataclass(frozen=True)
class ProblemId:
    """A suite problem's name; construction raises ValueError unless it is one."""

    pair_index: int
    dim: int
    instance: int

    def __post_init__(self):
        unpair(self.pair_index)  # raises outside 1..55
        if self.dim not in SUITE_DIMS:
            raise ValueError(f"dimension {self.dim} is not in {SUITE_DIMS}")
        if not 1 <= self.instance <= MAX_INSTANCE:
            raise ValueError(f"instance id {self.instance} is not in 1..{MAX_INSTANCE}")

    def __str__(self) -> str:
        return f"k{self.pair_index:02d}_d{self.dim:02d}_i{self.instance:02d}"


@dataclass(frozen=True, eq=False)
class BiObjProblem:
    """A bi-objective problem: two base instances plus ideal/nadir points.

    A problem is immutable and ``evaluate`` has no side effect, so one
    handle may be shared by any number of runs; each run counts its own
    evaluations against its budget.
    """

    id: ProblemId
    alpha: BaseInstance
    beta: BaseInstance
    ideal: tuple[float, float]
    nadir: tuple[float, float]

    def evaluate(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Both objective values at each row of ``X`` (shape (N, D)), as two
        arrays of shape (N,)."""
        return evaluate_base(self.alpha, X), evaluate_base(self.beta, X)


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
    # Python floats, as the manifest and record headers print their repr.
    nadir = (
        float(evaluate_base(alpha, beta.x_opt[None])[0]),
        float(evaluate_base(beta, alpha.x_opt[None])[0]),
    )
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
    pid = ProblemId(pair_idx, dim, instance)
    return BiObjProblem(pid, *_build(pair_idx, dim, *instance_map(instance)))


#: Most problems one ``enumerate_suite`` call may select.
MAX_PROBLEMS = 10**6


def enumerate_suite(
    functions=None, dims=None, instances=None
) -> list[ProblemId]:
    """Ordered problem ids: dimension-major, then pair index, then instance.

    Unfiltered, this is the full 55 x 6 x 10 = 3300-problem suite.  A filter
    value that names no suite problem raises ValueError (from ProblemId), and
    so do filters that select over ``MAX_PROBLEMS`` problems, before any id is built.
    """
    funcs = sorted(set(functions)) if functions is not None else range(1, N_PAIRS + 1)
    ds = sorted(set(dims)) if dims is not None else SUITE_DIMS
    insts = (
        sorted(set(instances))
        if instances is not None
        else range(1, N_INSTANCES + 1)
    )
    if len(funcs) * len(ds) * len(insts) > MAX_PROBLEMS:
        raise ValueError(f"the filters select more than {MAX_PROBLEMS} problems")
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
            f"{_xopt_checksum(p.alpha)} {_xopt_checksum(p.beta)} "
            f"{group_of(pid.pair_index)}"
        )
    return lines
