"""Bi-objective black-box benchmark suite with hypervolume-based assessment.

55 bi-objective functions built by pairing 10 classic single-objective
test functions, with seeded reproducible instances, ideal/nadir
bookkeeping, an exact 2-D hypervolume archive, and a small optimizer
harness behind the ``biobj`` CLI.
"""

from .base_functions import (
    BASE_FUNCTION_IDS,
    BASE_FUNCTION_NAMES,
    BaseInstance,
    evaluate_base,
    instantiate_base,
)
from .indicator import Archive, hypervolume, normalize
from .suite import (
    BiObjProblem,
    ProblemId,
    enumerate_suite,
    group_of,
    instance_map,
    instantiate_problem,
    pair_index,
    unpair,
)

__all__ = [
    "Archive",
    "BASE_FUNCTION_IDS",
    "BASE_FUNCTION_NAMES",
    "BaseInstance",
    "BiObjProblem",
    "ProblemId",
    "enumerate_suite",
    "evaluate_base",
    "group_of",
    "hypervolume",
    "instance_map",
    "instantiate_base",
    "instantiate_problem",
    "normalize",
    "pair_index",
    "unpair",
]

__version__ = "0.1.0"
