"""Baseline optimizers, run records, and the experiment runner.

A run produces a RunRecord: an evaluation-indexed trace of normalized
hypervolume at archive-change events plus the final archive.  RunRecord owns
the line-oriented ``.rec`` text format (``to_text``/``from_text``), so re-runs
with identical configuration write byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .constants import PENALTY_EDGE
from .indicator import Archive, hypervolume
from .suite import (
    BiObjProblem,
    ProblemId,
    enumerate_suite,
    group_of,
    instantiate_problem,
    manifest_lines,
)

DEFAULT_BUDGET_MULTIPLIER = 1000
DEFAULT_SEEDS = tuple(range(1, 16))
DEFAULT_SIGMA = 0.5

OPTIMIZERS = ("random-search", "archive-evolver")


class RecordError(ValueError):
    """A record's text is malformed or violates the trace or archive invariants."""


#: Required header keys, in file order; an optional ``sigma`` may follow.
_HEADER_FIELDS = (
    "pair_index", "dim", "instance", "group", "optimizer", "seed", "budget",
    "ideal", "nadir",
)


@dataclass
class RunRecord:
    """One run: problem, optimizer settings, trace and final archive.

    ``trace`` holds (evaluation index, normalized hypervolume) at every
    archive change.  ``archive`` holds the final archive, one tuple of plain
    floats per entry: ``(a_norm, b_norm, f1, f2, x_1, ..., x_D)``.  The text
    form (``to_text``/``from_text``) is the ``.rec`` file format.
    """

    problem: ProblemId
    optimizer: str
    seed: int
    budget: int
    group: str
    ideal: tuple[float, float]
    nadir: tuple[float, float]
    trace: list[tuple[int, float]]
    archive: list[tuple[float, ...]]
    sigma: float | None = None

    @property
    def final_hv(self) -> float:
        return self.trace[-1][1] if self.trace else 0.0

    @property
    def objectives(self) -> list[tuple[float, float]]:
        """Raw objective values (f1, f2) of the final archive entries."""
        return [(row[2], row[3]) for row in self.archive]

    def to_text(self) -> str:
        pid = self.problem
        lines = [
            f"pair_index: {pid.pair_index}",
            f"dim: {pid.dim}",
            f"instance: {pid.instance}",
            f"group: {self.group}",
            f"optimizer: {self.optimizer}",
            f"seed: {self.seed}",
            f"budget: {self.budget}",
            f"ideal: {self.ideal[0]!r} {self.ideal[1]!r}",
            f"nadir: {self.nadir[0]!r} {self.nadir[1]!r}",
        ]
        if self.sigma is not None:
            lines.append(f"sigma: {self.sigma!r}")
        lines.append("trace:")
        lines += [f"{i} {hv!r}" for i, hv in self.trace]
        lines.append("archive:")
        lines += [" ".join(map(repr, row)) for row in self.archive]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> RunRecord:
        """Parse the output of ``to_text``; raises RecordError when malformed."""
        lines = text.splitlines()
        try:
            at_trace = lines.index("trace:")
            at_archive = lines.index("archive:", at_trace)
        except ValueError:
            raise RecordError("missing 'trace:' or 'archive:' line") from None
        header: dict[str, str] = {}
        for line in lines[:at_trace]:
            key, sep, value = line.partition(": ")
            known = key in _HEADER_FIELDS or key == "sigma"
            if not sep or not known or key in header:
                raise RecordError(f"malformed header line {line!r}")
            header[key] = value
        for key in _HEADER_FIELDS:
            if key not in header:
                raise RecordError(f"missing header field {key!r}")

        problem = ProblemId(
            *(_parse(int, header[k], k) for k in ("pair_index", "dim", "instance"))
        )
        try:  # the header must name a suite problem
            enumerate_suite([problem.pair_index], [problem.dim], [problem.instance])
        except ValueError as exc:
            raise RecordError(str(exc)) from None
        if header["group"] != group_of(problem.pair_index):
            raise RecordError(
                f"group {header['group']!r} is not that of pair {problem.pair_index}"
            )
        record = cls(
            problem=problem,
            optimizer=header["optimizer"],
            seed=_parse(int, header["seed"], "seed"),
            budget=_parse(int, header["budget"], "budget"),
            group=header["group"],
            ideal=_parse(_float_pair, header["ideal"], "ideal"),
            nadir=_parse(_float_pair, header["nadir"], "nadir"),
            trace=[
                _parse(_trace_point, line, "trace line")
                for line in lines[at_trace + 1 : at_archive]
            ],
            archive=[
                _parse(_floats, line, "archive line")
                for line in lines[at_archive + 1 :]
            ],
            sigma=(
                _parse(float, header["sigma"], "sigma") if "sigma" in header else None
            ),
        )
        for prev, cur in zip(record.trace, record.trace[1:]):
            if cur[0] <= prev[0] or cur[1] < prev[1]:
                raise RecordError(f"trace not monotone at eval {cur[0]}")
        if record.trace and record.trace[-1][0] > record.budget:
            raise RecordError("trace exceeds budget")
        width = 4 + problem.dim
        for row in record.archive:
            if len(row) != width:
                raise RecordError(
                    f"archive row has {len(row)} values, expected {width}"
                )
        for prev, cur in zip(record.archive, record.archive[1:]):
            if not (cur[0] > prev[0] and cur[1] < prev[1]):
                raise RecordError("archive rows are not mutually non-dominated")
        hv = hypervolume(row[:2] for row in record.archive)
        if not abs(hv - record.final_hv) <= 1e-12:
            raise RecordError(f"final hypervolume {record.final_hv!r} != {hv!r}")
        return record


def _parse(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise RecordError(f"malformed {what}: {text!r}") from None


def _float_pair(text: str) -> tuple[float, float]:
    a, b = text.split()
    return float(a), float(b)


def _trace_point(text: str) -> tuple[int, float]:
    i, hv = text.split()
    return int(i), float(hv)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split()))


def _run_rng(problem: BiObjProblem, seed: int, tag: int) -> np.random.Generator:
    pid = problem.id
    return np.random.default_rng(
        [seed, pid.pair_index, pid.dim, pid.instance, tag]
    )


def _run(problem, budget, seed, optimizer, propose, sigma=None) -> RunRecord:
    """Evaluate ``budget`` points from ``propose(archive)``; trace each change."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    archive = Archive(problem.ideal, problem.nadir)
    trace: list[tuple[int, float]] = []
    for i in range(1, budget + 1):
        x = propose(archive)
        if archive.insert(x, problem.evaluate(x)):
            trace.append((i, archive.hypervolume_value))
    return RunRecord(
        problem=problem.id,
        optimizer=optimizer,
        seed=seed,
        budget=budget,
        group=problem.group,
        ideal=problem.ideal,
        nadir=problem.nadir,
        trace=trace,
        archive=[
            (*e.normalized, *e.objectives, *e.x.tolist()) for e in archive.entries
        ],
        sigma=sigma,
    )


def run_random_search(problem: BiObjProblem, budget: int, seed: int) -> RunRecord:
    """Uniform sampling in [-5, 5]^D; exactly ``budget`` evaluations."""
    rng = _run_rng(problem, seed, 0)
    d = problem.dim
    return _run(
        problem, budget, seed, "random-search",
        lambda archive: rng.uniform(-PENALTY_EDGE, PENALTY_EDGE, d),
    )


def run_archive_evolver(
    problem: BiObjProblem,
    budget: int,
    seed: int,
    step_sigma: float = DEFAULT_SIGMA,
) -> RunRecord:
    """Mutate uniformly chosen archive members with Gaussian steps."""
    if step_sigma <= 0:
        raise ValueError(f"step sigma must be positive, got {step_sigma}")
    rng = _run_rng(problem, seed, 1)
    d = problem.dim

    def propose(archive: Archive) -> np.ndarray:
        if archive.entries:
            parent = archive.entries[rng.integers(len(archive.entries))].x
            return parent + step_sigma * rng.standard_normal(d)
        return rng.uniform(-PENALTY_EDGE, PENALTY_EDGE, d)

    return _run(problem, budget, seed, "archive-evolver", propose, step_sigma)


def run_optimizer(
    name: str, problem: BiObjProblem, budget: int, seed: int, sigma: float = DEFAULT_SIGMA
) -> RunRecord:
    if name == "random-search":
        return run_random_search(problem, budget, seed)
    if name == "archive-evolver":
        return run_archive_evolver(problem, budget, seed, sigma)
    raise ValueError(f"unknown optimizer {name!r}; expected one of {OPTIMIZERS}")


# ---------------------------------------------------------------------------
# Record files
# ---------------------------------------------------------------------------


def record_filename(record: RunRecord) -> str:
    return f"{record.problem}_{record.optimizer}_s{record.seed:03d}.rec"


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file and a rename.

    The temp file is created by ``open``, so the result gets the mode a
    plain ``open(path, "w")`` gives under the current umask.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(record: RunRecord, directory: str) -> str:
    """Atomically write one record file; returns its path."""
    path = os.path.join(directory, record_filename(record))
    _write_atomic(path, record.to_text())
    return path


def read_record(path: str) -> RunRecord:
    """Read and validate one record file; RecordError names the path."""
    try:
        with open(path) as fh:
            text = fh.read()
        return RunRecord.from_text(text)
    except (RecordError, UnicodeDecodeError) as exc:
        raise RecordError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    out_dir: str
    functions: tuple[int, ...] | None = None
    dims: tuple[int, ...] | None = None
    instances: tuple[int, ...] | None = None
    optimizers: tuple[str, ...] = ("random-search",)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    budget_multiplier: int = DEFAULT_BUDGET_MULTIPLIER
    sigma: float = DEFAULT_SIGMA
    problem_ids: list = field(init=False)

    def __post_init__(self):
        if self.budget_multiplier < 1:
            raise ValueError("budget multiplier must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        for name in self.optimizers:
            if name not in OPTIMIZERS:
                raise ValueError(f"unknown optimizer {name!r}")
        self.problem_ids = enumerate_suite(self.functions, self.dims, self.instances)
        if not self.problem_ids:
            raise ValueError("experiment filters select no problems")


def run_experiment(config: ExperimentConfig, progress=None) -> str:
    """Execute all (problem, optimizer, seed) cells; returns the results dir.

    Re-running with the same configuration overwrites the same files with
    identical bytes.  Each cell owns a fresh problem handle, so its final
    evaluation count equals the budget exactly.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    manifest_path = os.path.join(config.out_dir, "manifest.txt")
    _write_atomic(manifest_path, "\n".join(manifest_lines(config.problem_ids)) + "\n")

    for pid in config.problem_ids:
        budget = config.budget_multiplier * pid.dim
        for optimizer in config.optimizers:
            for seed in config.seeds:
                problem = instantiate_problem(pid.pair_index, pid.dim, pid.instance)
                record = run_optimizer(optimizer, problem, budget, seed, config.sigma)
                if problem.eval_count != budget:
                    raise RuntimeError(
                        f"{optimizer} made {problem.eval_count} evaluations on "
                        f"{pid}, budget {budget}"
                    )
                write_record(record, config.out_dir)
                if progress is not None:
                    progress(record)
    return config.out_dir
