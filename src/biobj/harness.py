"""Baseline optimizers, run records, and the experiment runner.

A run produces a RunRecord: an evaluation-indexed trace of normalized
hypervolume at archive-change events plus the final archive.  RunRecord owns
the line-oriented ``.rec`` text format (``to_text``/``from_text``), so re-runs
with identical configuration write byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constants import PENALTY_EDGE, UNMAPPED_BYTES
from .indicator import Archive, check_bounds, hypervolume
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

#: Optimizer names; an optimizer's position here tags its random stream.
OPTIMIZERS = ("random-search", "archive-evolver")


class RecordError(ValueError):
    """A record's text is malformed or violates the trace or archive invariants."""


def check_run_settings(optimizer: str, seed: int, budget: int, sigma=None) -> None:
    """The rule for a run's settings; raises ValueError naming the bad one.

    ``sigma``, the archive evolver's step size, is checked when given.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZERS}")
    if seed < 0:
        raise ValueError(f"seeds must be non-negative, got {seed}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if sigma is not None and not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


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
    ideal: tuple[float, float]
    nadir: tuple[float, float]
    trace: list[tuple[int, float]]
    archive: list[tuple[float, ...]]
    sigma: float | None = None

    @property
    def group(self) -> str:
        return group_of(self.problem.pair_index)

    @property
    def final_hv(self) -> float:
        return self.trace[-1][1]

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
        values = {}
        for line in lines[:at_trace]:
            key, sep, raw = line.partition(": ")
            if not sep or key not in _HEADER or key in values:
                raise RecordError(f"malformed header line {line!r}")
            values[key] = _parse(_HEADER[key], raw, key)
        for key in tuple(_HEADER)[:-1]:  # all but the optional sigma
            if key not in values:
                raise RecordError(f"missing header field {key!r}")

        try:  # the header must name a suite problem
            problem = ProblemId(
                values.pop("pair_index"), values.pop("dim"), values.pop("instance")
            )
        except ValueError as exc:
            raise RecordError(str(exc)) from None
        group = values.pop("group")
        record = cls(
            problem,
            trace=_parse_lines(
                _trace_point, lines[at_trace + 1 : at_archive], "trace line"
            ),
            archive=_parse_lines(_floats, lines[at_archive + 1 :], "archive line"),
            **values,
        )
        if group != record.group:
            raise RecordError(f"group {group!r} is not that of pair {problem.pair_index}")
        try:
            check_run_settings(record.optimizer, record.seed, record.budget, record.sigma)
            check_bounds(record.ideal, record.nadir)
        except ValueError as exc:
            raise RecordError(str(exc)) from None
        if (record.sigma is None) == (record.optimizer == "archive-evolver"):
            raise RecordError("'sigma:' belongs in exactly the archive-evolver records")
        # A run of budget >= 1 inserts its first finite row, and every insert
        # writes a trace line and leaves the archive non-empty.
        if not (record.trace and record.archive):
            raise RecordError("the trace and the archive must not be empty")
        prev_i, prev_hv = 0, 0.0
        for i, hv in record.trace:
            # NaN fails the >=; -0.0 passes it and would print as -0.000000.
            if not (i > prev_i and hv >= prev_hv) or (
                hv == 0.0 and math.copysign(1.0, hv) < 0.0
            ):
                raise RecordError(
                    f"trace line {i} {hv!r}: indices must increase from 1 "
                    "and values must not decrease from 0 or be -0.0"
                )
            prev_i, prev_hv = i, hv
        if record.trace[-1][0] > record.budget:
            raise RecordError("trace exceeds budget")
        (ia, ib), (na, nb) = record.ideal, record.nadir
        width = 4 + problem.dim
        pa, pb = -math.inf, math.inf
        for n, row in enumerate(record.archive, 1):
            if len(row) != width:
                raise RecordError(
                    f"archive row has {len(row)} values, expected {width}"
                )
            a, b, f1, f2 = row[:4]
            # Archive.insert's rule; an infinite f1 passes the check below.
            if not (math.isfinite(f1) and math.isfinite(f2)):
                raise RecordError(f"archive row {n} f1 f2 {(f1, f2)!r} must be finite")
            # indicator.normalize's arithmetic, inlined: this loop is the
            # per-row cost of every summarize.
            if (f1 - ia) / (na - ia) != a or (f2 - ib) / (nb - ib) != b:
                raise RecordError(
                    f"archive row a_norm b_norm {(a, b)!r} are not its f1 f2 "
                    "normalized by ideal and nadir"
                )
            if not (a > pa and b < pb):
                raise RecordError("archive rows are not mutually non-dominated")
            pa, pb = a, b
        hv = hypervolume(row[:2] for row in record.archive)
        if not abs(hv - record.final_hv) <= 1e-12:
            raise RecordError(f"final hypervolume {record.final_hv!r} != {hv!r}")
        return record


def _parse(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise RecordError(f"malformed {what}: {text!r}") from None


def _parse_lines(kind, lines: list[str], what: str) -> list:
    """``kind`` of each line, in one loop: the bulk of a record's parse."""
    out = []
    for line in lines:
        try:
            out.append(kind(line))
        except ValueError:
            raise RecordError(f"malformed {what}: {line!r}") from None
    return out


def _float_pair(text: str) -> tuple[float, float]:
    a, b = text.split()
    return float(a), float(b)


def _trace_point(text: str) -> tuple[int, float]:
    i, hv = text.split()
    return int(i), float(hv)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split()))


#: Each header key, in file order, and its parser; ``sigma`` is optional.
_HEADER = {
    "pair_index": int, "dim": int, "instance": int, "group": str,
    "optimizer": str, "seed": int, "budget": int,
    "ideal": _float_pair, "nadir": _float_pair, "sigma": float,
}


#: Most rows the archive evolver proposes from one archive and evaluates as
#: one block.  On D = 40 cells the archive changes every 4 to 6 evaluations
#: (median), and blocks of 16 or 32 rows ran slower: more rows are dropped.
SPEC = 8


def run_optimizer(
    name: str, problem: BiObjProblem, budget: int, seed: int, sigma: float = DEFAULT_SIGMA
) -> RunRecord:
    """Run optimizer ``name`` for ``budget`` evaluations; trace each archive
    change.  ``sigma`` is the archive evolver's step size; random search
    ignores it and records None.

    Each block of rows from ``_propose`` is evaluated as one batch and its
    rows are offered to ``Archive.insert`` in order.  A block whose rows do
    not depend on the archive is first passed through ``Archive.screen``,
    and only the rows it returns are offered; ``insert`` would reject the
    others.  When the rows depend on the archive, the rows after one that
    changes it are dropped and not counted, and the stream is rewound to
    that row's mark, so the record has the same bytes for any block sizes.
    Raises ValueError unless the settings pass ``check_run_settings``.
    """
    if name == "random-search":
        sigma = None
    check_run_settings(name, seed, budget, sigma)
    pid = problem.id
    rng = np.random.default_rng(
        [seed, pid.pair_index, pid.dim, pid.instance, OPTIMIZERS.index(name)]
    )
    archive = Archive(problem.ideal, problem.nadir)
    trace: list[tuple[int, float]] = []
    i = 0
    while i < budget:
        X, marks = _propose(archive, rng, budget - i, pid.dim, sigma)
        fa, fb = problem.evaluate(X)
        # Only rows that do not depend on the archive are screened; on
        # evolver blocks (up to SPEC rows) the screen cost more than it saved.
        rows = archive.screen(fa, fb) if marks is None else range(len(X))
        used = len(X)
        for j in rows:
            if archive.insert(X[j], (fa[j], fb[j])):
                trace.append((i + j + 1, archive.hypervolume_value))
                if marks is not None:
                    used = j + 1
                    break
        if used < len(X):
            rng.bit_generator.state = marks[used - 1]
            problem.eval_count -= len(X) - used
        i += used
    return RunRecord(
        problem=pid,
        optimizer=name,
        seed=seed,
        budget=budget,
        ideal=problem.ideal,
        nadir=problem.nadir,
        trace=trace,
        archive=archive.rows,
        sigma=sigma,
    )


def _propose(archive: Archive, rng: np.random.Generator, left: int, d: int, sigma):
    """The next block of 1 to ``left`` rows, and the marks of its rows.

    Random search (``sigma`` None) draws as many uniform points of [-5, 5]^d
    in one call as keep the (rows, d) block under UNMAPPED_BYTES, which takes
    the same stream values as one call per point; its rows do not depend on
    the archive, so it has no marks.  The archive evolver mutates up to SPEC
    uniformly chosen archive members by Gaussian steps, marking each row with
    the state of ``rng``'s bit generator after it; with an empty archive it
    draws one uniform point.
    """
    xs = archive.xs
    if sigma is None or not xs:
        n = 1 if sigma is not None else min(left, max(1, UNMAPPED_BYTES // (8 * d)))
        return rng.uniform(-PENALTY_EDGE, PENALTY_EDGE, (n, d)), None
    steps = np.empty((min(left, SPEC), d))
    parents, marks = [], []
    for step in steps:
        parents.append(xs[rng.integers(len(xs))])
        rng.standard_normal(out=step)
        marks.append(rng.bit_generator.state)
    return np.array(parents) + sigma * steps, marks


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
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
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
        if not (self.optimizers and self.seeds):
            raise ValueError("at least one optimizer and one seed are required")
        # A repeated name or seed would run its cells again: keep the first.
        self.optimizers = tuple(dict.fromkeys(self.optimizers))
        self.seeds = tuple(dict.fromkeys(self.seeds))
        # A cell's budget is budget_multiplier x D with D >= 2, so every
        # budget passes the rule iff the multiplier does.
        for name in self.optimizers:
            for seed in self.seeds:
                check_run_settings(name, seed, self.budget_multiplier, self.sigma)
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
