"""The biobj benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size default|tiny]
    python3 perfbench/run.py --workload NAME --pin

Workloads (README.md in this directory says why each one exists):

- ``run-d2-random``: ``harness.run_experiment``, random search, D=2, all 55
  pairs, default budget (2000 evaluations per cell);
- ``run-d40-evolver``: ``harness.run_experiment``, archive evolver, D=40,
  five pairs that use each of the 10 base functions once;
- ``summarize-records``: ``report.summarize`` over a results directory with
  both optimizers at all six dimensions, written once per invocation and
  not timed.

``--seed`` chooses the pairs' instance id, the optimizer seed and, where the
workload uses five pairs, the pairing.  The program receives only the
generated ``ExperimentConfig``.  Every repetition runs in a fresh
interpreter (child.py), one at a time, for about ``--seconds`` seconds.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics are printed.  Either way every record is gated (gate.py)
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--pin`` re-pins the
semantic record digests of the default seed in pinned.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
PINS = HERE / "pinned.json"

WORKLOADS = ("run-d2-random", "run-d40-evolver", "summarize-records")
DEFAULT_SEED = 1
MIN_REPS = 3
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 100


def pair_index(i: int, j: int) -> int:
    """Suite pair index of base-function positions 1 <= i <= j <= 10."""
    return (i - 1) * 10 - (i - 1) * (i - 2) // 2 + (j - i + 1)


def make_config(workload: str, seed: int, size: str = "default") -> dict:
    """The ExperimentConfig fields (minus ``out_dir``) a workload runs."""
    rng = random.Random(seed)
    instance = rng.randint(1, 10)
    opt_seed = rng.randint(1, 999)
    order = list(range(1, 11))
    rng.shuffle(order)
    # Five pairs that use each base function exactly once.
    matching = sorted(pair_index(min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2]))
    tiny = size == "tiny"
    common = {"instances": [instance], "seeds": [opt_seed]}
    if workload == "run-d2-random":
        return {"functions": matching if tiny else None, "dims": [2],
                "optimizers": ["random-search"],
                "budget_multiplier": 50 if tiny else 1000, **common}
    if workload == "run-d40-evolver":
        return {"functions": matching, "dims": [40], "optimizers": ["archive-evolver"],
                "budget_multiplier": 5 if tiny else 100, **common}
    return {"functions": matching if tiny else None, "dims": None,
            "optimizers": ["random-search", "archive-evolver"],
            "budget_multiplier": 2 if tiny else 10, **common}


def cells_and_evals(config: dict) -> tuple[int, int]:
    """Number of cells of a config and their total evaluation budget."""
    n_pairs = len(config["functions"]) if config["functions"] is not None else 55
    dims = config["dims"] if config["dims"] is not None else (2, 3, 5, 10, 20, 40)
    per_dim = n_pairs * len(config["instances"]) * len(config["optimizers"]) * len(config["seeds"])
    return per_dim * len(dims), sum(per_dim * config["budget_multiplier"] * d for d in dims)


def run_child(spec: dict) -> dict | None:
    """Run one repetition in a fresh interpreter; None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_failures(rep: dict, reference: dict, pins: dict | None, expected: int) -> int:
    """Cells of one repetition whose records fail the gate.

    A record fails when ``gate.check_records`` rejected it, when its bytes
    differ from the reference repetition's, or when its semantic digest
    differs from the pinned one.  Records never written, and records that
    passed but that ``report.summarize`` did not count, fail too.  A
    manifest that differs from the reference fails every cell.
    """
    if rep["manifest"] != reference["manifest"]:
        return expected
    present = set(rep["bytes"])
    failed = set(rep["failures"])
    failed.update(n for n in present if reference["bytes"].get(n) != rep["bytes"][n])
    if pins is not None:
        failed.update(n for n in set(pins) | present if pins.get(n) != rep["semantic"].get(n))
    unsummarized = max(len(present - failed) - rep["summarized"], 0)
    lost = max(expected - len(present), len(failed - present))
    return min(expected, len(failed & present) + lost + unsummarized)


class Measurement:
    """The repetitions of one benchmark invocation and their gate results."""

    def __init__(self, workload: str, seed: int, size: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.config = make_config(workload, seed, size)
        self.cells, self.evals = cells_and_evals(self.config)
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.pins = pins.get(workload) if seed == DEFAULT_SEED and size == "default" else None
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.reps: list[dict] = []  # timed repetitions that completed
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None  # first completed output
        self.records: dict | None = None  # summarize-records: the gated input
        self.bad_records = 0  # summarize-records: input records failing the gate

    def spec(self, kind: str, traced: bool, n: int) -> dict:
        return {"kind": kind, "trace": traced, "config": self.config,
                "out_dir": str(self.work / f"rep{n}"),
                "records_dir": str(self.work / "records"),
                "spans_path": str(self.work / "spans.npz")}

    def prepare(self) -> bool:
        """Warm the bytecode cache; for summarize-records write its input."""
        if self.workload != "summarize-records":
            return run_child(self.spec("setup", False, 0)) is not None
        spec = self.spec("run", self.trace, 0)
        spec["out_dir"] = spec["records_dir"]
        self.records = run_child(spec)
        if self.records is None:
            return False
        self.bad_records = record_failures(self.records, self.records, self.pins, self.cells)
        return True

    def repetition(self, traced: bool) -> None:
        n = len(self.reps) + 1
        kind = "summarize" if self.records is not None else "run"
        rep = run_child(self.spec(kind, traced, n))
        shutil.rmtree(self.work / f"rep{n}", ignore_errors=True)
        self.attempted += self.cells
        if rep is None:
            self.failed += self.cells
            return
        rep["traced"] = traced
        if self.reference is None:
            self.reference = rep
        if kind == "summarize":
            # Every repetition reads every record, so a bad record fails in each.
            good = self.cells - self.bad_records
            if rep["summary"] != self.reference["summary"] or rep["summarized"] != good:
                self.failed += self.cells
            else:
                self.failed += self.bad_records
        else:
            self.failed += record_failures(rep, self.reference, self.pins, self.cells)
        self.reps.append(rep)
        self.setup_samples.append(rep["setup_s"])

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            elapsed = time.perf_counter() - start
            enough = len(durations) >= (2 if self.trace else MIN_REPS)
            if enough and elapsed + statistics.median(durations) > seconds:
                break
            # A program slow enough to need more than twice the time stops
            # early, so a run still ends well within its time limit.
            if durations and elapsed + max(durations) > 2 * seconds:
                break
            t = time.perf_counter()
            self.repetition(self.trace and len(durations) % 2 == 1)
            durations.append(time.perf_counter() - t)
        if self.trace or self.records is not None:
            return
        while len(self.setup_samples) < MIN_SETUP_SAMPLES:
            rep = run_child(self.spec("setup", False, 0))
            if rep is None:
                break
            self.setup_samples.append(rep["setup_s"])

    def clean(self) -> None:
        """Remove the records written; keep the last traced run's spans."""
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    def end_to_end(self) -> dict:
        untraced = [r for r in self.reps if not r["traced"]]
        # Each cell's median time over the run's repetitions, summed (for
        # summarize-records, the median time of its one summarize call).
        # Per cell, a repetition slowed by the host in one cell still
        # counts with its other cells.
        n_cells = min(len(r["cell_s"]) for r in untraced)
        run_s = sum(statistics.median(r["cell_s"][c] for r in untraced) for c in range(n_cells))
        return {
            "evals_per_s": self.evals / run_s,
            "records_per_s": self.cells / run_s,
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in untraced) / 1024.0,
        }

    def per_layer(self) -> dict:
        traced = [r["layers"] for r in self.reps if r["traced"]]
        untraced = [r["wall_s"] for r in self.reps if not r["traced"]]
        sources = [traced]
        if self.records is not None:
            sources.append([self.records["layers"]])
        out = {}
        for name in traced[0]:
            for reps in sources:
                values = [layers[name] for layers in reps if layers[name] is not None]
                if values:
                    out[name] = statistics.median_low(values)
                    break
            else:
                out[name] = None
        out["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in self.reps if r["traced"])
            / statistics.median(untraced) - 1.0
        )
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    parser.add_argument("--pin", action="store_true",
                        help="write the default seed's record digests to pinned.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biobj" / "__init__.py").is_file():
        print(f"no biobj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pin:
        return pin(args.workload)

    m = Measurement(args.workload, args.seed, args.size, bool(args.trace))
    if not m.prepare():
        print("preparation failed", file=sys.stderr)
        return 1
    m.measure(args.seconds)
    m.clean()
    kinds = {r["traced"] for r in m.reps}
    if kinds != ({False, True} if args.trace else {False}):
        print("no repetition completed", file=sys.stderr)
        return 1
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = m.per_layer() if args.trace else m.end_to_end()
    unmeasured = [d["name"] for d in declared if values.get(d["name"]) is None]
    if unmeasured:
        print("unmeasured (no call reached the layer): " + ", ".join(unmeasured),
              file=sys.stderr)
        return 1
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {m.failed / m.attempted!r} ratio")
    print(f"repetitions {len(m.reps)} setup_samples {len(m.setup_samples)}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


def pin(workload: str) -> int:
    """Record the semantic digests of the default seed's records."""
    m = Measurement(workload, DEFAULT_SEED, "default", False)
    spec = m.spec("run", False, 0)
    if workload == "summarize-records":
        spec["out_dir"] = spec["records_dir"]
    rep = run_child(spec)
    if rep is None or rep["failures"]:
        print(f"cannot pin: {rep and rep['failures']}", file=sys.stderr)
        return 1
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[workload] = rep["semantic"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(m.work, ignore_errors=True)
    print(f"pinned {len(rep['semantic'])} records of {workload}")
    return 0


if __name__ == "__main__":
    # As SystemExit, a SIGTERM makes subprocess.run kill and reap the
    # repetition in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
