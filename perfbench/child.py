"""One repetition of a workload, run by run.py in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

Each repetition starts cold, as a real ``biobj run`` or ``biobj summarize``
does: nothing is imported yet and the ``instantiate_base`` cache is empty.
The spec names the kind of repetition:

- ``run``: ``harness.run_experiment`` on the spec's config, then the gate on
  the records it wrote;
- ``setup``: the same, stopped when the first cell starts;
- ``summarize``: one ``report.summarize`` of ``records_dir``.

With ``trace`` set, ``tracer.install`` wraps the program's layers first and
the per-layer metrics are part of the result.  The result is printed as one
JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import gate
import tracer as tracing


class _FirstCell(Exception):
    """Raised to stop a ``setup`` repetition when its first cell starts."""


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    from biobj import base_functions, harness, report

    t_import = time.perf_counter()
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if spec["kind"] == "summarize":
        t1 = time.perf_counter()
        table = report.summarize(spec["records_dir"])
        t_end = time.perf_counter()
        result = {
            "setup_s": t_import - t0,
            "summary": gate.byte_digest("\n".join(table).encode()),
            "summarized": gate.summarized_runs(table),
        }
        cell_s = [t_end - t1]
    else:
        cell_start = []
        cell_end = []
        instantiate = harness.instantiate_problem

        def first_cell(*args, **kwargs):
            if not cell_start:
                cell_start.append(time.perf_counter())
                if spec["kind"] == "setup":
                    raise _FirstCell
            return instantiate(*args, **kwargs)

        harness.instantiate_problem = first_cell
        config = harness.ExperimentConfig(
            out_dir=spec["out_dir"],
            **{k: tuple(v) if isinstance(v, list) else v for k, v in spec["config"].items()},
        )
        try:
            harness.run_experiment(
                config, progress=lambda record: cell_end.append(time.perf_counter())
            )
        except _FirstCell:
            return {"setup_s": cell_start[0] - t0}
        t_end = time.perf_counter()
        result = {"setup_s": cell_start[0] - t0}
        cell_s = [b - a for a, b in zip(cell_start + cell_end, cell_end)]
    result["cell_s"] = cell_s
    result["wall_s"] = t_end - t0
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["kind"] == "run":
        result.update(gate.check_records(spec["out_dir"]))
    if tracer is not None:
        cache_info = getattr(base_functions.instantiate_base, "cache_info", None)
        result["layers"] = tracing.layer_metrics(
            tracer, [1e3 * t for t in cell_s] if spec["kind"] == "run" else [],
            cache_info() if cache_info else None,
        )
        tracer.save(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
