"""Spans around the calls into each biobj module, recorded from outside.

``install`` replaces module attributes of the program with wrappers.  Each
wrapped call records one span: its name, start, end and the span that was
open when it began (its parent).  Spans are kept in flat arrays in memory
and written to an ``.npz`` file when the repetition ends.  A span's self
time is its duration minus the durations of its direct children.

Only the standard library is imported at module level, so importing this
file before ``import biobj`` does not pre-load numpy.
"""

from __future__ import annotations

import os
import time
from array import array

BASE_FUNCTION_IDS = (1, 2, 6, 8, 13, 14, 15, 17, 20, 21)

SPAN_NAMES = (
    "transforms.t_osz",
    "transforms.t_asy",
    "transforms.boundary_penalty",
    "transforms.random_rotation",
    "base_functions.instantiate_base",
    *(f"base_functions.evaluate_base.f{fn}" for fn in BASE_FUNCTION_IDS),
    "suite.instantiate_problem",
    "suite.evaluate",
    "indicator.insert",
    "harness.optimizer",
    "harness.manifest",
    "harness.write_record",
    "harness.read_record",
    "report.summarize",
)


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.inserts_accepted = 0
        self.archive_size_sum = 0
        self.record_bytes = 0

    def wrap(self, fn, name, pick=None, post=None):
        """Wrap ``fn`` so each call records a span.

        ``pick(args)`` chooses the span name per call; ``post(args, result)``
        updates a counter after the span ends.
        """
        nid = self.ids[name] if name is not None else -1
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid if pick is None else pick(args))
            parents.append(open_spans[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t
                open_spans.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self_time = dur - child_time
        n = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {
            span: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, span in enumerate(SPAN_NAMES)
        }


def _patch(obj, attr: str, make) -> None:
    # A missing attribute is left alone: its layer then sees zero calls and
    # is reported as unmeasured instead of crashing the repetition.
    if hasattr(obj, attr):
        setattr(obj, attr, make(getattr(obj, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every call site the benchmark measures, where it is looked up."""
    from biobj import base_functions, harness, indicator, report, suite

    for fn_name in ("t_osz", "t_asy", "boundary_penalty", "random_rotation"):
        _patch(base_functions, fn_name,
               lambda f, n=fn_name: tracer.wrap(f, f"transforms.{n}"))
    _patch(suite, "instantiate_base",
           lambda f: tracer.wrap(f, "base_functions.instantiate_base"))
    by_fn = {
        fn: tracer.ids[f"base_functions.evaluate_base.f{fn}"] for fn in BASE_FUNCTION_IDS
    }
    _patch(suite, "evaluate_base",
           lambda f: tracer.wrap(f, None, pick=lambda args: by_fn[args[0].fn]))
    instantiate = tracer.wrap(suite.instantiate_problem, "suite.instantiate_problem")
    suite.instantiate_problem = harness.instantiate_problem = instantiate
    _patch(suite.BiObjProblem, "evaluate", lambda f: tracer.wrap(f, "suite.evaluate"))

    def count_insert(args, accepted):
        tracer.inserts_accepted += bool(accepted)
        tracer.archive_size_sum += len(args[0])

    _patch(indicator.Archive, "insert",
           lambda f: tracer.wrap(f, "indicator.insert", post=count_insert))
    _patch(harness, "run_optimizer", lambda f: tracer.wrap(f, "harness.optimizer"))
    _patch(harness, "manifest_lines", lambda f: tracer.wrap(f, "harness.manifest"))

    def count_bytes(args, path):
        tracer.record_bytes += os.path.getsize(path)

    _patch(harness, "write_record",
           lambda f: tracer.wrap(f, "harness.write_record", post=count_bytes))
    read = tracer.wrap(harness.read_record, "harness.read_record")
    harness.read_record = report.read_record = read
    _patch(report, "summarize", lambda f: tracer.wrap(f, "report.summarize"))


def layer_metrics(tracer: Tracer, cell_ms: list[float], cache_info) -> dict:
    """The per-layer metrics of one repetition; None where a layer saw no call.

    ``cache_info`` is ``instantiate_base.cache_info()`` at the end of the
    repetition, which started from an empty cache (None if it has none).
    """
    stats = tracer.layer_stats()
    out: dict = {}

    def put(span, metric, value):
        out[f"{span}.{metric}"] = value if stats[span]["calls"] else None

    def per_call(span, key, scale):
        calls = stats[span]["calls"]
        return stats[span][key] / calls * scale if calls else None

    for span in ("transforms.t_osz", "transforms.t_asy", "transforms.boundary_penalty"):
        put(span, "calls", stats[span]["calls"])
        put(span, "us_per_call", per_call(span, "s", 1e6))
    for span in ("transforms.random_rotation", "base_functions.instantiate_base",
                 "suite.instantiate_problem"):
        put(span, "calls", stats[span]["calls"])
        put(span, "s", stats[span]["s"])
    lookups = cache_info.hits + cache_info.misses if cache_info else 0
    put("base_functions.instantiate_base", "hit_ratio",
        cache_info.hits / lookups if lookups else None)
    for span in (*(f"base_functions.evaluate_base.f{fn}" for fn in BASE_FUNCTION_IDS),
                 "suite.evaluate"):
        put(span, "calls", stats[span]["calls"])
        put(span, "self_us_per_call", per_call(span, "self_s", 1e6))
    inserts = stats["indicator.insert"]["calls"]
    put("indicator.insert", "calls", inserts)
    put("indicator.insert", "us_per_call", per_call("indicator.insert", "s", 1e6))
    put("indicator.insert", "accept_ratio", tracer.inserts_accepted / max(inserts, 1))
    out["indicator.archive_size.mean"] = (
        tracer.archive_size_sum / inserts if inserts else None
    )
    put("harness.optimizer", "self_s", stats["harness.optimizer"]["self_s"])
    if cell_ms:
        out["harness.cell_ms.p50"] = _percentile(cell_ms, 50)
        out["harness.cell_ms.p90"] = _percentile(cell_ms, 90)
    else:
        out["harness.cell_ms.p50"] = out["harness.cell_ms.p90"] = None
    put("harness.manifest", "s", stats["harness.manifest"]["s"])
    writes = stats["harness.write_record"]["calls"]
    put("harness.write_record", "ms_per_call", per_call("harness.write_record", "s", 1e3))
    put("harness.write_record", "bytes", tracer.record_bytes / max(writes, 1))
    put("harness.read_record", "ms_per_call", per_call("harness.read_record", "s", 1e3))
    put("report.summarize", "self_s", stats["report.summarize"]["self_s"])
    return out


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))
