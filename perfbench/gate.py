"""Correctness gate for the records a workload writes.

A record passes when ``harness.read_record`` accepts it and its final
hypervolume equals ``indicator.hypervolume`` recomputed from its archive to
within ``HV_TOLERANCE``.  Each record also gets two digests: the sha256 of
its bytes (compared across repetitions, so traced and untraced runs must
write identical files) and a semantic digest of its final hypervolume and
archive objective values (compared with the digests pinned in
``pinned.json``).  Both digests and the hypervolume check read the ``.rec``
text with this file's own parser, so a change of the program's record type
does not move them.
"""

from __future__ import annotations

import hashlib
import os

HV_TOLERANCE = 1e-12


def parse_record_text(text: str) -> dict:
    """Header fields, final hypervolume and raw archive objectives of a record."""
    lines = [ln for ln in text.splitlines() if ln]
    trace_at = lines.index("trace:")
    archive_at = lines.index("archive:")
    header = dict(ln.split(": ", 1) for ln in lines[:trace_at])
    trace = lines[trace_at + 1 : archive_at]
    return {
        "ideal": tuple(float(v) for v in header["ideal"].split()),
        "nadir": tuple(float(v) for v in header["nadir"].split()),
        "final_hv": float(trace[-1].split()[1]) if trace else 0.0,
        "objectives": [
            (float(row.split()[2]), float(row.split()[3]))
            for row in lines[archive_at + 1 :]
        ],
    }


def semantic_digest(parsed: dict) -> str:
    """Digest of the final hypervolume and the archive objective values."""
    canon = repr(parsed["final_hv"]) + "|" + ";".join(
        f"{a!r},{b!r}" for a, b in parsed["objectives"]
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def byte_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def check_records(results_dir: str) -> dict:
    """Check every ``.rec`` file of a results directory.

    Returns ``bytes`` and ``semantic`` digests per record name, the
    ``manifest`` byte digest (None if absent), ``failures`` (record name ->
    reason) and ``summarized``, the number of runs ``report.summarize``
    counts in the directory.
    """
    from biobj import harness, indicator, report

    out = {"bytes": {}, "semantic": {}, "failures": {}, "manifest": None}
    names = sorted(n for n in os.listdir(results_dir) if n.endswith(".rec"))
    for name in names:
        path = os.path.join(results_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        out["bytes"][name] = byte_digest(data)
        # A failing record must not stop the gate: record why and go on.
        try:
            harness.read_record(path)
            parsed = parse_record_text(data.decode())
            out["semantic"][name] = semantic_digest(parsed)
            hv = indicator.hypervolume(
                [
                    indicator.normalize(y, parsed["ideal"], parsed["nadir"])
                    for y in parsed["objectives"]
                ]
            )
            if abs(hv - parsed["final_hv"]) > HV_TOLERANCE:
                out["failures"][name] = (
                    f"final hv {parsed['final_hv']!r} != recomputed {hv!r}"
                )
        except Exception as exc:
            out["failures"][name] = f"{type(exc).__name__}: {exc}"
    manifest = os.path.join(results_dir, "manifest.txt")
    if os.path.exists(manifest):
        with open(manifest, "rb") as fh:
            out["manifest"] = byte_digest(fh.read())
    try:
        table = report.summarize(results_dir, on_error=lambda message: None)
    except report.EmptyResultsError:
        table = []
    out["summarized"] = summarized_runs(table)
    return out


def summarized_runs(lines: list[str]) -> int:
    """Total ``n_runs`` of a summary table (header line first)."""
    return sum(int(line.split("\t")[3]) for line in lines[1:])
