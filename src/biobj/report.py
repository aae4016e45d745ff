"""Summary tables and Pareto-front plots from experiment result directories."""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator

from .harness import RecordError, RunRecord, read_record
from .suite import BASE_FUNCTION_NAMES, function_pair

SUMMARY_HEADER = "group\tdim\toptimizer\tn_runs\tmedian_hv\tq1_hv\tq3_hv"


class EmptyResultsError(ValueError):
    """No readable record files were found in the results directory."""


def load_records(results_dir: str, on_error=None) -> Iterator[RunRecord]:
    """Yield the readable ``*.rec`` records by file name; bad files are reported and skipped."""
    if not os.path.isdir(results_dir):
        raise NotADirectoryError(f"{results_dir} is not a directory")
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".rec"):
            continue
        path = os.path.join(results_dir, name)
        try:
            record = read_record(path)
        except (RecordError, OSError) as exc:
            message = f"skipping {path}: {exc}"
            if on_error is not None:
                on_error(message)
            else:
                print(message, file=sys.stderr)
            continue
        yield record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of finite ``values``.

    Linear interpolation between order statistics, numpy's default
    percentile method, with its virtual index ``q * (n - 1)`` and its lerp,
    so each value has the bits of ``np.percentile(values, [25, 50, 75])``.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    if not last:
        # numpy takes both neighbours at index -1 with weight 1: b - 0.0,
        # which is the value itself, -0.0 included
        return ordered[0], ordered[0], ordered[0]
    out = []
    for q in (0.25, 0.5, 0.75):
        index = last * q
        j = int(index)
        a, b = ordered[j], ordered[j + 1]
        t = index - j
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return tuple(out)


def summarize(results_dir: str, on_error=None) -> list[str]:
    """Median/IQR of final hypervolume per (group, dim, optimizer).

    Records are read one at a time, so memory does not grow with their
    number.  Returns the table as tab-delimited lines (header first); raises
    :class:`EmptyResultsError` when there is nothing to summarize.
    """
    cells: dict[tuple[str, int, str], list[float]] = {}
    for rec in load_records(results_dir, on_error=on_error):
        key = (rec.group, rec.problem.dim, rec.optimizer)
        cells.setdefault(key, []).append(rec.final_hv)
    if not cells:
        raise EmptyResultsError(f"no readable records in {results_dir}")
    lines = [SUMMARY_HEADER]
    for (group, dim, optimizer), values in sorted(cells.items()):
        q1, med, q3 = quartiles(values)
        lines.append(
            f"{group}\t{dim}\t{optimizer}\t{len(values)}\t"
            f"{med:.6f}\t{q1:.6f}\t{q3:.6f}"
        )
    return lines


# ---------------------------------------------------------------------------
# Plots: hand-rolled SVG so output bytes are a pure function of the record.
# ---------------------------------------------------------------------------

_W, _H = 640, 480
_MARGIN = 70


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        return [0.5 * (out_lo + out_hi) for _ in values]
    span = hi - lo
    if math.isinf(span):  # finite bounds over 1.8e308 apart: halve them all
        return _scale([0.5 * v for v in values], 0.5 * lo, 0.5 * hi, out_lo, out_hi)
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def plot_front(record: RunRecord) -> list[str]:
    """Scatter the final archive in raw objective space as SVG lines.

    Ideal and nadir points are marked; axis labels carry the two base
    function names.  The lines are deterministic for a fixed record.
    """
    pid = record.problem
    fa, fb = function_pair(pid.pair_index)
    name_a, name_b = BASE_FUNCTION_NAMES[fa], BASE_FUNCTION_NAMES[fb]
    xs, ys = (list(v) for v in zip(*record.objectives))
    ia, ib = record.ideal
    na, nb = record.nadir
    lo_x, hi_x = min(xs + [ia, na]), max(xs + [ia, na])
    lo_y, hi_y = min(ys + [ib, nb]), max(ys + [ib, nb])

    px = _scale(xs + [ia, na], lo_x, hi_x, _MARGIN, _W - _MARGIN)
    py = _scale(ys + [ib, nb], lo_y, hi_y, _H - _MARGIN, _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<!-- problem: k={pid.pair_index} d={pid.dim} "
        f"i={pid.instance} optimizer={record.optimizer} "
        f"seed={record.seed} -->",
        f"<!-- ideal: {ia!r} {ib!r} -->",
        f"<!-- nadir: {na!r} {nb!r} -->",
    ]
    for x, y in zip(xs, ys):
        parts.append(f"<!-- data: {x!r} {y!r} -->")
    parts += [
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 20}" text-anchor="middle" '
        f'font-size="14" class="axis-label">{name_a}</text>',
        f'<text x="20" y="{_H // 2}" text-anchor="middle" font-size="14" '
        f'class="axis-label" transform="rotate(-90 20 {_H // 2})">{name_b}</text>',
        f'<text x="{_W // 2}" y="28" text-anchor="middle" font-size="15">'
        f"{name_a} / {name_b} "
        f"(d={pid.dim}, i={pid.instance})</text>",
    ]
    for x, y in zip(px[:-2], py[:-2]):
        parts.append(
            f'<circle class="front-point" cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
            f'fill="steelblue" fill-opacity="0.8"/>'
        )
    parts.append(
        f'<path class="ideal-marker" d="M {px[-2]:.2f} {py[-2] - 6:.2f} '
        f"l 6 6 l -6 6 l -6 -6 z\" fill=\"green\"/>"
    )
    parts.append(
        f'<rect class="nadir-marker" x="{px[-1] - 5:.2f}" y="{py[-1] - 5:.2f}" '
        f'width="10" height="10" fill="crimson"/>'
    )
    parts.append("</svg>")
    return parts
