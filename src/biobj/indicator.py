"""Dominance, objective normalization, and exact bi-objective hypervolume.

The archive keeps mutually non-dominated entries sorted by the first
normalized objective and maintains its normalized hypervolume (reference
point (1, 1)) incrementally; a scratch recompute is available as the
independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


def dominates(u, v) -> bool:
    """Minimization dominance: u no worse in both, strictly better in one."""
    ua, ub = u
    va, vb = v
    return ua <= va and ub <= vb and (ua < va or ub < vb)


def normalize(y, ideal, nadir) -> tuple[float, float]:
    """Affine map sending ideal to (0, 0) and nadir to (1, 1).

    Values outside [0, 1] are permitted; a degenerate ideal/nadir pair
    (non-positive range in either coordinate) is rejected.
    """
    ia, ib = ideal
    na, nb = nadir
    if not (ia < na and ib < nb):
        raise ValueError(
            f"ideal {ideal!r} must be strictly below nadir {nadir!r}"
        )
    return ((y[0] - ia) / (na - ia), (y[1] - ib) / (nb - ib))


def hypervolume(points) -> float:
    """Exact 2-D hypervolume of normalized ``points``, reference point (1, 1).

    Order-independent sweep; points not strictly dominating (1, 1)
    contribute nothing, dominated points are absorbed by the sweep.
    """
    pts = sorted((a, b) for a, b in points if a < 1.0 and b < 1.0)
    hv = 0.0
    cur_b = 1.0
    for a, b in pts:
        if b < cur_b:
            hv += (1.0 - a) * (cur_b - b)
            cur_b = b
    return hv


@dataclass(frozen=True)
class ArchiveEntry:
    x: np.ndarray
    objectives: tuple[float, float]
    normalized: tuple[float, float]


class Archive:
    """Non-dominated archive bound to one problem's ideal/nadir points.

    Entries are kept sorted by the first normalized objective ascending
    (hence second objective strictly descending).
    """

    def __init__(self, ideal, nadir):
        normalize(ideal, ideal=ideal, nadir=nadir)  # validates the pair
        self.ideal = (float(ideal[0]), float(ideal[1]))
        self.nadir = (float(nadir[0]), float(nadir[1]))
        self.entries: list[ArchiveEntry] = []
        self._hv = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def hypervolume_value(self) -> float:
        """Incrementally maintained normalized hypervolume, in [0, 1]."""
        return self._hv

    def insert(self, x, y) -> bool:
        """Offer one solution; True iff the archive composition changed."""
        y = (float(y[0]), float(y[1]))
        if not (math.isfinite(y[0]) and math.isfinite(y[1])):
            raise ValueError(f"objective values must be finite, got {y!r}")
        a, b = normalize(y, self.ideal, self.nadir)

        i = bisect_left(self.entries, a, key=lambda e: e.normalized[0])
        # Dominated (or duplicate) iff some entry with a' <= a has b' <= b;
        # with b descending it suffices to look at positions i-1 and i.
        if i > 0 and self.entries[i - 1].normalized[1] <= b:
            return False
        if (
            i < len(self.entries)
            and self.entries[i].normalized[0] == a
            and self.entries[i].normalized[1] <= b
        ):
            return False

        # Entries dominated by the newcomer form a contiguous run at i.
        j = i
        while j < len(self.entries) and self.entries[j].normalized[1] >= b:
            j += 1

        left = self.entries[i - 1].normalized if i > 0 else None
        right_key = self._key(j)

        old = 0.0
        if left is not None:
            old += self._contribution(left, self._key(i))
        for m in range(i, j):
            old += self._contribution(self.entries[m].normalized, self._key(m + 1))

        new = self._contribution((a, b), right_key)
        if left is not None:
            new += self._contribution(left, a)

        entry = ArchiveEntry(np.array(x, dtype=float), y, (a, b))
        self.entries[i:j] = [entry]
        self._hv += new - old
        return True

    def _key(self, m: int) -> float | None:
        """First normalized objective of entry ``m``; None past the end."""
        return self.entries[m].normalized[0] if m < len(self.entries) else None

    @staticmethod
    def _contribution(point, next_key) -> float:
        """Strip area of one entry in the (1, 1)-clipped sweep."""
        a, b = point
        if a >= 1.0 or b >= 1.0:
            return 0.0
        upper = 1.0 if next_key is None else min(1.0, next_key)
        width = upper - a
        return width * (1.0 - b) if width > 0.0 else 0.0

    def recompute_hypervolume(self) -> float:
        """From-scratch cross-check of the incremental hypervolume."""
        return hypervolume(
            [normalize(e.objectives, self.ideal, self.nadir) for e in self.entries]
        )
