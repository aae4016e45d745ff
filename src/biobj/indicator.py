"""Dominance, objective normalization, and exact bi-objective hypervolume.

The archive keeps mutually non-dominated entries sorted by the first
normalized objective and maintains its normalized hypervolume (reference
point (1, 1)) incrementally; a scratch recompute is available as the
independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    (hence second objective strictly descending); ``_a`` and ``_b`` hold
    their normalized objectives as plain floats, in the same order.
    """

    def __init__(self, ideal, nadir):
        normalize(ideal, ideal=ideal, nadir=nadir)  # validates the pair
        self.ideal = (float(ideal[0]), float(ideal[1]))
        self.nadir = (float(nadir[0]), float(nadir[1]))
        self.entries: list[ArchiveEntry] = []
        self._a: list[float] = []
        self._b: list[float] = []
        self._hv = 0.0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def hypervolume_value(self) -> float:
        """Incrementally maintained normalized hypervolume, in [0, 1]."""
        return self._hv

    def _place(self, a: float, b: float) -> int | None:
        """Insert position of normalized (a, b); None if an entry weakly
        dominates it.

        Of the entries with a' <= a, the last has the smallest b', so it
        alone decides.  If it is not dominating but has a' == a, the
        newcomer dominates it and takes its place.
        """
        k = bisect_right(self._a, a)
        if k and self._b[k - 1] <= b:
            return None
        return k - 1 if k and self._a[k - 1] == a else k

    def undominated(self, fa, fb):
        """Yield, in order, the index of each row of raw objectives
        ``fa``, ``fb`` (sequences of floats) that ``_place`` admits.

        Each row is tested against the archive as it stands when the
        generator reaches it, so the rows it skips are exactly those
        ``insert`` would reject.  A row with a non-finite value is yielded,
        so that ``insert`` raises for it.
        """
        ia, ib = self.ideal
        da, db = self.nadir[0] - ia, self.nadir[1] - ib
        place = self._place
        for j, (f1, f2) in enumerate(zip(fa, fb)):
            if (
                place((f1 - ia) / da, (f2 - ib) / db) is not None
                or not (math.isfinite(f1) and math.isfinite(f2))
            ):
                yield j

    def insert(self, x, y) -> bool:
        """Offer one solution; True iff the archive composition changed."""
        y = (float(y[0]), float(y[1]))
        if not (math.isfinite(y[0]) and math.isfinite(y[1])):
            raise ValueError(f"objective values must be finite, got {y!r}")
        a, b = normalize(y, self.ideal, self.nadir)
        i = self._place(a, b)
        if i is None:
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
        self._a[i:j] = [a]
        self._b[i:j] = [b]
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
