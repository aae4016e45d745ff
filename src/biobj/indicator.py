"""Objective normalization and exact bi-objective hypervolume.

The archive keeps mutually non-dominated entries sorted by the first
normalized objective and maintains its normalized hypervolume (reference
point (1, 1)) incrementally; a scratch recompute is available as the
independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np


def check_bounds(ideal, nadir) -> None:
    """The rule for an ideal/nadir pair; raises ValueError unless the ideal
    is strictly below the nadir in both objectives and all four are finite.
    """
    (ia, ib), (na, nb) = ideal, nadir
    if not (ia < na and ib < nb):
        raise ValueError(
            f"ideal {ideal!r} must be strictly below nadir {nadir!r}"
        )
    if not all(map(math.isfinite, (ia, ib, na, nb))):
        raise ValueError(f"ideal {ideal!r} and nadir {nadir!r} must be finite")


def normalize(y, ideal, nadir) -> tuple[float, float]:
    """Affine map sending ideal to (0, 0) and nadir to (1, 1).

    Values outside [0, 1] are permitted; bounds that break ``check_bounds``
    are rejected.
    """
    check_bounds(ideal, nadir)
    (ia, ib), (na, nb) = ideal, nadir
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


class Archive:
    """Non-dominated archive bound to one problem's ideal/nadir points.

    Entries are kept sorted by the first normalized objective ascending
    (hence second objective strictly descending).  ``rows`` holds each entry
    once, as ``(a_norm, b_norm, f1, f2, x)`` with ``x`` the archive's own
    float64 copy of its decision vector; ``_a`` and ``_b`` hold its
    normalized objectives in the same order, as the keys ``insert`` bisects.
    """

    def __init__(self, ideal, nadir):
        check_bounds(ideal, nadir)
        self.ideal = (float(ideal[0]), float(ideal[1]))
        self.nadir = (float(nadir[0]), float(nadir[1]))
        self._span = (self.nadir[0] - self.ideal[0], self.nadir[1] - self.ideal[1])
        self.rows: list[tuple] = []
        self._a: list[float] = []
        self._b: list[float] = []
        self._hv = 0.0

    def __len__(self) -> int:
        return len(self._a)

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

    def screen(self, fa, fb) -> list[int]:
        """Indices, in order, of the rows of raw objectives ``fa``, ``fb``
        (float arrays of shape (N,)) left to offer to ``insert``.

        Masked out is each finite row that an entry weakly dominates as the
        block starts, or that the earlier row of the block with the least
        normalized a, b or a + b weakly dominates.  When the rows are offered
        to ``insert`` in order, it rejects every masked row: ``insert``
        only grows the region the archive weakly dominates, that earlier row
        is in the archive by then or was removed or rejected by an entry that
        weakly dominates it, and weak dominance is transitive.  A row with a
        non-finite value is always kept, so that ``insert`` raises for it.
        """
        finite = np.isfinite(fa) & np.isfinite(fb)
        # NaN keeps a non-finite row out of every prefix minimum and fails
        # every comparison, so it neither masks a row nor is masked.
        a = np.where(finite, (fa - self.ideal[0]) / self._span[0], np.nan)
        b = np.where(finite, (fb - self.ideal[1]) / self._span[1], np.nan)
        masked = np.zeros(len(a), dtype=bool)
        if self._a:  # k == 0 reads the last entry
            k = np.searchsorted(self._a, a, side="right")
            masked |= (k > 0) & (np.array(self._b)[k - 1] <= b)
        for key in (a, b, a + b):
            i = _earlier_least(key)
            masked |= (i >= 0) & (a[i] <= a) & (b[i] <= b)  # i == -1 reads the last
        return np.flatnonzero(~masked).tolist()

    def insert(self, x, y) -> bool:
        """Offer one solution; True iff the archive composition changed."""
        f1, f2 = float(y[0]), float(y[1])
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise ValueError(f"objective values must be finite, got {(f1, f2)!r}")
        a = (f1 - self.ideal[0]) / self._span[0]
        b = (f2 - self.ideal[1]) / self._span[1]
        i = self._place(a, b)
        if i is None:
            return False

        # Entries dominated by the newcomer form a contiguous run at i.
        A, B, n = self._a, self._b, len(self._a)
        j = i
        while j < n and B[j] >= b:
            j += 1

        def next_a(m):  # 1.0 past the last entry clips its strip at the edge
            return A[m] if m < n else 1.0

        old = 0.0
        if i > 0:
            old += _contribution(A[i - 1], B[i - 1], next_a(i))
        for m in range(i, j):
            old += _contribution(A[m], B[m], next_a(m + 1))

        new = _contribution(a, b, next_a(j))
        if i > 0:
            new += _contribution(A[i - 1], B[i - 1], a)

        self.rows[i:j] = [(a, b, f1, f2, np.array(x, dtype=float))]
        A[i:j] = [a]
        B[i:j] = [b]
        self._hv += new - old
        return True

    def recompute_hypervolume(self) -> float:
        """From-scratch cross-check of the incremental hypervolume."""
        return hypervolume(
            normalize(row[2:4], self.ideal, self.nadir) for row in self.rows
        )


def _earlier_least(key: np.ndarray) -> np.ndarray:
    """For each j, the index of a row before j with the least ``key`` (NaN
    skipped), or -1 if every row before j is NaN."""
    low = np.fmin.accumulate(key)
    # The latest row at the running minimum when it was reached holds it.
    at = np.where(key == low, np.arange(len(key)), -1)
    earlier = np.full(len(key), -1)
    earlier[1:] = np.maximum.accumulate(at)[:-1]
    return earlier


def _contribution(a: float, b: float, next_a: float) -> float:
    """Strip area of entry (a, b) in the (1, 1)-clipped sweep, its right
    neighbour's first objective being ``next_a``."""
    if a >= 1.0 or b >= 1.0:
        return 0.0
    width = min(1.0, next_a) - a
    return width * (1.0 - b) if width > 0.0 else 0.0
