"""Voice-leading distances on pitch tuples and chords.

Three levels:

* :func:`stratum_distance` -- minimum over note matchings between two tuples
  of equal length (a metric on unordered n-tuples).
* :func:`chord_distance` -- the generalization that lets either chord
  duplicate notes before matching.  It is *not* a metric: the triangle
  inequality fails between chords of different cardinalities.  Duplications
  matched in sorted order are monotone paths in the grid of the two sorted
  note lists; a dynamic program keeps each cell's least prefix sum, adding
  costs left to right in path order as :func:`stratum_distance` does.  IEEE
  addition is monotone, so the minimum equals the enumeration's bit for bit.
* :func:`geodesic_distance` -- length of the shortest path through the space
  of all chords when voices may split and merge at zero cost anywhere along
  the way.  This repairs the triangle inequality and is a metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

from .pitch import Chord


class NormChoice(Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"

    @classmethod
    def from_str(cls, name: str) -> "NormChoice":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown norm {name!r}") from None


def stratum_distance(
    a: Sequence[float], b: Sequence[float], norm: NormChoice = NormChoice.MANHATTAN
) -> float:
    """Minimum over all note matchings of the per-note movement norm.

    On the real line the optimum is attained by matching in sorted order, for
    both norms (exchange argument; brute-forced over all permutations in the
    test suite), so no assignment search is needed.
    """
    if len(a) != len(b):
        raise ValueError(f"tuple lengths differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("tuples must contain at least one note")
    *_, total = accumulate(_cost(x, y, norm) for x, y in zip(sorted(a), sorted(b)))
    return _finish(total, norm)  # summed left to right, like every path below


def _cost(x: float, y: float, norm: NormChoice) -> float:
    """One pair's term of :func:`stratum_distance`; inf past float range."""
    if norm is NormChoice.MANHATTAN:
        return abs(x - y)
    try:
        return (x - y) ** 2
    except OverflowError:  # an optimal path may still avoid this pair
        return math.inf


def _finish(total: float, norm: NormChoice) -> float:
    d = float(total) if norm is NormChoice.MANHATTAN else math.sqrt(total)
    if not math.isfinite(d):
        raise ValueError("distance overflows a float: the notes are too far apart")
    return d


def chord_distance_n(
    c1: Chord, c2: Chord, n: int, norm: NormChoice = NormChoice.MANHATTAN
) -> float:
    """Minimum matching distance over all n-note duplications of both chords.

    The cheapest path of exactly n pairs (a step may stay put, repeating a pair),
    by a dynamic program over path length: O(k*m*n) time, O(k*m) memory.
    """
    if n < max(len(c1), len(c2)):
        raise ValueError(f"n={n} is smaller than the larger chord ({max(len(c1), len(c2))} notes)")
    cost = [[_cost(x, y, norm) for y in c2] for x in c1]
    inf, m = math.inf, len(c2)
    # prev[i + 1][j + 1]: cheapest path of t pairs ending at (i, j); t = 0 at [0][0]
    prev = [[0] + [inf] * m] + [[inf] * (m + 1) for _ in cost]
    for _ in range(n):
        cur = [[inf] * (m + 1)]
        for up, here, row in zip(prev, prev[1:], cost):
            lows = map(min, here[1:], up[1:], here, up)  # from (i,j) (i-1,j) (i,j-1) (i-1,j-1)
            cur.append([inf] + [c + low for c, low in zip(row, lows)])
        prev = cur
    return _finish(prev[-1][-1], norm)


def chord_distance(c1: Chord, c2: Chord, norm: NormChoice = NormChoice.MANHATTAN) -> float:
    """Minimum of :func:`chord_distance_n` over n = max(k, m) .. k + m, in O(k*m).

    ``D[i][j] = cost(i, j) + min(D[i-1][j], D[i][j-1], D[i-1][j-1])``: the
    optimum repeats no pair, and paths without repeats have max(k, m) to k + m - 1.
    """
    prev = [0] + [math.inf] * len(c2)  # row -1: only the start is reachable
    for x in c1:
        cur = [math.inf]
        for j, y in enumerate(c2):
            cur.append(_cost(x, y, norm) + min(prev[j + 1], cur[j], prev[j]))
        prev = cur
    return _finish(prev[-1], norm)


@dataclass(frozen=True)
class GeodesicGroup:
    """One component of an optimal split/merge voice leading."""

    sources: tuple[float, ...]
    targets: tuple[float, ...]
    cost: float


@dataclass(frozen=True)
class GeodesicWitness:
    groups: tuple[GeodesicGroup, ...]
    total: float

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "groups": [
                {"sources": list(g.sources), "targets": list(g.targets), "cost": g.cost}
                for g in self.groups
            ],
        }


def _grouping_dp(
    c1: Chord, c2: Chord
) -> tuple[list[tuple[float, int]], list[float], list[int]]:
    """The grouping DP of :func:`geodesic_witness` and :func:`geodesic_distance`.

    Returns the sorted, labeled union ``pts`` of the notes, ``best[i]``, the
    least total span of a grouping of ``pts[i:]``, and ``cut[i]``, the smallest
    j whose group ``pts[i:j]`` attains it.  A group needs a source and a target,
    so the scan over j starts at one past the farther of the nearest source and
    the nearest target at or after i, tracked from the right; no earlier j makes
    a group, and every later one does.
    """
    pts = sorted(
        [(p, 0) for p in c1.notes] + [(p, 1) for p in c2.notes]
    )  # kind 0 = source, 1 = target; sources sort first at equal pitch
    k = len(pts)
    best = [math.inf] * (k + 1)
    best[k] = 0.0
    cut = [k] * (k + 1)
    nearest = [k, k]  # the nearest source and target at or after i; k while there is none
    for i in range(k - 1, -1, -1):
        nearest[pts[i][1]] = i
        for j in range(max(nearest) + 1, k + 1):
            cost = pts[j - 1][0] - pts[i][0] + best[j]
            if cost < best[i]:
                best[i], cut[i] = cost, j
    if math.isinf(best[0]):  # every grouping's span overflows a float
        raise ValueError("distance overflows a float: the notes are too far apart")
    return pts, best, cut


def geodesic_witness(c1: Chord, c2: Chord) -> GeodesicWitness:
    """Optimal grouping realizing the geodesic distance (Manhattan movement).

    Free splitting/merging makes the shortest path decompose into independent
    groups, each containing at least one source and one target note; a group
    is traversed by merging, sliding and splitting, at total cost equal to its
    pitch span (max - min).  Optimal groups may be taken contiguous in sorted
    order (merging two overlapping groups never costs more than their sum), so
    a quadratic dynamic program over the sorted, labeled union of notes finds
    the optimum.  Ties are broken toward the lexicographically smallest
    grouping: the earliest feasible group boundaries win.  The groups follow
    the ``cut`` of :func:`_grouping_dp`, the one DP that
    :func:`geodesic_distance` runs as well; its scan over j starts at the
    first group that holds a source and a target.
    """
    pts, best, cut = _grouping_dp(c1, c2)
    groups = []
    i = 0
    while i < len(pts):
        j = cut[i]
        seg = pts[i:j]
        groups.append(
            GeodesicGroup(
                sources=tuple(p for p, kind in seg if kind == 0),
                targets=tuple(p for p, kind in seg if kind == 1),
                cost=pts[j - 1][0] - pts[i][0],
            )
        )
        i = j
    return GeodesicWitness(groups=tuple(groups), total=best[0])


def geodesic_distance(c1: Chord, c2: Chord) -> float:
    """Shortest split/merge voice-leading path length between two chords.

    Defined for Manhattan movement; satisfies all metric axioms, including
    the triangle inequality that :func:`chord_distance` violates.  It is the
    ``best[0]`` of :func:`_grouping_dp`, the DP :func:`geodesic_witness` runs
    (its scan over j starts at the first group that holds a source and a
    target), and builds no groups.
    """
    return _grouping_dp(c1, c2)[1][0]
