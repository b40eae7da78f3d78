"""Independent brute-force oracles used by the test suite.

Everything here is deliberately dumb: permutations instead of sorted
matching, full candidate products instead of branch-and-bound, shortest
paths over explicit chord graphs instead of the grouping dynamic program,
per-cell neighbor scans instead of shifted-array filters, one CSV row
formatted per cell and parsed per line instead of per-axis labels, a byte
matrix per chunk and ``np.loadtxt``, matrix rows joined from per-value
strings instead of the same byte matrix, one roughness sum per chord
instead of the batch kernel, a ``Fraction`` q x p scan instead of a Farey walk on integers, a
``Fraction`` halved or doubled into [1, 2) instead of an octave part found by bit lengths, window
ends bisected on the exact integer test alone instead of on the float cents column first,
one chord and witness per field cell instead of per-axis candidate lists, one
``Progression`` per window cell instead of plain note tuples, a scan for
each geodesic group's end instead of the end the dynamic program recorded,
ascending-periodicity sweeps that stamp each cell at the first feasible
value instead of a minimization per cell, every minimal tuning of a
pinned chord enumerated instead of one joint search, one branch-and-bound
pass from an unbounded start instead of iterative deepening on the lcm bound,
interpolation corners read from the box ``dense()`` instead of found by
their rank in the field's stored order, and a simplex's cells kept where
their float coordinates never decrease instead of where their indices do.
The production code must agree with these on small instances.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

import numpy as np

from chordspace.errors import UnresolvableChordError, UnresolvableProgressionError
from chordspace.field import ScalarField, _fmt_coord, make_simplex_field
from chordspace.harmonicity import (
    PeriodicityConfig,
    _field_meta,
    _window,
    chord_periodicity,
    min_lcm,
    ratio_candidates,
)
from chordspace.metric import GeodesicGroup, GeodesicWitness, NormChoice
from chordspace.pitch import Chord, DEFAULT_F0_HZ, freq_from_pitch, normalize, shift
from chordspace.psychometric import _kernel
from chordspace.resolve import Progression, TransitiveConfig, transitive_periodicity
from chordspace.roughness import RoughnessParams, Spectrum, harmonic_spectrum


def perm_distance(a, b, norm=NormChoice.MANHATTAN) -> float:
    """Minimum matching cost over every permutation."""
    best = math.inf
    for perm in itertools.permutations(b):
        if norm is NormChoice.MANHATTAN:
            d = sum(abs(x - y) for x, y in zip(a, perm))
        else:
            d = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, perm)))
        best = min(best, d)
    return best


def expansions(notes: tuple[float, ...], n: int):
    # each note appears at least once, so none appears more than n - k + 1 times
    for mult in itertools.product(range(1, n - len(notes) + 2), repeat=len(notes)):
        if sum(mult) == n:
            out = []
            for note, m in zip(notes, mult):
                out.extend([note] * m)
            yield tuple(out)


def expansion_distance(c1: Chord, c2: Chord, n: int, norm=NormChoice.MANHATTAN) -> float:
    best = math.inf
    for e1 in expansions(c1.notes, n):
        for e2 in expansions(c2.notes, n):
            best = min(best, perm_distance(e1, e2, norm))
    return best


def _sorted_match(a, b, norm=NormChoice.MANHATTAN) -> float:
    """Sorted matching cost, the terms added strictly left to right.

    An explicit loop, not ``sum()``, which compensates float rounding from
    Python 3.12 on; the production distances are exact left-to-right sums.
    """
    total = 0.0
    for x, y in zip(sorted(a), sorted(b)):
        total += abs(x - y) if norm is NormChoice.MANHATTAN else (x - y) ** 2
    return total if norm is NormChoice.MANHATTAN else math.sqrt(total)


@functools.cache  # duplication_distance rescans the same sizes
def expansion_distance_fast(c1: Chord, c2: Chord, n: int, norm=NormChoice.MANHATTAN) -> float:
    """Expansion oracle with sorted matching in place of permutations.

    Sorted matching itself is validated against :func:`perm_distance` in a
    separate exhaustive test, so this stays independent of the production
    grouping code.
    """
    best = math.inf
    targets = list(expansions(c2.notes, n))
    for e1 in expansions(c1.notes, n):
        for e2 in targets:
            best = min(best, _sorted_match(e1, e2, norm))
    return best


def duplication_distance(
    c1: Chord, c2: Chord, max_extra: int = 0, norm=NormChoice.MANHATTAN
) -> float:
    """min over n of the expansion/matching distance, optionally scanning wider."""
    hi = len(c1) + len(c2) + max_extra
    return min(
        expansion_distance_fast(c1, c2, n, norm)
        for n in range(max(len(c1), len(c2)), hi + 1)
    )


def geodesic_apsp(nodes: list[Chord]) -> dict[tuple[tuple, tuple], float]:
    """All-pairs shortest concatenation of duplication-distance legs.

    Every optimal split/merge path between chords over a discrete pitch pool
    can be realized with intermediate chords drawn from that pool (merge
    points of an optimal grouping sit on member notes), so shortest paths in
    this explicit graph equal the geodesic distance.
    """
    k = len(nodes)
    dist = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            w = duplication_distance(nodes[i], nodes[j])
            dist[i][j] = dist[j][i] = w
    for m in range(k):
        dm = dist[m]
        for i in range(k):
            di = dist[i]
            via = di[m]
            for j in range(k):
                alt = via + dm[j]
                if alt < di[j]:
                    di[j] = alt
    return {
        (nodes[i].notes, nodes[j].notes): dist[i][j]
        for i in range(k)
        for j in range(k)
    }


def geodesic_shortest_path(c1: Chord, c2: Chord) -> float:
    """Single-pair geodesic oracle over the union-note chord graph."""
    pool = sorted(set(c1.notes) | set(c2.notes))
    max_card = max(len(c1), len(c2))
    nodes = [
        Chord(tuple(sub))
        for r in range(1, max_card + 1)
        for sub in itertools.combinations(pool, r)
    ]
    table = geodesic_apsp(nodes)
    return table[(c1.notes, c2.notes)]


def scan_geodesic_witness(c1: Chord, c2: Chord) -> GeodesicWitness:
    """``geodesic_witness`` rebuilding each group by a scan for the smallest
    j that reproduces best[i], instead of the j recorded by the DP."""
    pts = sorted(
        [(p, 0) for p in c1.notes] + [(p, 1) for p in c2.notes]
    )  # kind 0 = source, 1 = target; sources sort first at equal pitch
    k = len(pts)
    n_src = [0, *accumulate(1 - kind for _, kind in pts)]
    n_tgt = [0, *accumulate(kind for _, kind in pts)]

    def seg_valid(i: int, j: int) -> bool:
        # segment covers pts[i:j]
        return n_src[j] - n_src[i] >= 1 and n_tgt[j] - n_tgt[i] >= 1

    # Suffix DP so the witness can be rebuilt with earliest-boundary ties.
    best = [math.inf] * (k + 1)
    best[k] = 0.0
    for i in range(k - 1, -1, -1):
        for j in range(i + 1, k + 1):
            if seg_valid(i, j):
                cost = pts[j - 1][0] - pts[i][0] + best[j]
                if cost < best[i]:
                    best[i] = cost
    if math.isinf(best[0]):  # every grouping's span overflows a float
        raise ValueError("distance overflows a float: the notes are too far apart")

    groups = []
    i = 0
    while i < k:
        # Smallest j reproduces best[i] with the exact arithmetic used above.
        j = next(
            j
            for j in range(i + 1, k + 1)
            if seg_valid(i, j) and pts[j - 1][0] - pts[i][0] + best[j] == best[i]
        )
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


def scan_min_denominator(cents: float, jnd_cents: float, qmax: int) -> Fraction | None:
    """Exhaustive denominator scan for the simplest in-window octave ratio."""
    for q in range(1, qmax + 1):
        for p in range(q, 2 * q + 1):
            if math.gcd(p, q) == 1:
                if abs(1200.0 * math.log2(Fraction(p, q)) - cents) <= jnd_cents:
                    return Fraction(p, q)
    return None


def fraction_candidates(
    cents: float, jnd_cents: float, qmax: int, clamp: bool
) -> tuple[tuple[Fraction, float], ...]:
    """(fraction, detuning) pairs in the JND window, by a ``Fraction`` q x p scan.

    The window ends are the exact values of the float powers of two; with
    ``clamp`` the window is cut to the octave [1, 2].
    """
    lo = Fraction(2.0 ** ((cents - jnd_cents) / 1200.0))
    hi = Fraction(2.0 ** ((cents + jnd_cents) / 1200.0))
    if clamp:
        lo, hi = max(lo, Fraction(1)), min(hi, Fraction(2))
    out = []
    for q in range(1, qmax + 1):
        for p in range(max(math.ceil(lo * q), 1), math.floor(hi * q) + 1):
            if math.gcd(p, q) == 1:
                frac = Fraction(p, q)
                out.append((frac, 1200.0 * math.log2(frac) - cents))
    return tuple(out)


def exact_trim(ratios: list, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """[i, j): the triples ``(q, p, log)`` of the ascending ``ratios`` with
    a/b <= p/q <= c/d, by two bisects on the exact integer test alone."""
    i = bisect_left(ratios, True, key=lambda t: t[1] * b >= a * t[0])  # first p/q >= a/b
    return i, bisect_left(ratios, True, i, key=lambda t: t[1] * d > c * t[0])  # first > c/d


def fraction_part(a: int, b: int, m: int) -> int:
    """Index e*m + j of the octave part [2**e (m+j)/m, 2**e (m+j+1)/m) holding a/b > 0,
    by halving or doubling the ``Fraction`` into [1, 2)."""
    x, e = Fraction(a, b), 0
    while x >= 2:
        x, e = x / 2, e + 1
    while x < 1:
        x, e = x * 2, e - 1
    return e * m + math.floor((x - 1) * m)


def farey_start_scan(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """The least reduced fraction p/q >= a/b with q <= n and the least r/s
    above it with s <= n, as (p, q, r, s), by scanning every denominator."""

    def least(x: Fraction, strict: bool) -> Fraction:
        return min(Fraction(math.floor(x * q) + 1 if strict else math.ceil(x * q), q)
                   for q in range(1, n + 1))

    first = least(Fraction(a, b), strict=False)
    second = least(first, strict=True)
    return first.numerator, first.denominator, second.numerator, second.denominator


def within_jnd(detunings: tuple[float, ...], jnd_cents: float, pairwise: bool = True) -> bool:
    """The window rule on a tuning's detunings (cents): each within the JND
    and, with ``pairwise``, every pairwise difference as well.  Stated on
    detunings, not chords: a witness may tune two notes to the same ratio,
    which no ``Chord`` can hold."""
    if any(abs(d) > jnd_cents for d in detunings):
        return False
    return not pairwise or max(detunings) - min(detunings) <= jnd_cents


def exhaustive_chord_periodicity(
    notes_semitones: tuple[float, ...], cfg: PeriodicityConfig
) -> tuple[int, tuple[Fraction, ...]] | None:
    """Full product over per-note candidates; no pruning anywhere."""
    assert notes_semitones[0] == 0
    cents = [p * 100.0 for p in notes_semitones[1:]]
    lists = [ratio_candidates(x, cfg, clamp=True) for x in cents]
    if any(not lst for lst in lists):
        return None
    best = None
    best_fracs = None
    for combo in itertools.product(*lists):
        if not within_jnd([0.0] + [d for _, _, d in combo], cfg.jnd_cents, cfg.pairwise_constraint):
            continue
        value = math.lcm(*(q for q, _, _ in combo)) if combo else 1
        if best is None or value < best:
            best = value
            best_fracs = tuple(Fraction(p, q) for q, p, _ in combo)
    if best is None:
        return None
    return best, best_fracs


def exhaustive_rerooted(
    c: Chord, cfg: PeriodicityConfig
) -> tuple[int | None, dict[float, int | None]]:
    """Re-rooted periodicity by full enumeration: for each root r, the least lcm over the
    whole product of the other notes' unclamped candidate lists that fits the JND with r at
    1/1 (``None`` if none does), and the least over every root (``None`` if all are)."""
    per_root: dict[float, int | None] = {}
    for r in c.notes:
        lists = [ratio_candidates((p - r) * 100.0, cfg, clamp=False) for p in c.notes if p != r]
        per_root[r] = min(
            (math.lcm(*(q for q, _, _ in combo)) for combo in itertools.product(*lists)
             if within_jnd([0.0] + [d for _, _, d in combo], cfg.jnd_cents,
                           cfg.pairwise_constraint)),
            default=None,
        )
    return min((v for v in per_root.values() if v is not None), default=None), per_root


def exhaustive_transitive(
    first: Chord, second: Chord, jnd_cents: float = 18.0, qmax: int = 100
) -> int | None:
    """Transitive periodicity by full enumeration.

    Pins the second chord's sub-tuning to its own minimal periodicity (root
    exactly 1/1) and scans the full product of the first chord's candidates
    under the joint pairwise window.
    """
    cfg = PeriodicityConfig(jnd_cents=jnd_cents, qmax=qmax)
    s = second.root
    c1 = [p - s for p in first.notes]
    c2 = [p - s for p in second.notes]
    c2_lists = [ratio_candidates(x * 100.0, cfg, clamp=False) for x in c2[1:]]
    c1_lists = [ratio_candidates(x * 100.0, cfg, clamp=False) for x in c1]
    if any(not lst for lst in c2_lists) or any(not lst for lst in c1_lists):
        return None

    second_tunings = []
    p2 = None
    for combo in itertools.product(*c2_lists):
        ds = [0.0] + [d for _, _, d in combo]
        if max(ds) - min(ds) > jnd_cents:
            continue
        value = math.lcm(1, *(q for q, _, _ in combo))
        if p2 is None or value < p2:
            p2 = value
    if p2 is None:
        return None
    for combo in itertools.product(*c2_lists):
        ds = [0.0] + [d for _, _, d in combo]
        if max(ds) - min(ds) > jnd_cents:
            continue
        if math.lcm(1, *(q for q, _, _ in combo)) == p2:
            second_tunings.append(tuple(ds))

    best = None
    for ds2 in second_tunings:
        for combo in itertools.product(*c1_lists):
            ds = list(ds2) + [d for _, _, d in combo]
            if max(ds) - min(ds) > jnd_cents:
                continue
            total = math.lcm(p2, *(q for q, _, _ in combo))
            ratio = total // p2
            if best is None or ratio < best:
                best = ratio
    return best


def exhaustive_relative_to_first(
    first: Chord, second: Chord, jnd_cents: float = 18.0, qmax: int = 100
) -> int | None:
    """Combined periodicity relative to the first chord, by full enumeration."""
    cfg = PeriodicityConfig(jnd_cents=jnd_cents, qmax=qmax)
    s = second.root
    c1 = [p - s for p in first.notes]
    c2 = [p - s for p in second.notes]
    c1_lists = [ratio_candidates(x * 100.0, cfg, clamp=False) for x in c1]
    c2_lists = [ratio_candidates(x * 100.0, cfg, clamp=False) for x in c2[1:]]
    if any(not lst for lst in c1_lists) or any(not lst for lst in c2_lists):
        return None

    p1 = None
    for combo in itertools.product(*c1_lists):
        ds = [d for _, _, d in combo]
        if max(ds) - min(ds) > jnd_cents:
            continue
        value = math.lcm(*(q for q, _, _ in combo))
        if p1 is None or value < p1:
            p1 = value
    if p1 is None:
        return None

    best = None
    for combo1 in itertools.product(*c1_lists):
        ds1 = [d for _, _, d in combo1]
        if max(ds1) - min(ds1) > jnd_cents:
            continue
        if math.lcm(*(q for q, _, _ in combo1)) != p1:
            continue
        for combo2 in itertools.product(*c2_lists):
            ds = ds1 + [0.0] + [d for _, _, d in combo2]
            if max(ds) - min(ds) > jnd_cents:
                continue
            total = math.lcm(p1, 1, *(q for q, _, _ in combo2))
            ratio = total // p1
            if best is None or ratio < best:
                best = ratio
    return best


def local_minima(
    field: ScalarField, radius: int = 1
) -> list[tuple[tuple[float, ...], float]]:
    """Cells strictly below every neighbor within a Chebyshev radius.

    Equal-valued plateaus count as one minimum, reported at the
    lexicographically smallest member, provided no cell reachable through the
    plateau sees a smaller neighbor.  Neighbor values of simplex fields come
    from the symmetric extension, so cells near the diagonal are compared
    against their mirrored surroundings as well.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if field.dims == 0:
        return []
    dense = field.dense()
    counts = field.counts

    def neighbors(idx):
        ranges = [
            range(max(0, i - radius), min(counts[k], i + radius + 1))
            for k, i in enumerate(idx)
        ]
        for nb in itertools.product(*ranges):
            if nb != idx:
                yield nb

    def coords_of(idx):
        return tuple(
            field.origins[k] + field.resolution * i for k, i in enumerate(idx)
        )

    included = []
    for idx in np.ndindex(*counts):
        coords = coords_of(idx)
        if not field.simplex or all(a <= b for a, b in zip(coords, coords[1:])):
            included.append(idx)

    no_smaller = {}
    for idx in included:
        me = dense[idx]
        no_smaller[idx] = all(dense[nb] >= me for nb in neighbors(idx))

    reported = []
    seen = set()
    for idx in included:
        if idx in seen or not no_smaller[idx]:
            continue
        me = dense[idx]
        # Flood across equal-valued neighbors; a plateau leaking to a cell
        # with a smaller neighbor is not a minimum.
        component = {idx}
        queue = [idx]
        valid = True
        has_uphill = False
        while queue:
            cur = queue.pop()
            for nb in neighbors(cur):
                if dense[nb] > me:
                    has_uphill = True
                if dense[nb] == me and nb not in component:
                    component.add(nb)
                    if not no_smaller.get(nb, all(dense[x] >= me for x in neighbors(nb))):
                        valid = False
                    queue.append(nb)
        seen |= component
        # A plateau with no strictly greater surroundings (e.g. a constant
        # field) is not a minimum.
        if valid and has_uphill:
            members = sorted(
                coords_of(i)
                for i in component
                if not field.simplex
                or all(a <= b for a, b in zip(coords_of(i), coords_of(i)[1:]))
            )
            if members:
                reported.append((members[0], float(me)))
    reported.sort(key=lambda item: item[0])
    return reported


def coordinate_mask(origins, resolution: int, counts, simplex: bool) -> np.ndarray:
    """Included cells of the box with these axes, from their float coordinates: a
    simplex keeps the cells whose coordinates never decrease.  C-order is lexicographic."""
    mask = np.ones(tuple(counts), dtype=bool)
    if simplex:
        axes = [o + resolution * np.arange(c, dtype=float) for o, c in zip(origins, counts)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        for a, b in zip(grids, grids[1:]):
            mask &= a <= b
    return mask


def mask_of(field: ScalarField) -> np.ndarray:
    """The ``counts``-shaped box mask of a field's stored cells, from their float
    coordinates (:func:`coordinate_mask`); C-order is the field's value order."""
    return coordinate_mask(field.origins, field.resolution, field.counts, field.simplex)


def symmetric_extension(field: ScalarField) -> np.ndarray:
    """Box array of a field, cell by cell: a simplex cell reads its sorted coordinates."""
    out = np.empty(field.counts)
    for idx in np.ndindex(*field.counts):
        coords = [field.origins[k] + field.resolution * i for k, i in enumerate(idx)]
        out[idx] = field.value_at(sorted(coords) if field.simplex else coords)
    return out


def dense_interpolate(field: ScalarField, coords) -> float:
    """Multilinear interpolation at off-grid coordinates (cents), each corner read from
    the box array ``field.dense()``."""
    if len(coords) != field.dims:
        raise ValueError(f"expected {field.dims} coordinates, got {len(coords)}")
    dense = field.dense()
    pos = []
    for k, c in enumerate(coords):
        t = (float(c) - field.origins[k]) / field.resolution
        if not -1e-9 <= t <= field.counts[k] - 1 + 1e-9:
            raise ValueError(f"coordinate {c} is outside axis {field.axis_names[k]}")
        pos.append(min(max(t, 0.0), field.counts[k] - 1.0))
    lo = [min(int(math.floor(t)), field.counts[k] - 1) for k, t in enumerate(pos)]
    frac = [t - i for t, i in zip(pos, lo)]
    out = 0.0
    for corner in itertools.product((0, 1), repeat=field.dims):
        w = math.prod(f if bit else 1.0 - f for f, bit in zip(frac, corner))
        idx = tuple(min(i + bit, n - 1) for i, bit, n in zip(lo, corner, field.counts))
        if w:
            out += w * float(dense[idx])
    return out


def per_line_gaussian_smooth(field: ScalarField, sigma_cents: float) -> np.ndarray:
    """Values of ``gaussian_smooth(field, sigma_cents)``, one 1-D line at a time: on the
    :func:`symmetric_extension`, axis by axis, each line gets ``radius`` copies of its
    first and last value at either end and is convolved alone with ``np.convolve``."""
    radius = int(6.0 * sigma_cents // field.resolution)
    kernel = _kernel(sigma_cents, field.resolution, radius)
    box = symmetric_extension(field)
    for axis in range(field.dims):
        out = np.empty_like(box)
        for idx in np.ndindex(*box.shape[:axis], *box.shape[axis + 1:]):
            line = idx[:axis] + (slice(None),) + idx[axis:]
            row = box[line].tolist()
            padded = np.array([row[0]] * radius + row + [row[-1]] * radius)
            out[line] = np.convolve(padded, kernel, mode="valid")
        box = out
    return box[mask_of(field)]


def per_cell_export_csv(field: ScalarField, path) -> None:
    """Write cells as CSV: coordinate columns, then the value at 6 decimals."""
    lines = [",".join(field.axis_names + (field.value_name,))]
    cells = field._coords(np.argwhere(mask_of(field))).tolist() if field.dims else [()]
    for coords, v in zip(cells, field.values.reshape(-1)):
        parts = [_fmt_coord(c) for c in coords]
        parts.append(f"{float(v):.6f}")
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def per_row_export_matrix(field: ScalarField, path) -> None:
    """Whitespace-separated dense matrix (rows follow the first axis), one
    6-decimal string per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in field.dense():
            fh.write(" ".join(f"{v:.6f}" for v in row.tolist()) + "\n")


def row_import_csv(path) -> ScalarField:
    """Rebuild a field from :func:`export_csv` output.

    Grid structure (origins, counts, resolution, simplex flag) is inferred
    from the coordinate columns.  Malformed rows raise ``ValueError`` with
    the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:  # blank lines keep their numbers
        lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: line 1: empty file")
    header = lines[0][1].split(",")
    axis_names = tuple(header[:-1])
    value_name = header[-1]
    dims = len(axis_names)

    coords_rows: list[tuple[float, ...]] = []
    values: list[float] = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != dims + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {dims + 1} columns, got {len(parts)}"
            )
        try:
            coords_rows.append(tuple(float(p) for p in parts[:-1]))
            values.append(float(parts[-1]))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None

    if not coords_rows:
        raise ValueError(f"{path}: line {lines[0][0] + 1}: no data rows")
    for (lineno, _), coords in zip(lines[1:], coords_rows):
        if not all(math.isfinite(x) for x in coords):
            raise ValueError(f"{path}: line {lineno}: non-finite coordinates {coords}")
    rows = np.asarray(coords_rows)
    uniques = [np.unique(rows[:, k]) for k in range(dims)]
    steps = [min(float(y) - float(x) for x, y in zip(u, u[1:])) for u in uniques if len(u) >= 2]
    spans = [float(u[-1]) - float(u[0]) for u in uniques]
    step = min(steps) if steps else 1.0
    if not (all(map(math.isfinite, spans)) and round(step) >= 1):  # a finite span bounds the steps
        raise ValueError(
            f"{path}: the coordinates span {max(spans):g} cents in steps of {step:g}, "
            "no grid of whole cents"
        )
    resolution = int(round(step))
    origins = tuple(float(u[0]) for u in uniques)
    counts = tuple(int(round(float(u[-1] - u[0]) / resolution)) + 1 for u in uniques)

    box_count = int(np.prod(counts))
    simplex = dims >= 2 and len(coords_rows) < box_count
    try:
        fld = ScalarField(
            resolution=resolution,
            origins=origins,
            counts=counts,
            simplex=simplex,
            axis_names=axis_names,
            values=np.asarray(values),
            value_name=value_name,
            meta={},
        )
    except ValueError as exc:  # a simplex over differing axes, or a count that misses the grid
        msg = str(exc)
        if msg.startswith("value count"):
            msg = f"row count {len(coords_rows)} does not match the inferred grid ({msg})"
        raise ValueError(f"{path}: {msg}") from None
    off = np.abs(rows - fld._coords(np.argwhere(mask_of(fld)))) > 1e-6
    bad = np.flatnonzero(off.any(axis=1))
    if bad.size:
        raise ValueError(
            f"{path}: line {lines[bad[0] + 1][0]}: coordinates {coords_rows[bad[0]]} "
            "break lexicographic order"
        )
    return fld


def interval_cells(n: int, resolution: int) -> list[tuple[float, ...]]:
    """Cells of the one-octave grid of n-note chords, in cents above the root,
    each non-decreasing, in lexicographic order."""
    if 1200 % resolution != 0:
        raise ValueError(f"resolution {resolution} does not divide 1200")
    axis = [float(c) for c in range(0, 1201, resolution)]
    return list(itertools.combinations_with_replacement(axis, n - 1))


def _sorted_mask(m: int, d: int) -> np.ndarray:
    """The cells of the ``m**d`` box whose indices never decrease; C-order is lexicographic."""
    mask = np.ones((m,) * d, dtype=bool)
    grids = np.ogrid[(slice(m),) * d]
    for a, b in zip(grids, grids[1:]):
        mask &= a <= b
    return mask


def nonzero_interval_grid(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """``(notes, rows)`` of the one-octave grid of n-note chords from the sorted mask's
    ``np.nonzero`` cell indices (intp), stacked under a zero root row and transposed."""
    m = 1200 // resolution + 1
    cells = np.nonzero(_sorted_mask(m, n - 1))
    return np.arange(m) * resolution / 100, np.stack((np.zeros_like(cells[0]), *cells)).T


def face(field: ScalarField, lower: ScalarField, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Face k of an n-note interval field against the (n-1)-note field ``lower`` of the same
    grid: ``(field's values on the face, lower's values at each face cell's chord)``.

    Face 0 is x2 index 0 (a note on the root), face k of 1 to n - 2 is x(k+1) index =
    x(k+2) index (a doubled note) and face n - 1 is xn index m - 1 (the octave).  Each face
    cell is picked from ``_index``; dropping that note leaves a cell of ``lower``, read by
    its ``_rank`` (a dyad field is a box, so there the rank is the index).
    """
    idx, d = field._index.astype(int), field.dims
    on = idx[0] == 0 if k == 0 else idx[d - 1] == field.counts[0] - 1 if k == d else idx[k - 1] == idx[k]
    cells = np.delete(idx[:, on], min(k, d - 1), axis=0).T.tolist()
    return field.values[on], lower.values[[lower._rank(c) for c in cells]]


def cell_chord(coords: tuple[float, ...]) -> Chord:
    """Chord of an interval-grid cell: root 0 plus the cell's notes in cents."""
    return normalize((0.0,) + tuple(c / 100.0 for c in coords))


def per_chord_roughness(
    c: Chord,
    spectrum: Spectrum = harmonic_spectrum(),
    f0: float = DEFAULT_F0_HZ,
    params: RoughnessParams = RoughnessParams(),
) -> float:
    """Pair roughness summed over one chord's partials, one chord at a time."""
    freqs = []
    amps = []
    for p in c.notes:
        base = freq_from_pitch(p, f0)
        for ratio, amp in spectrum.partials:
            freqs.append(base * ratio)
            amps.append(amp)
    f = np.asarray(freqs)
    a = np.asarray(amps)
    order = np.argsort(f, kind="stable")
    f = f[order]
    a = a[order]
    i, j = np.triu_indices(len(f), k=1)
    fmin = f[i]
    gap = f[j] - f[i]
    s = params.peak_fraction / (params.bandwidth_slope * fmin + params.bandwidth_offset_hz)
    x = s * gap
    terms = params.scale * a[i] * a[j] * (
        np.exp(-params.slow_decay * x) - np.exp(-params.fast_decay * x)
    )
    return float(terms.sum())


def per_cell_roughness_field(
    n: int,
    resolution: int,
    spectrum: Spectrum = harmonic_spectrum(),
    f0: float = DEFAULT_F0_HZ,
    params: RoughnessParams = RoughnessParams(),
) -> ScalarField:
    """Chord roughness over the one-octave grid, one :func:`per_chord_roughness` per cell."""
    if n not in (2, 3, 4):
        raise ValueError(f"roughness fields support 2 to 4 notes, got {n}")
    cells = interval_cells(n, resolution)
    values = [per_chord_roughness(cell_chord(coords), spectrum, f0, params) for coords in cells]
    meta = {
        "generator": "roughness",
        "domain": "intervals",
        "resolution_cents": resolution,
        "f0_hz": f0,
        "spectrum": [[r, a] for r, a in spectrum.partials],
        "params": {
            "slow_decay": params.slow_decay,
            "fast_decay": params.fast_decay,
            "peak_fraction": params.peak_fraction,
            "bandwidth_slope": params.bandwidth_slope,
            "bandwidth_offset_hz": params.bandwidth_offset_hz,
            "scale": params.scale,
        },
        "sigma_cents": 0.0,
    }
    return make_simplex_field(n - 1, resolution, values, "roughness", meta)


def per_cell_periodicity_field(
    n: int, resolution: int, cfg: PeriodicityConfig = PeriodicityConfig()
) -> ScalarField:
    """log2 periodicity over the one-octave grid, one :func:`chord_periodicity` per cell."""
    if n not in (2, 3, 4):
        raise ValueError(f"field generation supports 2 to 4 notes, got {n}")
    cells = interval_cells(n, resolution)
    values = [math.log2(chord_periodicity(cell_chord(c), cfg)[0]) for c in cells]
    meta = {
        "generator": "periodicity",
        "domain": "intervals",
        "resolution_cents": resolution,
        "jnd_cents": cfg.jnd_cents,
        "qmax": cfg.qmax,
        "pairwise_constraint": cfg.pairwise_constraint,
        "sigma_cents": 0.0,
    }
    return make_simplex_field(n - 1, resolution, values, "log2_periodicity", meta)


#: The root's candidate triples: exactly 1/1, detuned by 0 cents.
ROOT = ((1, 1, 0.0),)


def single_pass_min_lcm(
    lists: list[tuple[float, tuple[tuple[int, int, float], ...]]], window: float, seed_lcm: int = 1
) -> tuple[int, tuple[tuple[int, int, float], ...]] | None:
    """:func:`min_lcm` as one branch-and-bound pass from an unbounded start."""
    best = math.inf
    found = None
    last, lcm = len(lists) - 1, math.lcm

    def search(i: int, cur: int, lo: float, hi: float, chosen: list):
        nonlocal best, found
        cents, pairs = lists[i]
        for c in pairs:
            q = c[0]
            if q >= best:
                break  # denominators ascend and the lcm is at least each one
            nxt = lcm(cur, q)
            if nxt >= best:
                continue
            d = c[2] - cents
            nlo = d if d < lo else lo
            nhi = d if d > hi else hi
            if nhi - nlo > window:
                continue
            chosen.append(c)
            if i == last:
                best, found = nxt, tuple(chosen)
            else:
                search(i + 1, nxt, nlo, nhi, chosen)
            chosen.pop()

    if not lists:
        return seed_lcm, ()
    search(0, seed_lcm, math.inf, -math.inf, [])
    return None if found is None else (
        best, tuple((q, p, log - cents) for (q, p, log), (cents, _) in zip(found, lists)))


def tunings_with_lcm(
    lists: list[tuple[tuple[int, int, float], ...]],
    target: int,
    window: float,
    seed_lcm: int = 1,
) -> Iterator[tuple[tuple[int, int, float], ...]]:
    """Every choice of one ``(q, p, detuning)`` candidate per list whose lcm
    of denominators with ``seed_lcm`` is ``target``.

    Same window rule as :func:`min_lcm`; choices are yielded in list order.
    """
    sub = [[c for c in lst if target % c[0] == 0] for lst in lists]

    def walk(i: int, cur: int, lo: float, hi: float, chosen: list):
        if i == len(sub):
            if cur == target:
                yield tuple(chosen)
            return
        for c in sub[i]:
            nlo, nhi = min(lo, c[2]), max(hi, c[2])
            if nhi - nlo > window:
                continue
            chosen.append(c)
            yield from walk(i + 1, math.lcm(cur, c[0]), nlo, nhi, chosen)
            chosen.pop()

    if all(sub):
        yield from walk(0, seed_lcm, math.inf, -math.inf, [])


def sweep_periodicity_field(
    n: int,
    resolution: int,
    cfg: PeriodicityConfig = PeriodicityConfig(),
    max_periodicity: int = 100_000,
) -> ScalarField:
    """Ascending-periodicity sweep over the same grid as ``periodicity_field``.

    Walks q = 1, 2, ... and stamps every not-yet-assigned cell whose JND
    neighborhood contains a chord of periodicity exactly q.  Only tunings
    near remaining cells are ever considered, which is the standard
    efficiency shortcut; the assigned values are unchanged by it.  Reads the
    exact grid cents, where ``periodicity_field`` reads them round-tripped
    through semitones; the two differ at some 1-cent cells.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"field generation supports 2 to 4 notes, got {n}")
    cells = interval_cells(n, resolution)
    cand_per_cell = [
        [ratio_candidates(x, cfg, clamp=True) for x in coords] for coords in cells
    ]
    values = np.full(len(cells), np.nan)
    remaining = set(range(len(cells)))
    for i, lists in enumerate(cand_per_cell):
        if any(not lst for lst in lists):
            raise UnresolvableChordError(
                f"cell {cells[i]} has a note with no admissible fraction"
            )
    window = _window(cfg)
    q = 1
    while remaining and q <= max_periodicity:
        stamped = [
            i
            for i in remaining
            if next(tunings_with_lcm([ROOT] + cand_per_cell[i], q, window), None)
            is not None
        ]
        for i in stamped:
            values[i] = math.log2(q)
            remaining.discard(i)
        q += 1
    if remaining:
        residual = [cells[i] for i in sorted(remaining)]
        raise UnresolvableChordError(
            f"sweep exhausted q <= {max_periodicity} with unassigned cells: {residual[:10]}"
        )
    return make_simplex_field(n - 1, resolution, values, "log2_periodicity", _field_meta(cfg))


def _second_side(prog: Progression, pcfg: PeriodicityConfig):
    """The first chord's candidate lists over the second chord's root, the
    second chord's minimal periodicity p2 (root pinned to 1/1) and its
    tunings that realize p2; None when the second chord has no tuning."""
    s = prog.second.root
    lists2 = [ratio_candidates((x - s) * 100.0, pcfg, clamp=False) for x in prog.second.notes[1:]]
    # triples as min_lcm's (cents, pairs) lists at 0 cents: each detuning is its own log
    found = min_lcm([(0.0, lst) for lst in [ROOT] + lists2], pcfg.jnd_cents)
    if found is None:
        return None
    p2 = found[0]
    tunings2 = tunings_with_lcm([ROOT] + lists2, p2, pcfg.jnd_cents)
    lists1 = [ratio_candidates((x - s) * 100.0, pcfg, clamp=False) for x in prog.first.notes]
    return lists1, p2, tunings2


def _feasible_at_ratio(prog: Progression, cfg: TransitiveConfig, ratio: int) -> bool:
    """True iff some admissible joint tuning realizes exactly this ratio."""
    pcfg = cfg.periodicity_config()
    second = _second_side(prog, pcfg)
    if second is None:
        return False
    lists1, p2, tunings2 = second
    for chosen in tunings2:
        pinned = [(c,) for c in chosen]  # the second chord's tuning, one candidate per note
        tunings = tunings_with_lcm(pinned + lists1, ratio * p2, pcfg.jnd_cents, p2)
        if next(tunings, None) is not None:
            return True
    return False


def _window_cells(c1: Chord, cfg: TransitiveConfig, resolution: int):
    """Origins, counts and cent coordinates of the target window around
    ``c1``, in lexicographic cell order, with ``transitive_field``'s checks."""
    gaps = [(b - a) * 100.0 for a, b in zip(c1.notes, c1.notes[1:])]
    if gaps and 2 * cfg.scope_cents >= min(gaps):
        raise ValueError(
            f"scope {cfg.scope_cents:g} cents makes note windows overlap "
            f"(minimal note gap is {min(gaps):g} cents)"
        )
    k = int(cfg.scope_cents // resolution)
    origins = tuple(p * 100.0 - k * resolution for p in c1.notes)
    counts = (2 * k + 1,) * len(c1)
    cells = list(itertools.product(
        *([o + resolution * i for i in range(c)] for o, c in zip(origins, counts))
    ))
    return origins, counts, cells


def _window_panel(
    c1: Chord, cfg: TransitiveConfig, resolution: int, origins, counts, values,
    value_name: str, generator: str,
) -> ScalarField:
    meta = {
        "domain": "notes",
        "from_chord": list(c1.notes),
        "scope_cents": cfg.scope_cents,
        "resolution_cents": resolution,
        "jnd_cents": cfg.jnd_cents,
        "qmax": cfg.qmax,
        "sigma_cents": 0.0,
        "generator": generator,
    }
    names = tuple(f"x{i + 1}" for i in range(len(c1)))
    return ScalarField(resolution, origins, counts, False, names, values, value_name, meta)


def per_cell_transitive_field(
    c1: Chord,
    cfg: TransitiveConfig = TransitiveConfig(),
    resolution: int = 50,
) -> tuple[ScalarField, ScalarField]:
    """``transitive_field`` from one target chord per cell: its transitive
    periodicity, then the periodicity of the target shifted to its root."""
    origins, counts, cells = _window_cells(c1, cfg, resolution)
    targets = [Chord(tuple(x / 100.0 for x in coords)) for coords in cells]
    pcfg = cfg.periodicity_config()
    trans, comp = [], []
    for c2 in targets:
        trans.append(math.log2(transitive_periodicity(Progression(c1, c2), cfg)))
        comp.append(math.log2(chord_periodicity(shift(c2, c2.root), pcfg)[0]))
    return (
        _window_panel(
            c1, cfg, resolution, origins, counts, trans,
            "log2_transitive_periodicity", "transitive",
        ),
        _window_panel(
            c1, cfg, resolution, origins, counts, comp,
            "log2_periodicity", "periodicity_of_second",
        ),
    )


def sweep_transitive_field(
    c1: Chord,
    cfg: TransitiveConfig = TransitiveConfig(),
    resolution: int = 50,
    max_ratio: int = 100_000,
) -> ScalarField:
    """Ascending-ratio sweep formulation of ``transitive_field``.

    Stamps each window cell at the first ratio p = 1, 2, ... for which a
    joint tuning exists; the order-independent cross-check of the
    cell-local minimization.
    """
    origins, counts, cells = _window_cells(c1, cfg, resolution)
    targets = [Chord(tuple(x / 100.0 for x in coords)) for coords in cells]
    values = np.full(len(cells), np.nan)
    remaining = set(range(len(cells)))
    p = 1
    while remaining and p <= max_ratio:
        stamped = [
            i for i in remaining
            if _feasible_at_ratio(Progression(c1, targets[i]), cfg, p)
        ]
        for i in stamped:
            values[i] = math.log2(p)
            remaining.discard(i)
        p += 1
    if remaining:
        residual = [cells[i] for i in sorted(remaining)]
        raise UnresolvableProgressionError(
            f"sweep exhausted ratios <= {max_ratio} with unassigned cells: {residual[:10]}"
        )
    return _window_panel(
        c1, cfg, resolution, origins, counts, values,
        "log2_transitive_periodicity", "transitive",
    )
