"""Rational tuning and periodicity of chords.

An interval is heard as the simplest frequency ratio within a just-noticeable
difference; the periodicity of a dyad is the denominator of that ratio, and
the periodicity of a chord is the least common multiple of the denominators
of a joint rational tuning of all notes relative to the root.  The search for
a joint tuning keeps every per-note detuning within the JND and, by default,
every pairwise detuning difference within the JND as well.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import itemgetter

import numpy as np

from .errors import UnresolvableChordError, UnresolvableIntervalError
from .field import ScalarField, make_simplex_field, simplex_cells
from .pitch import CENTS_PER_SEMITONE, Chord, cell_chord

__all__ = [
    "PeriodicityConfig",
    "RationalTuning",
    "min_denominator_ratio",
    "dyad_periodicity",
    "chord_periodicity",
    "rerooted_periodicity",
    "periodicity_field",
    "ratio_candidates",
    "min_lcm",
]


@dataclass(frozen=True)
class PeriodicityConfig:
    """Tolerances for the rational-tuning search.

    ``pairwise_constraint`` toggles the pairwise detuning bound; disabling it
    leaves only the per-note bound (the looser convention used by earlier
    periodicity models).
    """

    jnd_cents: float = 18.0
    qmax: int = 100
    pairwise_constraint: bool = True

    def __post_init__(self):
        if not (self.jnd_cents > 0 and math.isfinite(self.jnd_cents)):
            raise ValueError(f"jnd_cents must be positive, got {self.jnd_cents!r}")
        if self.qmax < 2:
            raise ValueError(f"qmax must be >= 2, got {self.qmax!r}")


@dataclass(frozen=True)
class RationalTuning:
    """A joint rational tuning: one reduced fraction per note, plus detunings."""

    ratios: tuple[Fraction, ...]
    detunings_cents: tuple[float, ...]
    periodicity: int

    def __post_init__(self):
        if len(self.ratios) != len(self.detunings_cents):
            raise ValueError("ratios and detunings must align")
        if self.periodicity != math.lcm(*(r.denominator for r in self.ratios)):
            raise ValueError("periodicity must equal the lcm of the denominators")


def _ratio_window(
    cents: float, jnd_cents: float, clamp: bool, qmax: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    where = f"the ratio window of {cents:g} cents with a JND of {jnd_cents:g} cents"
    # Exact integer ratios, taken before clamping so that an infinite end fails here.
    try:
        a, b = (2.0 ** ((cents - jnd_cents) / 1200.0)).as_integer_ratio()
        c, d = (2.0 ** ((cents + jnd_cents) / 1200.0)).as_integer_ratio()
    except OverflowError:
        raise ValueError(f"{where} overflows a float") from None
    if clamp:  # cut the window to the octave [1, 2]
        a, b = (a, b) if a >= b else (1, 1)
        c, d = (c, d) if c <= 2 * d else (2, 1)
    # The walk costs time and memory for each of about (hi - lo) * qmax**2 * 3 / pi**2 ratios.
    if c * b - a * d > 64 * b * d:
        raise ValueError(f"{where} spans {a / b:g} to {c / d:g}, wider than 64")
    if (c * b - a * d) * qmax**2 > 4_000_000 * b * d:
        raise ValueError(f"{where} holds too many ratios with denominators up to {qmax}")
    return (a, b), (c, d)


def min_denominator_ratio(
    interval: float, cfg: PeriodicityConfig = PeriodicityConfig()
) -> Fraction:
    """Smallest-denominator fraction approximating an interval within the JND.

    ``interval`` is in semitones, restricted to one octave; the search window
    is the JND band around it intersected with [1, 2].  Ties between equal
    denominators resolve to the smaller numerator: the result is the first
    of :func:`ratio_candidates`.
    """
    if not 0 <= interval <= 12 + 1e-9:  # as chord_periodicity: 23.78 - 11.78 is an octave
        raise ValueError(f"interval must lie in [0, 12] semitones, got {interval!r}")
    cents = interval * CENTS_PER_SEMITONE
    candidates = ratio_candidates(cents, cfg)
    if not candidates:
        window = tuple(n / m for n, m in _ratio_window(cents, cfg.jnd_cents, True, cfg.qmax))
        raise UnresolvableIntervalError(cents, cfg.jnd_cents, cfg.qmax, window)
    q, p, _ = candidates[0]
    return Fraction(p, q)


def dyad_periodicity(interval: float, cfg: PeriodicityConfig = PeriodicityConfig()) -> int:
    """Denominator of :func:`min_denominator_ratio`."""
    return min_denominator_ratio(interval, cfg).denominator


def _farey_start(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """(p, q, r, s): the least p/q >= a/b > 0 with q <= n and its Farey successor r/s, by
    a Stern-Brocot descent that keeps neighbours L < a/b <= R, each run of steps at once."""
    lp = (a - 1) // b  # L < a/b <= R, both integers
    lq, rp, rq = 1, lp + 1, 1
    while lq + rq <= n:
        below, above = a * lq - b * lp, b * rp - a * rq
        if below <= above:  # a/b <= mediant: R moves towards L
            k = min(above // below, (n - rq) // lq)
            rp, rq = rp + k * lp, rq + k * lq
        else:  # L moves towards R, staying below a/b
            k = min((below - 1) // above if above else n, (n - lq) // rq)
            lp, lq = lp + k * rp, lq + k * rq
    k = (n + lq) // rq
    return rp, rq, k * rp - lp, k * rq - lq


@lru_cache(maxsize=65536)
def _candidates_cached(
    cents: float, jnd_cents: float, qmax: int, clamp: bool
) -> tuple[tuple[int, int, float], ...]:
    """Walk the Farey sequence of order qmax through the window: p/q < r/s
    are followed by (k*r - p)/(k*s - q), k = (qmax + q) // s (Graham, Knuth &
    Patashnik, *Concrete Mathematics*, 2nd ed., section 4.5)."""
    (a, b), (c, d) = _ratio_window(cents, jnd_cents, clamp, qmax)
    # a lower end that underflowed to 0 starts at 1/qmax, the least ratio with p >= 1
    p, q, r, s = _farey_start(a, b, qmax) if a else _farey_start(1, qmax, qmax)
    pairs, log2 = [], math.log2
    while p * d <= c * q:
        pairs.append((q, p))
        k = (qmax + q) // s
        p, r = r, k * r - p
        q, s = s, k * s - q
    pairs.sort(key=itemgetter(0))  # stable: each q's numerators already ascend
    return tuple([(q, p, 1200.0 * log2(p / q) - cents) for q, p in pairs])


def ratio_candidates(
    cents: float, cfg: PeriodicityConfig, clamp: bool = True
) -> tuple[tuple[int, int, float], ...]:
    """All reduced fractions p/q within the JND of a cent value, as
    ``(q, p, detuning_cents)`` triples of plain numbers ordered by (q, p).

    With ``clamp`` the window is intersected with the octave [1, 2], matching
    chords normalized to one octave; without it any positive ratio is
    admitted, which covers notes outside the reference octave.  A walk along
    the Farey sequence of order ``qmax`` (Graham, Knuth & Patashnik, *Concrete
    Mathematics*, section 4.5) lists exactly these; over about 1.2 million of
    them, ``(hi - lo) * qmax**2 > 4e6``, raise ``ValueError`` instead.
    """
    return _candidates_cached(float(cents), cfg.jnd_cents, cfg.qmax, clamp)


def _window(cfg: PeriodicityConfig) -> float:
    """Width allowed for the pairwise detuning window; unbounded without it."""
    return cfg.jnd_cents if cfg.pairwise_constraint else math.inf


#: The root's candidate list: exactly 1/1, detuned by 0 cents.
_ROOT = ((1, 1, 0.0),)


def min_lcm(
    lists: list[tuple[tuple[int, int, float], ...]], window: float, seed_lcm: int = 1
) -> tuple[int, tuple[tuple[int, int, float], ...]] | None:
    """Branch-and-bound for the minimal-lcm choice of one candidate per list.

    ``lists`` hold ``(q, p, detuning)`` candidates in ascending-denominator
    order, as :func:`ratio_candidates` returns them.  The running lcm of the
    denominators q starts at ``seed_lcm`` and the detuning window starts
    empty; every chosen detuning must keep the window at most ``window``
    cents wide.  A pinned root is the one-candidate list :data:`_ROOT`,
    placed first so that the window opens at its 0.  Returns (lcm, chosen
    triples) for the first minimal choice in list order, or None.
    """
    best = math.inf
    found = None
    last, lcm = len(lists) - 1, math.lcm

    def search(i: int, cur: int, lo: float, hi: float, chosen: list):
        nonlocal best, found
        for c in lists[i]:
            q, _, d = c
            if q >= best:
                break  # denominators ascend and the lcm is at least each one
            nxt = lcm(cur, q)
            if nxt >= best:
                continue
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
    return None if found is None else (best, found)


def _unclamped(notes, cfg: PeriodicityConfig) -> list:
    """Unclamped candidate lists of notes given in semitones over the 1/1."""
    return [ratio_candidates(p * CENTS_PER_SEMITONE, cfg, clamp=False) for p in notes]


def _check_octave(notes: tuple[float, ...]) -> None:
    """Reject rooted notes whose top note lies beyond the octave."""
    if notes[-1] > 12 + 1e-9:  # shift() may land an octave at 12.000000000000002
        raise ValueError(f"chord must stay within one octave, got {notes}")


def chord_periodicity(
    c: Chord, cfg: PeriodicityConfig = PeriodicityConfig()
) -> tuple[int, RationalTuning]:
    """Minimal chord periodicity and a tuning witness.

    The chord must be rooted at 0 with all notes inside one octave.  The root
    is tuned to exactly 1/1 (zero detuning); every other note ranges over the
    reduced fractions within the JND of its interval from the root, and the
    search minimizes the lcm of the denominators subject to the per-note and
    (by default) pairwise detuning bounds.

    Returns
    -------
    (periodicity, tuning):
        ``periodicity`` is the minimal lcm; ``tuning`` is the first minimal
        witness in (denominator, numerator) search order, which makes the
        result deterministic.
    """
    if c.notes[0] != 0:
        raise ValueError(f"chord must be rooted at 0, got root {c.notes[0]!r}")
    _check_octave(c.notes)
    lists = [ratio_candidates(p * CENTS_PER_SEMITONE, cfg) for p in c.notes[1:]]
    found = min_lcm([_ROOT] + lists, _window(cfg))
    if found is None:
        raise UnresolvableChordError(
            f"no joint rational tuning of {c} within {cfg.jnd_cents:g} cents "
            f"and denominators <= {cfg.qmax}"
        )
    lcm, chosen = found
    ratios = tuple(Fraction(p, q) for q, p, _ in chosen)
    return lcm, RationalTuning(ratios, tuple(d for _, _, d in chosen), lcm)


def rerooted_periodicity(
    c: Chord, cfg: PeriodicityConfig = PeriodicityConfig()
) -> tuple[int, dict[float, int | None]]:
    """Minimum of the pinned-root periodicity over every choice of root note.

    Investigation helper: re-rooting moves the exact-1/1 pin to each note in
    turn (other notes may then fall outside [1, 2] and use unclamped ratio
    windows).  Returns the overall minimum and the per-root values, ``None``
    where no tuning is feasible.
    """
    per_root: dict[float, int | None] = {}
    best = None
    for r in c.notes:
        lists = _unclamped([p - r for p in c.notes if p != r], cfg)
        found = min_lcm([_ROOT] + lists, _window(cfg))
        per_root[r] = found[0] if found else None
        if found and (best is None or found[0] < best):
            best = found[0]
    if best is None:
        raise UnresolvableChordError(f"no rational tuning of {c} under any re-rooting")
    return best, per_root


def _field_meta(cfg: PeriodicityConfig, resolution: int, generator: str) -> dict:
    return {
        "generator": generator,
        "domain": "intervals",
        "resolution_cents": resolution,
        "jnd_cents": cfg.jnd_cents,
        "qmax": cfg.qmax,
        "pairwise_constraint": cfg.pairwise_constraint,
        "sigma_cents": 0.0,
    }


def periodicity_field(
    n: int, resolution: int, cfg: PeriodicityConfig = PeriodicityConfig()
) -> ScalarField:
    """log2 chord periodicity on the one-octave grid of n-note chords.

    Each cell holds :func:`chord_periodicity` of the cell's chord, from one
    candidate list per axis value (grid cents round-tripped through semitones).
    A cell's minimal lcm L* is the least L at which some joint tuning uses only
    candidates whose denominator q divides L, so one lcm ladder serves the grid:
    for L = 1 ... ``cfg.qmax`` it keeps each axis value's detunings with q | L
    and gives L to every unassigned cell with a choice whose float max - min,
    the root's 0 included, fits :func:`min_lcm`'s window.  Cells left after qmax
    (L* > qmax) run :func:`chord_periodicity` one by one in lexicographic order,
    on the same candidate lists; the first infeasible one raises its error.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"field generation supports 2 to 4 notes, got {n}")
    idx = (simplex_cells(n - 1, resolution).T / resolution).astype(np.intp)  # a row per note
    lists = [_ROOT] + [  # axis value 0 is the root, tuned to 1/1
        ratio_candidates(k * resolution / CENTS_PER_SEMITONE * CENTS_PER_SEMITONE, cfg)
        for k in range(1, 1200 // resolution + 1)
    ]
    window, values, pos = _window(cfg), np.empty(idx.shape[1]), np.arange(idx.shape[1])
    cands, read, lcm, bound = np.empty((0, 3)), [0] * len(lists), 0, 0  # rows (q, axis, detuning)
    while len(pos) and lcm < cfg.qmax:
        lcm += 1
        if lcm > bound:  # read on to q <= 2 lcm, only for axis values still in use
            bound, upto = min(2 * lcm, cfg.qmax), read.copy()
            for k in np.flatnonzero(np.bincount(idx.ravel(), minlength=len(lists))).tolist():
                upto[k] = bisect_right(lists[k], bound, key=itemgetter(0))
            new = np.array([c for lst, i, j in zip(lists, read, upto) for c in lst[i:j]])
            new = np.concatenate([cands, new.reshape(-1, 3)])
            new[len(cands) :, 1] = np.repeat(np.arange(len(lists)), np.subtract(upto, read))
            cands, read = new[np.argsort(new[:, 1], kind="stable")], upto
        sel = cands[lcm % cands[:, 0] == 0]  # grouped by axis value
        axis = sel[:, 1].astype(np.intp)
        count = np.bincount(axis, minlength=len(lists))
        table = np.full((count.max(), len(lists)), np.nan)  # NaN pads fail the window
        table[np.arange(len(axis)) - (np.cumsum(count) - count)[axis], axis] = sel[:, 2]
        live = np.flatnonzero(np.logical_and.reduce((count > 0)[idx], axis=0))
        ok = np.zeros(len(live), dtype=bool)
        for picks in product(*[[t[r] for t in table] for r in idx[:, live]]):
            ok |= reduce(np.maximum, picks, 0.0) - reduce(np.minimum, picks, 0.0) <= window
        keep = np.bincount(live[ok], minlength=len(pos)) == 0
        values[pos[~keep]] = math.log2(lcm)
        idx, pos = idx[:, keep], pos[keep]
    for p, row in zip(pos.tolist(), idx.T.tolist()):
        chord = cell_chord(tuple(float(k * resolution) for k in row))
        values[p] = math.log2(chord_periodicity(chord, cfg)[0])
    return make_simplex_field(
        n - 1, resolution, values, "log2_periodicity", _field_meta(cfg, resolution, "periodicity")
    )
