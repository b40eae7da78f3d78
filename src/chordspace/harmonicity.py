"""Rational tuning and periodicity of chords.

An interval is heard as the simplest frequency ratio within a just-noticeable
difference; the periodicity of a dyad is the denominator of that ratio, and
the periodicity of a chord is the least common multiple of the denominators
of a joint rational tuning of all notes relative to the root.  The search for
a joint tuning keeps every per-note detuning within the JND and, by default,
every pairwise detuning difference within the JND as well.

A candidate list ``(cents, pairs)`` is a window onto one shared table of ``(q, p,
1200 log2(p/q))`` triples, built once per octave part of at most one JND: ``pairs`` holds
its ratios' triples in (q, p) order, each detuned by ``log - cents`` when a search reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import itemgetter

import numpy as np

from .errors import UnresolvableChordError, UnresolvableIntervalError
from .field import ScalarField, interval_grid, make_simplex_field
from .pitch import CENTS_PER_SEMITONE, Chord, normalize

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


def _part_of(a: int, b: int, m: int) -> int:
    """Index e*m + j of the octave part [2**e (m+j)/m, 2**e (m+j+1)/m) holding a/b > 0."""
    e = a.bit_length() - b.bit_length()
    e -= a << max(-e, 0) < b << max(e, 0)  # a/b < 2**e
    return e * m + (a * m << max(-e, 0)) // (b << max(e, 0)) - m


@lru_cache(maxsize=65536)
def _octave_part(k: int, m: int, qmax: int) -> tuple[tuple[int, int, float], ...]:
    """``(q, p, 1200 log2(p/q))`` of each reduced p/q, q <= qmax, in octave part k, ascending,
    by a walk along the Farey sequence of order qmax: p/q < r/s are followed by (n*r - p)/(n*s
    - q), n = (qmax + q) // s (Graham, Knuth & Patashnik, *Concrete Mathematics*, 4.5)."""
    e, j = divmod(k, m)
    a, b, c = (m + j) << max(e, 0), m << max(-e, 0), (m + j + 1) << max(e, 0)  # [a/b, c/b)
    p, q, r, s = _farey_start(a, b, qmax)
    out, log2 = [], math.log2
    while p * b < c * q:
        out.append((q, p, 1200.0 * log2(p / q)))
        n = (qmax + q) // s
        p, r = r, n * r - p
        q, s = s, n * s - q
    return tuple(out)


@lru_cache(maxsize=65536)
def _candidates_cached(
    cents: float, jnd_cents: float, qmax: int, clamp: bool
) -> tuple[float, tuple[tuple[int, int, float], ...]]:
    """``(cents, pairs)``: the shared :func:`_octave_part` triples of the window's
    ratios, from the parts it touches, trimmed at both ends and stably sorted by q."""
    (a, b), (c, d) = _ratio_window(cents, jnd_cents, clamp, qmax)
    if a * qmax < b:  # no ratio lies below 1/qmax; a lower end that underflowed to 0 starts there
        a, b = 1, qmax
    if a * d > c * b:
        return cents, ()
    # m parts per octave, each at most one JND (1732 > 1200/ln 2) and 2**20/qmax**2 wide
    u, v = jnd_cents.as_integer_ratio()
    m = max(-(-1732 * v // u), qmax * qmax >> 20)
    parts = range(_part_of(a, b, m), _part_of(c, d, m) + 1)
    ratios = [t for k in parts for t in _octave_part(k, m, qmax)]
    i = bisect_left(ratios, a / b, key=lambda t: t[1] / t[0])  # floats first, then exact
    while i < len(ratios) and ratios[i][1] * b < a * ratios[i][0]:
        i += 1
    j = bisect_right(ratios, c / d, i, key=lambda t: t[1] / t[0])
    while j > i and ratios[j - 1][1] * d > c * ratios[j - 1][0]:
        j -= 1
    return cents, tuple(sorted(ratios[i:j], key=itemgetter(0)))  # stable: each q's p ascend


def ratio_candidates(
    cents: float, cfg: PeriodicityConfig, clamp: bool = True
) -> tuple[tuple[int, int, float], ...]:
    """All reduced fractions p/q within the JND of a cent value, as
    ``(q, p, detuning_cents)`` triples of plain numbers ordered by (q, p).

    With ``clamp`` the window is intersected with the octave [1, 2], matching
    chords normalized to one octave; without it any positive ratio is
    admitted, which covers notes outside the reference octave.  The triples
    come from the shared table of :func:`_candidates_cached`; over about 1.2
    million ratios, ``(hi - lo) * qmax**2 > 4e6``, raise ``ValueError`` instead.
    """
    cents, pairs = _candidates_cached(float(cents), cfg.jnd_cents, cfg.qmax, clamp)
    return tuple([(q, p, log - cents) for q, p, log in pairs])


def _window(cfg: PeriodicityConfig) -> float:
    """Width allowed for the pairwise detuning window; unbounded without it."""
    return cfg.jnd_cents if cfg.pairwise_constraint else math.inf


#: The root's candidate list: exactly 1/1 at 0 cents, detuned by 0 cents.
_ROOT = (0.0, ((1, 1, 0.0),))


def min_lcm(
    lists: list[tuple[float, tuple[tuple[int, int, float], ...]]], window: float, seed_lcm: int = 1
) -> tuple[int, tuple[tuple[int, int, float], ...]] | None:
    """Branch-and-bound for the minimal-lcm choice of one candidate per list.

    Each list is ``(cents, pairs)`` as :func:`_candidates_cached` returns it:
    ``(q, p, log)`` triples in ascending-denominator order, a candidate's
    detuning ``log - cents`` taken only when the search reaches it.  The running lcm of the
    denominators q starts at ``seed_lcm`` and the detuning window starts
    empty; every chosen detuning must keep the window at most ``window``
    cents wide.  A pinned root is the one-candidate list :data:`_ROOT`,
    placed first so that the window opens at its 0.  Returns (lcm, chosen ``(q, p,
    detuning)`` triples) for the first minimal choice in list order, or None.
    """
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


def _candidate_lists(notes, cfg: PeriodicityConfig, clamp: bool = False) -> list:
    """Candidate lists of notes given in semitones over the 1/1, unclamped by default."""
    return [_candidates_cached(x * CENTS_PER_SEMITONE, cfg.jnd_cents, cfg.qmax, clamp) for x in notes]


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
    found = min_lcm([_ROOT] + _candidate_lists(c.notes[1:], cfg, clamp=True), _window(cfg))
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
        lists = _candidate_lists([p - r for p in c.notes if p != r], cfg)
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
    for L = 1 ... ``cfg.qmax`` it gives L to every unassigned cell with a choice of
    q | L whose float max - min, the root's 0 included, fits :func:`min_lcm`'s window,
    and each time L passes its bound it rebuilds its rows: q <= 2L, for the axis values
    still in use.  Cells left after qmax (L* > qmax) run :func:`chord_periodicity` one by
    one in lexicographic order, on the same lists; the first infeasible one raises.
    """
    notes, idx = interval_grid(n, resolution)
    idx = idx.T[1:]  # a contiguous row per non-root note; assigned cells leave it
    lists = [_ROOT] + _candidate_lists(notes[1:].tolist(), cfg, True)  # axis value 0 is the root
    window, values, pos = _window(cfg), np.empty(idx.shape[1]), np.arange(idx.shape[1])
    lcm = bound = 0
    while len(pos) and lcm < cfg.qmax:
        lcm += 1
        if lcm > bound:  # rebuild the rows (q, axis, detuning), q <= 2 lcm, of axis values in use
            bound, used = min(2 * lcm, cfg.qmax), np.flatnonzero(np.bincount(idx.ravel())).tolist()
            cands = np.array([(q, k, log - lists[k][0]) for k in used for q, _, log in
                              lists[k][1][: bisect_right(lists[k][1], bound, key=itemgetter(0))]])
            cands = cands.reshape(-1, 3)
        sel = cands[lcm % cands[:, 0] == 0]  # grouped by axis value
        axis = sel[:, 1].astype(np.intp)
        count = np.bincount(axis, minlength=len(lists))
        table = np.full((count.max(), len(lists)), np.nan)  # NaN pads fail the window
        table[np.arange(len(axis)) - (np.cumsum(count) - count)[axis], axis] = sel[:, 2]
        live = np.flatnonzero(np.logical_and.reduce((count > 0)[idx], axis=0))
        ok = np.zeros(len(live), dtype=bool)
        for picks in product(*[[t[r] for t in table] for r in idx[:, live]]):
            ok |= reduce(np.maximum, picks, 0.0) - reduce(np.minimum, picks, 0.0) <= window
        values[pos[live[ok]]] = math.log2(lcm)
        idx, pos = np.delete(idx, live[ok], axis=1), np.delete(pos, live[ok])
    for p, row in zip(pos.tolist(), idx.T.tolist()):
        values[p] = math.log2(chord_periodicity(normalize(notes[[0, *row]]), cfg)[0])
    return make_simplex_field(
        n - 1, resolution, values, "log2_periodicity", _field_meta(cfg, resolution, "periodicity")
    )
