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
A periodicity field copies the same table into numpy once, one slice per window, and
expands the rows of each lcm level's divisors from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import itemgetter

import numpy as np

from .errors import UnresolvableChordError, UnresolvableIntervalError, UnresolvableProgressionError
from .field import ScalarField, _integer, interval_grid, make_simplex_field
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
        object.__setattr__(self, "jnd_cents", float(self.jnd_cents))  # json cannot dump a numpy float32
        qmax = _integer("qmax", self.qmax)
        if qmax < 2:
            raise ValueError(f"qmax must be >= 2, got {self.qmax!r}")
        object.__setattr__(self, "qmax", qmax)  # a numpy integer would overflow the window bound


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


def _window_error(cents: float, jnd_cents: float, what: str) -> ValueError:
    return ValueError(f"the ratio window of {cents:g} cents with a JND of {jnd_cents:g} cents {what}")


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
        _, _, a, b, c, d = _window_span(cents, cfg.jnd_cents, cfg.qmax, True)
        raise UnresolvableIntervalError(cents, cfg.jnd_cents, cfg.qmax, (a / b, c / d))
    q, p, _ = candidates[0]
    return Fraction(p, q)


def dyad_periodicity(interval: float, cfg: PeriodicityConfig = PeriodicityConfig()) -> int:
    """Denominator of :func:`min_denominator_ratio`."""
    return min_denominator_ratio(interval, cfg).denominator


def _successor(p: int, q: int, n: int) -> tuple[int, int]:
    """r/s: the successor of p/q in the Farey sequence of order n, the r/s with
    r*q - p*s = 1 and the largest such s <= n."""
    s = n - (n + pow(p, -1, q)) % q
    return (p * s + 1) // q, s


def _farey_start(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """(p, q, r, s): the least p/q >= a/b > 0 with q <= n and its Farey successor r/s.
    The fraction nearest a/b with q <= n is one of a/b's two neighbours in the Farey
    sequence of order n, so p/q is it or, if it lies below a/b, its successor."""
    f = Fraction(a, b).limit_denominator(n)
    p, q = f.numerator, f.denominator
    if p * b < a * q:
        p, q = _successor(p, q, n)
    return p, q, *_successor(p, q, n)


def _part_of(a: int, b: int, m: int) -> int:
    """Index e*m + j of the octave part [2**e (m+j)/m, 2**e (m+j+1)/m) holding a/b > 0."""
    e = a.bit_length() - b.bit_length()
    a, b = (a, b << e) if e >= 0 else (a << -e, b)  # a/b over 2**e, in [1/2, 2)
    if a < b:
        a, e = a << 1, e - 1
    return e * m + a * m // b - m


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


def _window_span(cents: float, jnd_cents: float, qmax: int, clamp: bool) -> tuple:
    """``(m, parts, a, b, c, d)``: the window's ratios are the :func:`_octave_part` triples,
    m parts per octave, of ``parts`` with a/b <= p/q <= c/d; ``parts`` is empty when the
    window holds no ratio.  With ``clamp`` the ends are cut to the octave [1, 2]."""
    # Exact integer ratios, taken before clamping so that an infinite end fails here.
    try:
        a, b = (2.0 ** ((cents - jnd_cents) / 1200.0)).as_integer_ratio()
        c, d = (2.0 ** ((cents + jnd_cents) / 1200.0)).as_integer_ratio()
    except OverflowError:
        raise _window_error(cents, jnd_cents, "overflows a float") from None
    if clamp:  # cut the window to the octave [1, 2]
        a, b = (a, b) if a >= b else (1, 1)
        c, d = (c, d) if c <= 2 * d else (2, 1)
    # The walk costs time and memory for each of about (hi - lo) * qmax**2 * 3 / pi**2 ratios.
    width, bd = c * b - a * d, b * d  # c/d - a/b is width / bd
    if width > 64 * bd:
        raise _window_error(cents, jnd_cents, f"spans {a / b:g} to {c / d:g}, wider than 64")
    if width * qmax**2 > 4_000_000 * bd:
        raise _window_error(cents, jnd_cents, f"holds too many ratios with denominators up to {qmax}")
    if a * qmax < b:  # no ratio lies below 1/qmax; a lower end that underflowed to 0 starts there
        a, b = 1, qmax
    # m parts per octave, each at most one JND (1732 > 1200/ln 2) and 2**20/qmax**2 wide
    u, v = jnd_cents.as_integer_ratio()
    m = max(-(-1732 * v // u), qmax * qmax >> 20)
    parts = range(_part_of(a, b, m), _part_of(c, d, m) + 1) if a * d <= c * b else range(0)
    return m, parts, a, b, c, d


def _cents_of(a: int, b: int) -> float:
    """``1200.0 * log2(a / b)`` in floats; -inf where a/b underflows to 0."""
    x = a / b
    return 1200.0 * math.log2(x) if x else -math.inf


def _trim(ratios: list, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """[i, j): the triples of the ascending ``ratios`` with a/b <= p/q <= c/d.

    Each end is bisected on the float ``log`` column at :func:`_cents_of`, widened outwards
    by 1e-6 c, then settled by the exact integer test, bisecting on it only when a triple
    lies within the margin.  The margin is safe: both
    ``1200.0 * log2(p / q)`` and ``1200.0 * log2(a / b)`` lie within a few ulps, below 1e-9 c,
    of the exact cents for normal floats; an end is the exact ratio of the float ``2.0 **``
    gave, or 1/1, 2/1 or 1/qmax (subnormal only above 2**1022, where the window is empty).
    So the triples beyond the widened bounds lie outside the window, and an end that
    underflowed to 0 is bounded by -inf without reaching ``log2``.
    """
    log = itemgetter(2)
    i = bisect_left(ratios, _cents_of(a, b) - 1e-6, key=log)
    if i < len(ratios) and ratios[i][1] * b < a * ratios[i][0]:  # within 1e-6 c below a/b
        i = bisect_left(ratios, True, i + 1, key=lambda t: t[1] * b >= a * t[0])  # first p/q >= a/b
    j = bisect_right(ratios, _cents_of(c, d) + 1e-6, i, key=log)
    if j > i and ratios[j - 1][1] * d > c * ratios[j - 1][0]:  # within 1e-6 c above c/d
        j = bisect_left(ratios, True, i, j - 1, key=lambda t: t[1] * d > c * t[0])  # first > c/d
    return i, j


#: The q-sorted ``pairs`` of :func:`_candidates_cached`, by exact window, oldest first.
_BY_ENDS: OrderedDict = OrderedDict()


@lru_cache(maxsize=65536)
def _candidates_cached(
    cents: float, jnd_cents: float, qmax: int, clamp: bool
) -> tuple[float, tuple[tuple[int, int, float], ...]]:
    """``(cents, pairs)``: the shared :func:`_octave_part` triples of the window's
    ratios, from the parts it touches, trimmed at both ends and stably sorted by q.

    The reduced p/q with q <= qmax between two ratios are fixed, so ``pairs`` is
    shared under ``(qmax, first triple, last triple)`` of the trimmed window (``()``
    for an empty one): two cent values a rounding apart, such as 700.0 and
    699.9999999999999, build and sort one tuple, while twins whose exact ends admit
    different ratios keep their own.  At most 65,536 tuples are kept, the oldest
    dropped first, as this cache keeps 65,536 entries.
    """
    m, parts, *ends = _window_span(cents, jnd_cents, qmax, clamp)
    ratios = []
    for k in parts:
        ratios += _octave_part(k, m, qmax)
    i, j = _trim(ratios, *ends)
    key = (qmax, ratios[i], ratios[j - 1]) if i < j else ()
    pairs = _BY_ENDS.get(key)
    if pairs is None:
        # stable: each q's p ascend
        pairs = _BY_ENDS[key] = tuple(sorted(ratios[i:j], key=itemgetter(0)))
        if len(_BY_ENDS) > 65536:
            _BY_ENDS.popitem(last=False)
    return cents, pairs


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
    cents, pairs = _candidates_cached(*_window_key(float(cents), cfg, clamp))
    return tuple([(q, p, log - cents) for q, p, log in pairs])


def _window_key(cents: float, cfg: PeriodicityConfig, clamp: bool) -> tuple:
    """The :func:`_candidates_cached` arguments of a window; a clamp that cuts nothing
    is dropped.

    A clamped window whose JND band lies inside the octave, ``0 <= cents - jnd`` and
    ``(cents + jnd) / 1200.0 <= 1`` (the float expressions :func:`_window_span` takes
    its ends from), shares the unclamped entry: the clamp leaves both of its ends as
    they are, so both keys give the same ``(cents, pairs)``.  A band that crosses 1/1
    or 2/1 keeps its own entry.
    """
    jnd = cfg.jnd_cents
    return cents, jnd, cfg.qmax, clamp and not (0 <= cents - jnd and (cents + jnd) / 1200.0 <= 1)


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
    detuning)`` triples) for the first minimal choice in list order, or None.  It
    recurses once per list, and raises ``ValueError`` past the recursion limit.

    The search deepens iteratively on the lcm (Korf, *Artificial Intelligence* 27,
    1985): each attempt starts with the bound ``best = cap + 1``, ``cap = 4 * seed_lcm``
    doubling until an attempt finds a choice.  An attempt that finds none and cut no
    path by the bound was exhaustive, so the input is infeasible, as it is at once when
    a list is empty.  The result is that of one pass from an unbounded start: under any
    ``best`` above the minimal lcm L*, no path that can reach an lcm <= L* is cut, since
    every denominator on it and every running lcm divides its final lcm.  So the first
    minimal choice in list order is found, later ties are refused as before, and the lcm
    and witness are the same.

    A list's scan stops at the first q above ``limit``, the largest multiple of the running
    lcm ``cur`` below ``best``, rather than at ``best``: an admitted lcm is a multiple of
    ``cur`` and of q below ``best``, so it is at most ``limit`` and so is its q.  Each q
    between ``limit`` and ``best`` would have been refused with a cut, so ``cut``, the
    attempts and the result are those of a scan up to ``best``.  ``limit`` shrinks with
    ``best`` whenever a deeper leaf lowers it.  When ``limit == cur``, ``best <= 2 * cur``:
    a q that does not divide ``cur`` gives an lcm that is a multiple of ``cur`` above it,
    so at least ``2 * cur``, and is cut as the lcm test would cut it, without computing it.
    """
    if not lists:
        return seed_lcm, ()
    for _, pairs in lists:
        if not pairs:
            return None  # a list without candidates admits no choice, at any bound
    last, lcm = len(lists) - 1, math.lcm

    def search(i: int, cur: int, lo: float, hi: float, chosen: list):
        nonlocal best, found, cut
        cents, pairs = lists[i]
        limit = (best - 1) // cur * cur
        for c in pairs:
            q, _, d = c
            if q > limit:
                cut = True
                break  # denominators ascend and the lcm is a multiple of cur of at least q
            if cur % q == 0:
                nxt = cur  # below best: cur <= limit < best
            elif limit == cur or (nxt := lcm(cur, q)) >= best:
                cut = True
                continue
            d -= cents
            nlo = d if d < lo else lo
            nhi = d if d > hi else hi
            if nhi - nlo > window:
                continue
            chosen.append(c)
            if i == last:
                best, found = nxt, tuple(chosen)
            else:
                search(i + 1, nxt, nlo, nhi, chosen)
            limit = (best - 1) // cur * cur
            chosen.pop()

    cap = 4 * seed_lcm
    try:
        while True:
            best, found, cut = cap + 1, None, False
            search(0, seed_lcm, math.inf, -math.inf, [])
            if found is not None or not cut:
                break
            cap *= 2
    except RecursionError:  # one frame per list
        raise ValueError(f"a search over {len(lists)} note lists exceeds the recursion limit") from None
    finally:
        del search  # it refers to itself through its cell: leave no cycle for the collector
    return None if found is None else (
        best, tuple([(q, p, log - cents) for (q, p, log), (cents, _) in zip(found, lists)]))


def _window_keys(notes, cfg: PeriodicityConfig, clamp: bool = False) -> tuple:
    """:func:`_window_key` of each note given in semitones over the 1/1, unclamped by default."""
    return tuple([_window_key(x * CENTS_PER_SEMITONE, cfg, clamp) for x in notes])


@lru_cache(maxsize=16384)
def _rooted_min_lcm(keys: tuple, window: float):
    """:func:`min_lcm` of :data:`_ROOT` and the lists of ``keys``, once per process
    for each window-key tuple: every search with a root pinned to 1/1 runs here."""
    return min_lcm([_ROOT] + [_candidates_cached(*k) for k in keys], window)


def _rooted(notes, s: float) -> tuple[float, ...]:
    """``notes`` shifted down by ``s`` as :func:`shift` does it; a shift that
    overflows or merges two notes raises the error :func:`shift` raises."""
    out = tuple([x - s for x in notes])
    if not (math.isfinite(out[0]) and math.isfinite(out[-1]) and len(set(out)) == len(out)):
        Chord(out)
    return out


def _transition(
    first: tuple[float, ...], second: tuple[float, ...], pcfg: PeriodicityConfig, pin_second: bool
) -> tuple[int, int]:
    """(L / p, p): p is the pinned chord's own minimal lcm, L the minimal lcm
    of a joint tuning of both chords in which the pinned chord realizes p,
    from the two chords' notes shifted down by the second chord's root.

    A pinned second chord leads its lists with :data:`_ROOT`, so its window
    opens at its root's 0, and its search is the shared :func:`_rooted_min_lcm`
    entry of its window keys; a pinned first chord's window starts empty.  The
    joint search leads with :data:`_ROOT` as well, keeps only the pinned
    candidates whose denominator divides p and starts its lcm at p.  Each
    pinned sub-tuning fits a window its minimal search also allowed, so its
    lcm is at least p; as every denominator divides p, it is exactly p.  A
    divisor of p is at most p, and each list is stably sorted by q, so only
    its prefix with q <= p is tested: the kept triples and their order are
    those of a test of the whole list.

    The other chord's lists are built only after the pinned search succeeds,
    so an infeasible pinned chord wins over an overflowing window.  A pinned
    second chord with no note above 12 gets the p and first witness of
    :func:`chord_periodicity` from unclamped lists: they add only ratios
    below 1/1 or above 2/1, detuned further from the root's 0 than 1/1 or 2/1
    (both q = 1).  Swapping in 1/1 or 2/1 keeps the window, cannot raise the
    lcm and comes earlier in (q, p) order.  A top note in (12, 12 + 1e-9]
    lies above 2/1: the tests find the same p there, not always the witness.
    """
    c1, c2 = _rooted(first, second[0]), _rooted(second, second[0])
    pinned, other = (c2[1:], c1) if pin_second else (c1, c2[1:])
    keys = _window_keys(pinned, pcfg)
    lists = [_candidates_cached(*k) for k in keys]
    found = _rooted_min_lcm(keys, pcfg.jnd_cents) if pin_second else min_lcm(lists, pcfg.jnd_cents)
    if found is None:
        which, notes = ("second", second) if pin_second else ("first", first)
        raise UnresolvableProgressionError(
            f"{which} chord {Chord(notes)} admits no rational tuning within bounds"
        )
    p, sub = found[0], []
    for cents, pairs in lists:
        kept = []
        for c in pairs:
            q = c[0]
            if q > p:
                break
            if p % q == 0:
                kept.append(c)
        sub.append((cents, kept))
    rest = [_candidates_cached(*k) for k in _window_keys(other, pcfg)]
    found = min_lcm([_ROOT] + sub + rest, pcfg.jnd_cents, p)
    if found is None:
        raise UnresolvableProgressionError(
            f"no joint tuning of {Chord(first)} -> {Chord(second)} within bounds"
        )
    return found[0] // p, p


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
    found = _rooted_min_lcm(_window_keys(c.notes[1:], cfg, clamp=True), _window(cfg))
    if found is None:
        raise UnresolvableChordError(
            f"no joint rational tuning of {c} within {cfg.jnd_cents:g} cents "
            f"and denominators <= {cfg.qmax}"
        )
    lcm, chosen = found
    ratios = tuple([Fraction(p, q) for q, p, _ in chosen])
    return lcm, RationalTuning(ratios, tuple([d for _, _, d in chosen]), lcm)


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
        found = _rooted_min_lcm(_window_keys([p - r for p in c.notes if p != r], cfg), _window(cfg))
        per_root[r] = found[0] if found else None
        if found and (best is None or found[0] < best):
            best = found[0]
    if best is None:
        raise UnresolvableChordError(f"no rational tuning of {c} under any re-rooting")
    return best, per_root


def _field_meta(cfg: PeriodicityConfig) -> dict:
    return {"generator": "periodicity", **asdict(cfg)}


def _ladder_rows(keys: list[tuple]):
    """``rows(qs)``: the rows ``(q, window, detuning)`` with q in ``qs`` of the
    :func:`_window_key` windows ``keys`` (one JND and qmax, ascending cents), as three arrays.

    Every :func:`_octave_part` that some window touches is copied into numpy once, in
    ascending order, and each window is the slice ``[first, last)`` that :func:`_trim` finds
    there.  The parts are disjoint and ascend, so that slice is the one
    :func:`_candidates_cached` finds in the window's own parts: a window's rows with q in
    ``qs`` are its candidate list restricted to those q, each detuned by ``log - cents``.
    Each grid window is clamped into [1, 2] with a positive JND, so its ends satisfy
    ``a/b <= c/d``; both ends ascend with the cents, so ``first`` and ``last`` never
    decrease along the windows.  The windows holding position ``at`` are then those with
    ``first <= at < last``: from the first whose ``last`` exceeds ``at`` to the last whose
    ``first`` does not, and ``first[w] <= last[w]`` keeps that range ordered.
    """
    spans = [_window_span(*key) for key in keys]
    ratios = []
    for k, m in sorted({(k, span[0]) for span in spans for k in span[1]}):
        ratios += _octave_part(k, m, keys[0][2])
    first, last = np.array([_trim(ratios, *span[2:]) for span in spans], dtype=np.intp).T
    # the narrowest dtype that holds qmax: numpy sorts 8- and 16-bit keys stably by radix
    q = np.fromiter((t[0] for t in ratios), np.min_scalar_type(keys[0][2]), len(ratios))
    log = np.fromiter((t[2] for t in ratios), float, len(ratios))
    cents = np.array([key[0] for key in keys])
    by_q = np.argsort(q, kind="stable")  # the positions of q = d: by_q[offset[d]:offset[d + 1]]
    offset = np.searchsorted(q[by_q], np.arange(keys[0][2] + 2))

    def rows(qs):
        at = np.concatenate([by_q[offset[d]:offset[d + 1]] for d in qs])
        lo = np.searchsorted(last, at, "right")
        count = np.searchsorted(first, at, "right") - lo  # windows lo ... lo + count - 1
        window = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
        at = np.repeat(at, count)
        return q[at], window, log[at] - cents[window]

    return rows


def periodicity_field(
    n: int, resolution: int, cfg: PeriodicityConfig = PeriodicityConfig()
) -> ScalarField:
    """log2 chord periodicity on the one-octave grid of n-note chords.

    Each cell holds :func:`chord_periodicity` of the cell's chord, from one
    candidate window per axis value (grid cents round-tripped through semitones).
    A cell's minimal lcm L* is the least L at which some joint tuning uses only
    candidates whose denominator q divides L, so one lcm ladder serves the grid:
    for L = 1 ... ``cfg.qmax`` it gives L to every unassigned cell with a choice of
    q | L whose float max - min, the root's 0 included, fits :func:`min_lcm`'s window.
    Each level asks :func:`_ladder_rows` for the rows ``(q, axis value, detuning)`` of the
    divisors of L and adds the root's one row; no rows are held between levels.  Assigned
    cells are masked and dropped once half of them are.  Cells left
    after qmax (L* > qmax) run :func:`chord_periodicity` one by one in lexicographic
    order; the first infeasible one raises.
    """
    notes, idx = interval_grid(n, resolution)
    idx = idx.T[1:].astype(np.intp)  # a contiguous row per non-root note; intp gathers faster
    rows = _ladder_rows(_window_keys(notes[1:].tolist(), cfg, True))  # axis value 0 is the root
    window, values, pos = _window(cfg), np.empty(idx.shape[1]), np.arange(idx.shape[1])
    done, left, lcm = np.zeros(len(pos), dtype=bool), len(pos), 0
    while left and lcm < cfg.qmax:
        lcm += 1
        small = [d for d in range(1, math.isqrt(lcm) + 1) if lcm % d == 0]
        _, axis, det = rows({*small, *(lcm // d for d in small)})
        # the root's one row, 1/1 at 0 cents, as :data:`_ROOT` has it
        axis, det = np.append(axis + 1, 0), np.append(det, 0.0)
        count = np.bincount(axis, minlength=len(notes))
        live = np.flatnonzero(np.logical_and.reduce((count > 0)[idx], axis=0) & ~done)
        order = np.argsort(axis, kind="stable")  # grouped by axis value
        axis = axis[order]
        table = np.full((count.max(), len(notes)), np.nan)  # NaN pads fail the window
        table[np.arange(len(axis)) - (np.cumsum(count) - count)[axis], axis] = det[order]
        ok = np.zeros(len(live), dtype=bool)
        for picks in product(*[[t[r] for t in table] for r in idx[:, live]]):
            ok |= reduce(np.maximum, picks, 0.0) - reduce(np.minimum, picks, 0.0) <= window
        hit = live[ok]
        values[pos[hit]] = math.log2(lcm)
        done[hit], left = True, left - len(hit)
        if 2 * left <= len(pos):  # half the cells are assigned: drop them
            idx, pos, done = idx[:, ~done], pos[~done], done[~done]
    for p, row in zip(pos[~done].tolist(), idx[:, ~done].T.tolist()):
        values[p] = math.log2(chord_periodicity(normalize(notes[[0, *row]]), cfg)[0])
    return make_simplex_field(n - 1, resolution, values, "log2_periodicity", _field_meta(cfg))
