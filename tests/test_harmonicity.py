import gc
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import chordspace.harmonicity as harmonicity
from chordspace.errors import (
    UnresolvableChordError,
    UnresolvableIntervalError,
    UnresolvableProgressionError,
)
from chordspace.harmonicity import (
    _ROOT,
    PeriodicityConfig,
    _candidates_cached,
    _farey_start,
    _ladder_rows,
    _octave_part,
    _part_of,
    _rooted_min_lcm,
    _transition,
    _trim,
    _window_key,
    _window_keys,
    _window_span,
    RationalTuning,
    chord_periodicity,
    dyad_periodicity,
    min_denominator_ratio,
    min_lcm,
    periodicity_field,
    ratio_candidates,
    rerooted_periodicity,
)
from chordspace.pitch import Chord, normalize, shift

from oracles import (
    exact_trim,
    exhaustive_chord_periodicity,
    farey_start_scan,
    fraction_candidates,
    fraction_part,
    mask_of,
    per_cell_periodicity_field,
    scan_min_denominator,
    single_pass_min_lcm,
    sweep_periodicity_field,
    within_jnd,
)

# the thirteen one-octave dyads: (semitones, ratio, periodicity)
TABLE_ROWS = [
    (0, Fraction(1, 1), 1),
    (1, Fraction(16, 15), 15),
    (2, Fraction(9, 8), 8),
    (3, Fraction(6, 5), 5),
    (4, Fraction(5, 4), 4),
    (5, Fraction(4, 3), 3),
    (6, Fraction(7, 5), 5),
    (7, Fraction(3, 2), 2),
    (8, Fraction(8, 5), 5),
    (9, Fraction(5, 3), 3),
    (10, Fraction(9, 5), 5),
    (11, Fraction(15, 8), 8),
    (12, Fraction(2, 1), 1),
]

TABLE_JND = 1200.0 * math.log2(1.011)


@pytest.mark.parametrize("interval,ratio,periodicity", TABLE_ROWS)
def test_dyad_table_rows(interval, ratio, periodicity):
    cfg = PeriodicityConfig(jnd_cents=TABLE_JND)
    assert min_denominator_ratio(interval, cfg) == ratio
    assert dyad_periodicity(interval, cfg) == periodicity


def test_dyad_table_rows_hold_at_default_jnd():
    cfg = PeriodicityConfig()
    for interval, ratio, periodicity in TABLE_ROWS:
        assert min_denominator_ratio(interval, cfg) == ratio
        assert dyad_periodicity(interval, cfg) == periodicity


def test_min_denominator_matches_exhaustive_scan():
    cfg = PeriodicityConfig(jnd_cents=TABLE_JND)
    rng = random.Random(5)
    intervals = [row[0] for row in TABLE_ROWS] + [rng.uniform(0, 12) for _ in range(100)]
    for x in intervals:
        got = min_denominator_ratio(x, cfg)
        want = scan_min_denominator(x * 100.0, TABLE_JND, cfg.qmax)
        assert got == want
        # minimality: nothing with a smaller denominator sits in the window
        for q in range(1, got.denominator):
            for p in range(q, 2 * q + 1):
                if math.gcd(p, q) == 1:
                    assert abs(1200.0 * math.log2(Fraction(p, q)) - x * 100.0) > TABLE_JND


def test_unresolvable_interval_raises_with_window():
    cfg = PeriodicityConfig(jnd_cents=18.0, qmax=7)
    with pytest.raises(UnresolvableIntervalError) as exc:
        min_denominator_ratio(5.5, cfg)  # needs 11/8
    assert exc.value.qmax == 7
    assert exc.value.window[0] < exc.value.window[1]


def test_interval_domain_validation():
    with pytest.raises(ValueError):
        min_denominator_ratio(-0.1)
    with pytest.raises(ValueError):
        min_denominator_ratio(12.1)


def test_min_denominator_ratio_accepts_an_octave_with_a_rounding_error():
    # 23.78 - 11.78 == 12.000000000000002; chord_periodicity accepts it too
    assert min_denominator_ratio(23.78 - 11.78) == Fraction(2)
    assert dyad_periodicity(23.78 - 11.78) == 1
    with pytest.raises(ValueError, match="must lie in"):
        min_denominator_ratio(12 + 1e-8)


def test_chord_periodicity_witnesses():
    p, tuning = chord_periodicity(normalize([0]))
    assert p == 1 and tuning.ratios == (Fraction(1),)

    p, tuning = chord_periodicity(normalize([0, 4, 7]))
    assert p == 4
    assert tuning.ratios == (Fraction(1), Fraction(5, 4), Fraction(3, 2))

    p, tuning = chord_periodicity(normalize([0, 5, 9]))
    assert p == 3
    assert tuning.ratios == (Fraction(1), Fraction(4, 3), Fraction(5, 3))


def test_chord_periodicity_at_a_fine_jnd_and_a_large_qmax():
    # 0.01 c and qmax 20,000 start Farey walks at octave-part ends with m = 173,200;
    # exhaustive_chord_periodicity gives the same value and witness, in seconds
    p, tuning = chord_periodicity(normalize([0, 4, 7]), PeriodicityConfig(0.01, 20000))
    assert p == 2647
    assert tuning.ratios == (Fraction(1), Fraction(3335, 2647), Fraction(3966, 2647))


def test_chord_periodicity_matches_exhaustive_oracle():
    rng = random.Random(101)
    cfg = PeriodicityConfig()
    for _ in range(60):
        notes = (0.0,) + tuple(
            sorted(round(rng.uniform(0.3, 12.0), 2) for _ in range(2))
        )
        chord = normalize(notes)
        if len(chord) != 3:
            continue
        want = exhaustive_chord_periodicity(chord.notes, cfg)
        got, tuning = chord_periodicity(chord, cfg)
        assert want is not None and got == want[0]
        assert tuning.periodicity == got


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    cents=st.lists(st.integers(1, 1200), min_size=1, max_size=2),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
    qmax=st.sampled_from([12, 30, 100]),
    pairwise=st.booleans(),
)
def test_chord_periodicity_equals_exhaustive_oracle_property(cents, jnd, qmax, pairwise):
    # value and witness: the search returns the first minimal tuning in
    # candidate order, which is the oracle's first strict minimum
    chord = normalize([0.0] + [c / 100.0 for c in cents])
    cfg = PeriodicityConfig(jnd_cents=jnd, qmax=qmax, pairwise_constraint=pairwise)
    want = exhaustive_chord_periodicity(chord.notes, cfg)
    if want is None:
        with pytest.raises(UnresolvableChordError):
            chord_periodicity(chord, cfg)
        return
    got, tuning = chord_periodicity(chord, cfg)
    assert (got, tuning.ratios[1:]) == want


def test_dyad_chord_consistency_full_cent_grid():
    cfg = PeriodicityConfig()
    for cents in range(0, 1201):
        chord = normalize([0.0, cents / 100.0])
        if len(chord) == 1:
            continue
        assert chord_periodicity(chord, cfg)[0] == dyad_periodicity(cents / 100.0, cfg)


def test_duplicate_notes_do_not_change_periodicity():
    base = normalize([0, 4, 7])
    withdup = normalize([0, 4, 4, 7])
    assert chord_periodicity(base)[0] == chord_periodicity(withdup)[0]


def test_chord_periodicity_requires_normalized_octave():
    with pytest.raises(ValueError):
        chord_periodicity(normalize([1, 5, 8]))
    with pytest.raises(ValueError):
        chord_periodicity(normalize([0, 13]))


def test_chord_periodicity_accepts_an_octave_shifted_to_the_root():
    # float subtraction lands the octave just above 12 semitones
    rooted = shift(Chord((11.78, 23.78)), 11.78)
    assert rooted.notes == (0.0, 12.000000000000002)
    period, tuning = chord_periodicity(rooted)
    assert period == 1 and tuning.ratios == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="one octave"):
        chord_periodicity(Chord((0.0, 12.0 + 1e-8)))


def test_chord_periodicity_infeasible_raises():
    cfg = PeriodicityConfig(jnd_cents=18.0, qmax=7)
    with pytest.raises(UnresolvableChordError):
        chord_periodicity(normalize([0, 5.5]), cfg)


def test_pairwise_constraint_toggle():
    # the diminished-triad inversion: per-note bounds admit (6/5, 5/3) whose
    # detunings differ by ~31 cents; the pairwise bound forces a 16-fold tuning
    strict = chord_periodicity(normalize([0, 3, 9]), PeriodicityConfig())[0]
    loose = chord_periodicity(
        normalize([0, 3, 9]), PeriodicityConfig(pairwise_constraint=False)
    )[0]
    assert strict == 16
    assert loose == 15
    oracle = exhaustive_chord_periodicity(
        (0.0, 3.0, 9.0), PeriodicityConfig(pairwise_constraint=False)
    )
    assert oracle is not None and oracle[0] == loose


def test_rerooted_periodicity_investigation_mode():
    best, per_root = rerooted_periodicity(normalize([0, 3, 9]))
    assert per_root == {0.0: 16, 3.0: 19, 9.0: 27}
    assert best == 16
    # half a semitone has no ratio with denominator <= 2 within 18 cents, from either root
    with pytest.raises(UnresolvableChordError, match=r"no rational tuning of \[0,0\.5\] under any"):
        rerooted_periodicity(normalize([0, 0.5]), PeriodicityConfig(qmax=2))


def test_step_function_plateaus_around_just_positions():
    # the dyad step function holds its table value for at least 17 cents on
    # both sides of the just-ratio position (jumps sit near the integers)
    cfg = PeriodicityConfig()
    for interval, ratio, periodicity in TABLE_ROWS:
        if interval not in (3, 4, 5, 7, 8, 9, 12):
            continue
        just = 1200.0 * math.log2(ratio)
        for offset in (-17.0, 17.0):
            x = min(max(just + offset, 0.0), 1200.0)
            assert dyad_periodicity(x / 100.0, cfg) == periodicity


def test_field_values_match_pointwise_evaluation():
    cfg = PeriodicityConfig()
    fld = periodicity_field(2, 25, cfg)
    for coords, value in zip(fld._coords(np.argwhere(mask_of(fld))).tolist(), fld.values):
        chord = normalize([0.0, coords[0] / 100.0])
        want = 0.0 if len(chord) == 1 else math.log2(chord_periodicity(chord, cfg)[0])
        assert value == want
    assert fld.value_at((700.0,)) == 1.0
    assert fld.value_at((0.0,)) == 0.0


def test_field_known_triad_cell():
    fld = periodicity_field(3, 100)
    assert fld.value_at((500.0, 900.0)) == pytest.approx(math.log2(3))


def _field_or_error(make, n, res, cfg):
    try:
        return make(n, res, cfg)
    except UnresolvableChordError as exc:
        return str(exc)


_DIVISORS_OF_1200 = [d for d in range(1, 1201) if 1200 % d == 0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    grid=st.one_of(
        st.tuples(st.just(2), st.sampled_from(_DIVISORS_OF_1200)),
        # the per-cell oracle is slow on finer triad and tetrad grids
        st.tuples(st.just(3), st.sampled_from([d for d in _DIVISORS_OF_1200 if d >= 10])),
        st.tuples(st.just(4), st.sampled_from([d for d in _DIVISORS_OF_1200 if d >= 50])),
    ),
    jnd=st.sampled_from([10.0, 18.0, 25.0, 50.0]),
    qmax=st.integers(8, 100),
    pairwise=st.booleans(),
)
# grids where exact grid cents would change cells the round-tripped cents set
@example(grid=(3, 10), jnd=10.0, qmax=100, pairwise=True)
@example(grid=(3, 10), jnd=50.0, qmax=100, pairwise=True)
@example(grid=(3, 5), jnd=25.0, qmax=100, pairwise=True)
# 16 cells have a minimal lcm above qmax (up to 304): the per-cell fallback sets them
@example(grid=(3, 100), jnd=10.0, qmax=19, pairwise=True)
@example(grid=(4, 100), jnd=10.0, qmax=19, pairwise=True)
# infeasible: [0, 0.2] has no tuning with denominators up to 30
@example(grid=(3, 5), jnd=18.0, qmax=30, pairwise=True)
# the last row extension cut by qmax: (30, 31], (30, 33], (62, 63] and (62, 65]
@example(grid=(3, 50), jnd=10.0, qmax=31, pairwise=True)
@example(grid=(3, 50), jnd=10.0, qmax=33, pairwise=True)
@example(grid=(4, 100), jnd=8.0, qmax=63, pairwise=True)
@example(grid=(4, 100), jnd=8.0, qmax=65, pairwise=True)
# an 8 c JND at qmax 400
@example(grid=(2, 1), jnd=8.0, qmax=400, pairwise=True)
@example(grid=(3, 25), jnd=8.0, qmax=400, pairwise=True)
@example(grid=(4, 50), jnd=8.0, qmax=400, pairwise=False)
# the 20 c tetrad grid at the default config, and tetrads without the pairwise bound
@example(grid=(4, 20), jnd=18.0, qmax=100, pairwise=True)
@example(grid=(4, 50), jnd=18.0, qmax=100, pairwise=False)
@example(grid=(4, 50), jnd=50.0, qmax=100, pairwise=False)
def test_periodicity_field_equals_per_cell_oracle(grid, jnd, qmax, pairwise):
    # JNDs of 10, 25 and 50 c put window edges on grid points; an infeasible
    # cell raises the same error on both paths
    n, res = grid
    cfg = PeriodicityConfig(jnd_cents=jnd, qmax=qmax, pairwise_constraint=pairwise)
    got = _field_or_error(periodicity_field, n, res, cfg)
    want = _field_or_error(per_cell_periodicity_field, n, res, cfg)
    event(f"n={n}, {'infeasible' if isinstance(want, str) else 'feasible'}")
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.values, want.values)
    assert got.meta == want.meta and got.counts == want.counts


def test_periodicity_field_equals_per_cell_oracle_full_dyad_grid():
    for jnd in (10.0, 18.0, 25.0, 50.0):
        cfg = PeriodicityConfig(jnd_cents=jnd)
        got = periodicity_field(2, 1, cfg)
        assert np.array_equal(got.values, per_cell_periodicity_field(2, 1, cfg).values)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    res=st.sampled_from([d for d in _DIVISORS_OF_1200 if d >= 10]),
    jnd=st.sampled_from([8.0, 10.0, 18.0, 25.0, 50.0]),
    qmax=st.integers(8, 400),
    lcm=st.integers(1, 400),
)
@example(res=50, jnd=8.0, qmax=8, lcm=8)  # the 50 c window holds no ratio
@example(res=10, jnd=50.0, qmax=400, lcm=360)
def test_ladder_rows_are_the_candidate_lists_of_the_divisors(res, jnd, qmax, lcm):
    # the rows of the divisors of L are each window's candidate list restricted to those q;
    # the windows at 0 c and 1200 c are clamped at 1/1 and 2/1
    cfg, lcm = PeriodicityConfig(jnd_cents=jnd, qmax=qmax), min(lcm, qmax)
    keys = _window_keys((np.arange(1200 // res + 1) * res / 100).tolist(), cfg, True)
    assert keys[0][3] and keys[-1][3]
    rows = _ladder_rows(keys)
    held = dict(zip(rows.__code__.co_freevars, (cell.cell_contents for cell in rows.__closure__)))
    for ends in held["first"], held["last"]:  # the window bisections rely on both ascending
        assert np.all(ends[1:] >= ends[:-1])
    divisors = {d for d in range(1, lcm + 1) if lcm % d == 0}
    q, window, det = rows(divisors)
    for w, key in enumerate(keys):
        cents, pairs = _candidates_cached(*key)
        if not pairs:
            event("a window without ratios")
        want = Counter((t[0], t[2] - cents) for t in pairs if t[0] in divisors)
        assert Counter(zip(q[window == w].tolist(), det[window == w].tolist())) == want


@pytest.mark.parametrize(
    "n,resolution,sha256",
    [
        (3, 1, "f484b64a0687560a54239db864536b14c7868ecd15a936fcac253b7c92eb8334"),
        (4, 10, "91c8b127656424be0bde816c7d248dca6d9f60c278ea42d3a34fdcb044b69890"),
    ],
)
def test_fine_periodicity_fields_keep_their_bytes(n, resolution, sha256):
    # recorded from the per-cell min_lcm loop that the lcm ladder replaced
    values = periodicity_field(n, resolution).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "n,resolution,qmax,fallbacks",
    [(3, 5, 100, 0), (4, 20, 100, 0), (4, 20, 60, 3), (3, 20, 48, 6)],
)
def test_ladder_assigns_every_cell_up_to_qmax(monkeypatch, n, resolution, qmax, fallbacks):
    # the ladder must assign every cell with L* <= qmax itself: only cells above
    # qmax reach the per-cell fallback, whose searches run past qmax
    cfg = PeriodicityConfig(qmax=qmax)
    calls = []

    def counted(chord, cfg):
        calls.append(chord)
        return chord_periodicity(chord, cfg)

    monkeypatch.setattr(harmonicity, "chord_periodicity", counted)
    got = periodicity_field(n, resolution, cfg)
    want = per_cell_periodicity_field(n, resolution, cfg).values
    assert len(calls) == fallbacks == np.count_nonzero(np.rint(2.0**want) > qmax)
    assert np.array_equal(got.values, want)


def test_sweep_equals_pointwise_dyads_and_triads():
    for n, res in ((2, 25), (3, 100)):
        a = periodicity_field(n, res)
        b = sweep_periodicity_field(n, res)
        assert np.array_equal(a.values, b.values)
    loose = PeriodicityConfig(pairwise_constraint=False)
    for n, res in ((2, 10), (3, 50)):
        a = periodicity_field(n, res, loose)
        b = sweep_periodicity_field(n, res, loose)
        assert np.array_equal(a.values, b.values)


def test_tetrad_field_supported_at_coarse_resolution():
    fld = periodicity_field(4, 100)
    assert fld.dims == 3
    assert fld.value_at((0.0, 0.0, 0.0)) == 0.0
    assert fld.value_at((400.0, 700.0, 1200.0)) == pytest.approx(math.log2(4))


def test_field_rejects_bad_sizes_and_resolutions():
    with pytest.raises(ValueError):
        periodicity_field(5, 100)
    with pytest.raises(ValueError):
        periodicity_field(2, 7)


def test_rational_tuning_validation():
    with pytest.raises(ValueError):
        RationalTuning(ratios=(Fraction(1), Fraction(3, 2)), detunings_cents=(0.0, 0.0), periodicity=3)
    with pytest.raises(ValueError):
        RationalTuning(ratios=(Fraction(1),), detunings_cents=(0.0, 0.0), periodicity=1)


def test_ratio_candidates_sorted_and_within_window():
    cfg = PeriodicityConfig()
    cands = ratio_candidates(700.0, cfg)
    assert Fraction(cands[0][1], cands[0][0]) == Fraction(3, 2)
    assert all(abs(d) <= cfg.jnd_cents + 1e-9 for _, _, d in cands)
    denoms = [q for q, _, _ in cands]
    assert denoms == sorted(denoms)


def _positive_rationals(n: int):
    # random rationals, exact Farey terms, integers, values below 1/n, and
    # the exact ratios of floats down to the subnormal range
    return st.one_of(
        st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
        st.tuples(st.integers(1, 5 * n), st.integers(1, n)),
        st.tuples(st.integers(1, 200), st.just(1)),
        st.tuples(st.just(1), st.integers(n + 1, 10**9)),
        st.floats(5e-324, 1e3).map(float.as_integer_ratio),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), _positive_rationals(n))))
# octave-part ends at m = 173,200 (a JND of 0.01 c) for qmax 20,000, one of them an octave up
@example((20000, (173200 + 86603, 173200)))
@example((20000, (2 * (173200 + 173199), 173200)))
@example((20000, (173200 + 1, 173200 << 2)))  # nearest 1/4 lies below: one successor step
@example((2000, (1234567, 1000000)))
@example((60, (1, 1000)))  # below 1/(2n): the nearest fraction is 0/1
@example((10, (199, 100)))  # nearest 2/1 lies above
@example((10, (201, 100)))  # nearest 2/1 lies below: a q = 1 neighbour steps to 21/10
def test_farey_start_equals_scan(case):
    n, (a, b) = case
    assert _farey_start(a, b, n) == farey_start_scan(a, b, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.integers(1, 2**1100), b=st.integers(1, 2**1100), m=st.integers(1, 10**7), shift=st.integers(-60, 60))
@example(a=1, b=1, m=18, shift=0)  # 1/1 starts part 0
@example(a=2, b=1, m=18, shift=0)  # 2/1 starts part m
@example(a=2**52 - 1, b=2**52, m=18, shift=0)  # an ulp below 1/1, in part -1
@example(a=1, b=2**1074, m=3464, shift=0)  # the least subnormal
@example(a=3, b=2, m=2, shift=-3)  # 3/16 = 2**-3 * 3/2 starts part 2 * -3 + 1
def test_part_of_equals_fraction_part(a, b, m, shift):
    # a/b, and a/b scaled by 2**shift, which lands it on part boundaries as often as a/b does
    for x, y in ((a, b), (a << max(shift, 0), b << max(-shift, 0))):
        assert _part_of(x, y, m) == fraction_part(x, y, m)


@st.composite
def _windows(draw):
    """(cents, jnd, qmax) of a ratio window."""
    jnd, qmax = draw(st.one_of(
        st.tuples(st.floats(0.5, 100.0), st.integers(2, 120)),  # narrow windows
        st.tuples(st.floats(100.0, 2400.0), st.integers(2, 40)),  # unclamped ones spanning several units
        # a few ratios of many thousands
        st.tuples(st.floats(0.001, 0.5), st.integers(2, 5000) | st.integers(2000, 5000)),
    ))
    cents = draw(st.one_of(
        st.floats(-1200.0, 2400.0),
        st.floats(-1e300, -1e6),  # the lower end underflows to 0 below about -1.29e6
        st.sampled_from([math.inf, -math.inf]),
        # across the octave edge 2**e; clamped, the windows at e = 0 and 1 end at 1/1 and 2/1
        st.tuples(st.integers(-3, 3), st.floats(-1.0, 1.0)).map(lambda t: 1200.0 * t[0] + t[1] * jnd),
        # around 1/qmax, the least ratio, where a lower end below it starts
        st.floats(-1.0, 1.0).map(lambda t: -1200.0 * math.log2(qmax) + t * jnd),
    ))
    return cents, jnd, qmax


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(window=_windows(), clamp=st.booleans())
@example(window=(0.0, 18.0, 100), clamp=True)
@example(window=(1200.0, 18.0, 100), clamp=True)
@example(window=(-1200.0, 18.0, 100), clamp=False)
@example(window=(2400.0, 18.0, 100), clamp=False)
@example(window=(701.955, 18.0, 100), clamp=True)
@example(window=(-7e5, 7e5, 12), clamp=False)  # (0, 1]: lo underflows, p starts at 1
@example(window=(math.inf, 18.0, 100), clamp=True)
@example(window=(math.inf, 18.0, 100), clamp=False)
@example(window=(0.2, 0.5, 5000), clamp=True)  # clamped at 1/1
@example(window=(1199.8, 0.5, 5000), clamp=True)  # clamped at 2/1
@example(window=(-3600.1, 0.3, 5000), clamp=False)  # across 1/8
@example(window=(3600.0, 0.001, 5000), clamp=False)  # 8/1 alone
@example(window=(-4300.0, 100.0, 12), clamp=False)  # starts at 1/12, in octave part 2**-4 (7 + 11/18)
@example(window=(497.0449991346124, 1.0, 100), clamp=True)  # ends on float(4/3) < 4/3: 4/3 is out
@example(window=(885.3587129994474, 1.0, 100), clamp=True)  # starts on float(5/3) > 5/3: 5/3 is out
def test_ratio_candidates_equal_fraction_scan(window, clamp):
    # the octave parts trimmed on integer window bounds give the Fraction
    # scan's ratios, in its order, with bit-equal detunings
    cents, jnd, qmax = window
    cfg = PeriodicityConfig(jnd_cents=jnd, qmax=qmax)
    try:
        want = fraction_candidates(cents, jnd, qmax, clamp)
    except OverflowError:  # Fraction(inf): an infinite window end
        with pytest.raises(ValueError, match="overflows a float"):
            ratio_candidates(cents, cfg, clamp)
        return
    got = ratio_candidates(cents, cfg, clamp)
    assert [(p, q) for q, p, _ in got] == [(f.numerator, f.denominator) for f, _ in want]
    assert [d.hex() for _, _, d in got] == [d.hex() for _, d in want]


def test_window_narrowed_to_a_float_point_at_a_huge_qmax():
    # 1e-14 c is below the float resolution of 2**(cents / 1200): the window
    # is one float, so the ratio bound admits any qmax; the octave parts stay small
    cfg = PeriodicityConfig(jnd_cents=1e-14, qmax=10**13)
    assert ratio_candidates(1200.0, cfg) == ((1, 2, 0.0),)
    assert ratio_candidates(400.0, cfg) == ()  # no p/q with q <= 10**13 is that float


def test_windows_share_the_table_triples():
    # two windows 1 c apart hold the same triple objects for every shared ratio
    a, b = (dict(((q, p), t) for t in _candidates_cached(x, 18.0, 100, True)[1] for q, p, _ in [t])
            for x in (700.0, 701.0))
    shared = a.keys() & b.keys()
    assert len(shared) > 50
    assert all(a[k] is b[k] for k in shared)


@st.composite
def _trim_windows(draw):
    """(cents, jnd, qmax) of a window whose ends may fall on a ratio, be clamped or underflow."""
    jnd, qmax = draw(st.one_of(
        st.tuples(st.floats(0.5, 100.0), st.integers(2, 120)),
        st.tuples(st.floats(100.0, 2400.0), st.integers(2, 40)),  # unclamped ones spanning octaves
        st.tuples(st.floats(0.001, 0.5), st.integers(2, 2000)),
    ))
    q = draw(st.integers(1, qmax))
    cents = draw(st.one_of(
        st.floats(-1200.0, 2400.0),
        # an end on p/q: the float 2.0 ** (x / 1200.0) lands on float(p/q) or an ulp beside it
        st.tuples(st.integers(1, 4 * q), st.sampled_from([-1.0, 1.0])).map(
            lambda t: 1200.0 * math.log2(t[0] / q) + t[1] * jnd),
        # clamped at 1/1 or 2/1, or just inside them
        st.tuples(st.sampled_from([0.0, 1200.0]), st.floats(-1.0, 1.0)).map(lambda t: t[0] + t[1] * jnd),
        st.floats(-1e300, -1.29e6),  # the lower end underflows to 0, the upper one below -1.29e6 - jnd
    ))
    return cents, jnd, qmax


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(window=_trim_windows(), clamp=st.booleans())
@example(window=(-1290001.0, 1.0, 2), clamp=False)  # the upper end underflows to 0
@example(window=(497.0449991346124, 1.0, 100), clamp=True)  # ends on float(4/3) < 4/3
@example(window=(885.3587129994474, 1.0, 100), clamp=True)  # starts on float(5/3) > 5/3
@example(window=(18.0, 18.0, 100), clamp=True)  # starts exactly on 1/1
def test_trim_equals_the_exact_bisect(window, clamp):
    # the float bisect with an exact step gives the exact bisect's ends, on the window's
    # octave parts with one more part on each side, so that triples lie beyond both ends
    try:
        m, _, a, b, c, d = _window_span(*window, clamp)
    except ValueError:  # too many ratios
        assume(False)
    first = _part_of(a, b, m)
    last = max(first, _part_of(c, d, m)) if c else first
    ratios = [t for k in range(first - 1, last + 2) for t in _octave_part(k, m, window[2])]
    got = _trim(ratios, a, b, c, d)
    assert got == exact_trim(ratios, a, b, c, d)
    event("empty" if got[0] == got[1] else "ratios in the window")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(window=_windows(), clamp=st.booleans())
@example(window=(1182.0, 18.0, 100), clamp=True)  # 2/1 ends the window at 1182 c, not 1 ulp below
@example(window=(700.0, 18.0, 100), clamp=True)
def test_twin_windows_share_one_list_and_stay_exact(window, clamp):
    # a cent value and its neighbours 1 ulp apart: each list is the Fraction scan's,
    # and lists of the same ratios are one tuple
    cents, jnd, qmax = window
    assume(math.isfinite(cents))
    twins = [math.nextafter(cents, -math.inf), cents, math.nextafter(cents, math.inf)]
    lists = [_candidates_cached(x, jnd, qmax, clamp)[1] for x in twins]
    for x, pairs in zip(twins, lists):
        want = fraction_candidates(x, jnd, qmax, clamp)
        assert [(p, q) for q, p, _ in pairs] == [(f.numerator, f.denominator) for f, _ in want]
        assert [(log - x).hex() for _, _, log in pairs] == [d.hex() for _, d in want]
    for a, b in itertools.combinations(lists, 2):
        assert (a is b) == (a == b)
    event("twins differ" if len({id(pairs) for pairs in lists}) > 1 else "one list")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    notes=st.lists(st.floats(0.0, 12.0, exclude_min=True), min_size=1, max_size=3, unique=True),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
)
@example(notes=[11.82], jnd=18.0)  # 18 c below the octave: 2/1 sits on the window's edge
@example(notes=[0.05, 7.0], jnd=10.0)  # within the JND of the root: 1/1 sits inside
@example(notes=[23.78 - 11.78], jnd=18.0)  # shift() of [11.78, 23.78]: 12.000000000000002
def test_min_lcm_of_rooted_octave_chord_ignores_clamping(notes, jnd):
    # notes in (0, 12] with the root pinned at 0: unclamped lists add only
    # ratios beyond 1/1 or 2/1, which never beat those q = 1 ratios, so both
    # the minimal lcm and the first minimal witness stay the same
    clamped, unclamped = (
        [_candidates_cached(x * 100.0, jnd, 100, clamp) for x in sorted(notes)] for clamp in (True, False)
    )
    assert min_lcm([_ROOT] + clamped, jnd) == min_lcm([_ROOT] + unclamped, jnd)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    notes=st.lists(st.floats(0.0, 12.0, exclude_min=True), max_size=2, unique=True),
    top=st.floats(12.0, 12.0 + 1e-9, exclude_min=True),
    jnd=st.sampled_from([10.0, 18.0, 25.0, 400.0]),
    qmax=st.sampled_from([2, 12, 100]),
)
# the witnesses differ: 1/1, 3/2, 2/1 clamped against 1/1, 2/1, 5/2 unclamped
@example(notes=[8.000000000001], top=12.000000001, jnd=400.0, qmax=2)
def test_min_lcm_of_rooted_chord_just_above_the_octave_keeps_its_lcm(notes, top, jnd, qmax):
    # a top note in (12, 12 + 1e-9] counts as within the octave, but its clamped
    # window ends at 2/1 below the note: unclamped lists may change the witness,
    # not the minimal lcm
    clamped, unclamped = (
        min_lcm([_ROOT] + [_candidates_cached(x * 100.0, jnd, qmax, clamp) for x in sorted(notes) + [top]], jnd)
        for clamp in (True, False)
    )
    assert (clamped and clamped[0]) == (unclamped and unclamped[0])


@st.composite
def _candidate_list(draw):
    """``(cents, pairs)``: (q, p, log) triples with q <= 60 near a cent value, in (q, p) order."""
    cents = draw(st.floats(0.0, 1200.0))
    near = 2.0 ** (cents / 1200.0)
    qs = draw(st.lists(st.tuples(st.integers(1, 60), st.integers(-2, 2)), max_size=12))
    pairs = {(q, max(1, round(q * near) + dp)) for q, dp in qs}
    return cents, tuple(sorted((q, p, 1200.0 * math.log2(p / q)) for q, p in pairs))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    lists=st.lists(_candidate_list(), max_size=5),
    root=st.booleans(),
    seed_lcm=st.one_of(st.just(1), st.integers(2, 120)),
    window=st.one_of(st.sampled_from([0.0, 5.0, 18.0, 50.0, math.inf]), st.floats(0.0, 400.0)),
)
@example(lists=[(0.0, ()), (0.0, ((1, 1, 0.0),))], root=True, seed_lcm=1, window=math.inf)  # an empty list
@example(lists=[], root=False, seed_lcm=7, window=0.0)
@example(  # at cap 8, cur = 6 > best / 2: q = 7 lies between cur and best and divides neither
    lists=[(0.0, ((6, 7, 0.0),)), (0.0, ((4, 5, 0.0), (7, 8, 0.0), (12, 13, 0.0)))],
    root=False, seed_lcm=1, window=math.inf,
)
@example(  # the leaf 2, 4 lowers best to 4 mid-scan: limit 4 -> 3 refuses the tie through q = 4
    lists=[(0.0, ((2, 3, 0.0), (4, 5, 0.0))), (0.0, ((4, 5, 0.0),))],
    root=False, seed_lcm=1, window=math.inf,
)
@example(  # infeasible: at cap 4 only the limit break cuts (q = 4 > 3), so the cap doubles
    lists=[(0.0, ((3, 4, 0.0),)), (0.0, ((4, 5, 100.0),))],
    root=False, seed_lcm=1, window=18.0,
)
@example(  # at cap 4, cur = 4: limit = cur, so q = 3, no divisor of 4, is cut without an lcm
    lists=[(0.0, ((4, 5, 0.0),)), (0.0, ((3, 4, 0.0), (4, 5, 0.0)))],
    root=False, seed_lcm=1, window=math.inf,
)
@example(  # infeasible: q = 3 is cut at limit = cur = 4, then refused by the window at cap 16
    lists=[(0.0, ((4, 5, 0.0),)), (0.0, ((3, 4, 100.0),))],
    root=False, seed_lcm=1, window=18.0,
)
def test_min_lcm_equals_single_pass_oracle(lists, root, seed_lcm, window):
    lists = [_ROOT] + lists if root else lists
    got = min_lcm(lists, window, seed_lcm)
    event("infeasible" if got is None else f"lcm/seed_lcm {'>' if got[0] > 4 * seed_lcm else '<='} 4")
    assert got == single_pass_min_lcm(lists, window, seed_lcm)


def _window_in_octave(cents: float, jnd: float) -> bool:
    return 0 <= cents - jnd and (cents + jnd) / 1200.0 <= 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cents=st.floats(0.0, 1200.0), jnd=st.floats(0.01, 600.0), qmax=st.sampled_from([2, 12, 100]))
@example(cents=18.0, jnd=18.0, qmax=100)  # the band starts exactly on 1/1
@example(cents=1182.0, jnd=18.0, qmax=100)  # 11.82 semitones: the band ends exactly on 2/1
def test_window_inside_the_octave_shares_the_unclamped_entry(cents, jnd, qmax):
    # where the JND band lies inside the octave the clamp cuts nothing, so the
    # clamped window is looked up under the unclamped key and both returns are equal
    assume(_window_in_octave(cents, jnd))
    cfg = PeriodicityConfig(jnd_cents=jnd, qmax=qmax)
    clamped, unclamped = (_candidates_cached.__wrapped__(cents, jnd, qmax, c) for c in (True, False))
    assert clamped == unclamped
    assert _window_key(cents, cfg, True) == _window_key(cents, cfg, False) == (cents, jnd, qmax, False)


@pytest.mark.parametrize("notes,jnd,beyond", [(0.05, 10.0, 0), (11.83, 18.0, 0), (11.95, 18.0, 34)])
def test_window_across_the_octave_keeps_its_own_entry(notes, jnd, beyond):
    # a band that crosses 1/1 (5 c at a 10 c JND) or 2/1 (1183 c and 1195 c at 18 c)
    # stays clamped under its own key; its unclamped window adds the ratios beyond
    cfg = PeriodicityConfig(jnd_cents=jnd)
    cents = notes * 100.0
    assert not _window_in_octave(cents, jnd)
    assert _window_key(cents, cfg, True) == (cents, jnd, 100, True)
    clamped, unclamped = (set(_candidates_cached(cents, jnd, 100, c)[1]) for c in (True, False))
    assert clamped <= unclamped
    assert len(unclamped - clamped) == beyond
    assert all(not q <= p <= 2 * q for q, p, _ in unclamped - clamped)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    notes=st.lists(st.floats(-12.0, 24.0), min_size=0, max_size=3, unique=True),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
    clamp=st.booleans(),
    pairwise=st.booleans(),
)
@example(notes=[4.0, 7.0], jnd=18.0, clamp=True, pairwise=True)
@example(notes=[11.82], jnd=18.0, clamp=True, pairwise=True)
def test_rooted_search_memo_equals_uncached_min_lcm(notes, jnd, clamp, pairwise):
    # the memo returns what min_lcm returns on uncached lists of the same windows,
    # witness triples included, on its first call and on a hit
    cfg = PeriodicityConfig(jnd_cents=jnd, pairwise_constraint=pairwise)
    window = jnd if pairwise else math.inf
    lists = [_candidates_cached.__wrapped__(x * 100.0, jnd, 100, clamp) for x in notes]
    want = min_lcm([_ROOT] + lists, window)
    keys = _window_keys(notes, cfg, clamp)
    assert _rooted_min_lcm(keys, window) == want
    assert _rooted_min_lcm(keys, window) == want


def test_rooted_search_memo_is_bounded():
    maxsize = _rooted_min_lcm.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 65536


def _cap_edge_lists(target: int) -> list:
    # every choice but the two q = target ones has an lcm above target; the first of
    # them is the witness and the tie after it is refused
    t = target
    return [
        (0.0, ((t - 1, t - 1, 0.0), (t, t, 0.0))),
        (1.0, ((t - 2, t - 2, 1.0), (t, t + 1, 1.0), (t, t + 3, 1.0))),
    ]


@pytest.mark.parametrize("seed_lcm,target", [(1, 16), (1, 17), (3, 24), (3, 48), (5, 20)])
def test_min_lcm_on_the_edges_of_its_cap(seed_lcm, target):
    # L* = 4 * seed_lcm * 2**k is found by the attempt capped at L*; L* + 1 by the next
    lists = _cap_edge_lists(target)
    got = min_lcm(lists, math.inf, seed_lcm)
    assert got == (target, ((target, target, 0.0), (target, target + 1, 0.0)))
    assert got == single_pass_min_lcm(lists, math.inf, seed_lcm)


def test_searches_leave_no_cyclic_garbage():
    # every object a search makes is freed by its reference count: the cyclic
    # collector finds nothing after a batch of cold searches
    rng = random.Random(5)
    cfg = PeriodicityConfig(jnd_cents=18.0, qmax=48)
    chords = [tuple(sorted(rng.sample(range(-600, 1200), n))) for n in (1, 2, 3, 4, 5) * 8]
    gc.collect()
    gc.disable()
    try:
        for first, second in zip(chords, chords[1:]):
            lists = [_candidates_cached(c + 0.5, cfg.jnd_cents, cfg.qmax, False) for c in first]
            min_lcm([_ROOT] + lists, cfg.jnd_cents)
            for pin_second in (True, False):
                try:
                    _transition(tuple(c / 100 for c in first), tuple(c / 100 for c in second),
                                cfg, pin_second)
                except UnresolvableProgressionError:
                    pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    notes=st.lists(st.floats(0.0, 12.0, exclude_min=True), max_size=3, unique=True),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
    pairwise=st.booleans(),
)
@example(notes=[7.0, 7.0 + 1e-12], jnd=18.0, pairwise=True)  # two notes tuned to 3/2
@example(notes=[0.05, 12.0], jnd=10.0, pairwise=False)
def test_chord_periodicity_witness_obeys_the_window_rule(notes, jnd, pairwise):
    chord = Chord((0.0,) + tuple(sorted(notes)))
    try:
        _, tuning = chord_periodicity(chord, PeriodicityConfig(jnd, pairwise_constraint=pairwise))
    except UnresolvableChordError:
        event("infeasible")
        return
    ratios, ds = tuning.ratios, tuning.detunings_cents
    assert ratios[0] == 1 and ds[0].hex() == (0.0).hex()
    for r, d, x in zip(ratios[1:], ds[1:], chord.notes[1:]):
        assert d.hex() == (1200.0 * math.log2(r.numerator / r.denominator) - x * 100.0).hex()
    assert within_jnd(ds, jnd, pairwise)  # with pairwise: a spread, 0 included, within the JND


def test_config_validation():
    with pytest.raises(ValueError):
        PeriodicityConfig(jnd_cents=0.0)
    with pytest.raises(ValueError):
        PeriodicityConfig(qmax=1)


@pytest.mark.parametrize("qmax", [50.5, 50.0, "50", None])
def test_config_rejects_a_qmax_that_is_no_integer(qmax):
    with pytest.raises(ValueError, match=f"qmax must be an integer, got {qmax!r}"):
        PeriodicityConfig(qmax=qmax)


def test_config_takes_numpy_integer_qmax_and_a_bool_is_too_small():
    major = Chord((0.0, 4.0, 7.0))
    assert chord_periodicity(major, PeriodicityConfig(qmax=np.int64(50))) == chord_periodicity(
        major, PeriodicityConfig(qmax=50)
    )
    with pytest.raises(ValueError, match="qmax must be >= 2, got True"):
        PeriodicityConfig(qmax=True)


def test_config_keeps_the_jnd_it_checks_as_a_float():
    # a numpy float that is no float subclass would reach the field's meta and its sidecar
    cfg = PeriodicityConfig(jnd_cents=np.float32(18))
    assert type(cfg.jnd_cents) is float and cfg.jnd_cents == 18.0
    assert json.loads(json.dumps(periodicity_field(2, 100, cfg).meta))["jnd_cents"] == 18.0
