import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from chordspace.errors import UnresolvableChordError, UnresolvableIntervalError
from chordspace.harmonicity import (
    _ROOT,
    PeriodicityConfig,
    _candidates_cached,
    _farey_start,
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
    exhaustive_chord_periodicity,
    farey_start_scan,
    fraction_candidates,
    per_cell_periodicity_field,
    scan_min_denominator,
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
    for coords, value in zip(fld.cells, fld.values):
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
def test_farey_start_equals_scan(case):
    n, (a, b) = case
    assert _farey_start(a, b, n) == farey_start_scan(a, b, n)


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
