import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chordspace.errors import UnresolvableProgressionError
from chordspace.field import make_simplex_field
from chordspace.harmonicity import PeriodicityConfig, chord_periodicity, periodicity_field
from chordspace.pitch import Chord, normalize, parse_chord, shift
from chordspace.psychometric import gaussian_smooth
from chordspace.resolve import (
    Progression,
    TransitiveConfig,
    chan_transitional_harmony,
    combined_chord,
    directional_derivative,
    relative_periodicity_to_first,
    transitive_field,
    transitive_periodicity,
)

from oracles import (
    exhaustive_relative_to_first,
    exhaustive_transitive,
    per_cell_transitive_field,
    sweep_transitive_field,
)

TRITONE = parse_chord("[3,9]")
EIGHT_TARGETS = ["[2,8]", "[2,9]", "[2,10]", "[3,8]", "[3,10]", "[4,8]", "[4,9]", "[4,10]"]


def test_combined_chord_examples():
    assert combined_chord(
        Progression(parse_chord("[0,4,7,10]"), parse_chord("[0,5,9]"))
    ).notes == (0.0, 4.0, 5.0, 7.0, 9.0, 10.0)
    c = parse_chord("[0,4,7]")
    assert combined_chord(Progression(c, c)) == c
    assert combined_chord(Progression(parse_chord("[0]"), parse_chord("[12]"))).notes == (0.0, 12.0)


@pytest.mark.parametrize("chord", ["[0,7]", "[3,9]", "[0,4,7]", "[0]", "[2,5,9]"])
def test_self_progression_resolves_to_one(chord):
    c = parse_chord(chord)
    assert transitive_periodicity(Progression(c, c)) == 1
    assert relative_periodicity_to_first(Progression(c, c)) == 1
    assert chan_transitional_harmony(Progression(c, c)) == 0.0


def test_transitive_matches_exhaustive_oracle_on_tritone_targets():
    for target in EIGHT_TARGETS + ["[3.5,8.5]", "[2.5,9.5]"]:
        c2 = parse_chord(target)
        got = transitive_periodicity(Progression(TRITONE, c2))
        assert got == exhaustive_transitive(TRITONE, c2)


def test_transitive_frozen_tritone_values():
    values = {
        target: transitive_periodicity(Progression(TRITONE, parse_chord(target)))
        for target in EIGHT_TARGETS
    }
    assert values == {
        "[2,8]": 7, "[2,9]": 8, "[2,10]": 6, "[3,8]": 4,
        "[3,10]": 6, "[4,8]": 9, "[4,9]": 6, "[4,10]": 13,
    }


def test_transitive_matches_oracle_on_random_progressions():
    rng = random.Random(55)
    cfg = TransitiveConfig()
    for _ in range(15):
        lo = round(rng.uniform(0, 5), 2)
        hi = lo + round(rng.uniform(1, 6), 2)
        first = Chord((lo, hi))
        second = Chord((lo + rng.choice([-1.0, -0.5, 0.5, 1.0]), hi + rng.choice([-1.0, 0.0, 1.0])))
        assert transitive_periodicity(Progression(first, second), cfg) == exhaustive_transitive(
            first, second
        )


def test_quarter_tone_fifth_exceeds_twelve_tet_resolutions():
    # the just-positioned targets carry far higher transitive periodicity
    to_fifth = transitive_periodicity(Progression(TRITONE, parse_chord("[2.5,9.5]")))
    to_fourth = transitive_periodicity(Progression(TRITONE, parse_chord("[3.5,8.5]")))
    to_third = transitive_periodicity(Progression(TRITONE, parse_chord("[4,8]")))
    assert to_fifth > to_third
    assert to_fourth >= to_third


def test_order_sensitivity_witness():
    fwd = transitive_periodicity(Progression(TRITONE, parse_chord("[2,8]")))
    rev = transitive_periodicity(Progression(parse_chord("[2,8]"), TRITONE))
    assert fwd == 7 and rev == 13
    assert fwd != rev


def test_relative_periodicity_examples_and_oracle():
    assert relative_periodicity_to_first(
        Progression(parse_chord("[0]"), parse_chord("[0,12]"))
    ) == 1
    for target in ["[2,10]", "[4,8]", "[3,8]"]:
        c2 = parse_chord(target)
        got = relative_periodicity_to_first(Progression(TRITONE, c2))
        assert got == exhaustive_relative_to_first(TRITONE, c2)
    assert relative_periodicity_to_first(Progression(TRITONE, parse_chord("[2,10]"))) == 2


TRIADS = st.lists(st.integers(0, 1400), min_size=3, max_size=3, unique=True).map(
    lambda cents: Chord(tuple(sorted(c / 100.0 for c in cents)))
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(first=TRIADS, second=TRIADS)
def test_triad_transitive_quantities_equal_exhaustive_oracles(first, second):
    cfg = TransitiveConfig(qmax=48)
    prog = Progression(first, second)
    for fast, oracle in (
        (transitive_periodicity, exhaustive_transitive),
        (relative_periodicity_to_first, exhaustive_relative_to_first),
    ):
        want = oracle(first, second, qmax=48)
        if want is None:
            with pytest.raises(UnresolvableProgressionError):
                fast(prog, cfg)
        else:
            assert fast(prog, cfg) == want


def _chords(n: int):
    """n notes at 100*s + o cents: distinct s in 0..13, o off the lattice by a few cents."""
    return st.tuples(
        st.permutations(range(14)),
        st.lists(st.sampled_from([-7, -3, 0, 2, 5]), min_size=n, max_size=n),
    ).map(lambda so: Chord(tuple(sorted((100 * s + o) / 100.0 for s, o in zip(*so)))))


#: (first, second) pairs beyond triads: 4 -> 4, 2 -> 5, 5 -> 2 and 4 -> 3 notes
LARGER_PAIRS = st.sampled_from([(4, 4), (2, 5), (5, 2), (4, 3)]).flatmap(
    lambda sizes: st.tuples(_chords(sizes[0]), _chords(sizes[1]))
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=LARGER_PAIRS)
def test_larger_chord_transitive_quantities_equal_exhaustive_oracles(pair):
    first, second = pair
    cfg = TransitiveConfig(qmax=24)
    prog = Progression(first, second)
    for fast, oracle in (
        (transitive_periodicity, exhaustive_transitive),
        (relative_periodicity_to_first, exhaustive_relative_to_first),
    ):
        want = oracle(first, second, qmax=24)
        if want is None:
            with pytest.raises(UnresolvableProgressionError):
                fast(prog, cfg)
        else:
            assert fast(prog, cfg) == want


def test_infeasible_progression_raises():
    cfg = TransitiveConfig(jnd_cents=18.0, qmax=7)
    with pytest.raises(UnresolvableProgressionError):
        transitive_periodicity(Progression(parse_chord("[0,5.5]"), parse_chord("[0,1]")), cfg)


def _outcome(fn, prog, cfg):
    try:
        return fn(prog, cfg)
    except UnresolvableProgressionError:
        return "infeasible"


#: 1 to 4 distinct notes in the octave above 0, in whole cents
OCTAVE_CENTS = st.lists(st.integers(0, 1200), min_size=1, max_size=4, unique=True)


# Known defect: the chords are shifted to the second chord's root in float
# semitones, so (c + t) / 100 - (s + t) / 100 differs from c / 100 - s / 100 in
# the last bits.  A candidate that lies exactly on a window edge (an octave
# ratio JND cents away from a note) then enters or leaves with t.  Snapping
# the shifted cents makes the property hold, but changes 26 of the 8,000
# recorded benchmark progressions, so it waits for a change that re-records
# them.  strict: the test fails once the defect is mended.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="float shift moves window edges")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    first=OCTAVE_CENTS,
    second=OCTAVE_CENTS,
    t=st.integers(-1200, 1200),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
)
@example(first=[0], second=[10], t=-34, jnd=10.0)  # transitive: 1, transposed infeasible
@example(first=[0], second=[0, 18], t=-1, jnd=18.0)  # relative to first: 1, transposed 48
def test_transition_quantities_are_transposition_invariant(first, second, t, jnd):
    def chord(cents, t):
        return Chord(tuple(sorted((c + t) / 100.0 for c in cents)))

    cfg = TransitiveConfig(jnd_cents=jnd, qmax=48)
    prog = Progression(chord(first, 0), chord(second, 0))
    moved = Progression(chord(first, t), chord(second, t))
    for fn in (transitive_periodicity, relative_periodicity_to_first):
        assert _outcome(fn, moved, cfg) == _outcome(fn, prog, cfg), fn.__name__


def test_chan_zero_for_perfectly_tuned_chords():
    just_fifth = Chord((0.0, 12.0 * math.log2(1.5)))
    just_major = Chord((0.0, 12.0 * math.log2(1.25), 12.0 * math.log2(1.5)))
    prog = Progression(just_fifth, just_major)
    assert chan_transitional_harmony(prog) == pytest.approx(0.0, abs=1e-12)


def test_chan_equal_tempered_value_against_direct_arithmetic():
    # recompute from the tuning witnesses with independent period arithmetic
    prog = Progression(TRITONE, parse_chord("[4,8]"))
    cfg = PeriodicityConfig()

    def spread(chord):
        rooted = shift(chord, chord.root)
        period, tuning = chord_periodicity(rooted, cfg)
        f_root = 261.626 * 2.0 ** (chord.root / 12.0)
        kts = []
        for note, ratio in zip(chord.notes, tuning.ratios):
            f = 261.626 * 2.0 ** (note / 12.0)
            kts.append(int(period * ratio) / f)
        return max(kts) - min(kts), period / f_root

    dt_p, _ = spread(prog.first)
    dt_s, t_s = spread(prog.second)
    assert chan_transitional_harmony(prog) == pytest.approx((dt_p - dt_s) / t_s, rel=1e-12)


def test_chan_small_pitch_change_sensitivity():
    # a one-cent move of the first chord's upper note crosses a tuning
    # boundary and shifts the result by far more than the pitch moved
    base = Progression(Chord((0.0, 6.005)), parse_chord("[0,12]"))
    prt = Progression(Chord((0.0, 6.015)), parse_chord("[0,12]"))
    delta = abs(chan_transitional_harmony(prt) - chan_transitional_harmony(base))
    relative_pitch_change = 2.0 ** (1.0 / 1200.0) - 1.0
    assert delta > 10.0 * relative_pitch_change


def test_chan_coincidence_tolerance_knob():
    prog = Progression(TRITONE, parse_chord("[4,8]"))
    strict = chan_transitional_harmony(prog)
    loose = chan_transitional_harmony(prog, coincidence_tol_cents=50.0)
    assert math.isfinite(strict) and math.isfinite(loose)


def test_transitive_field_pair_and_sweep_equality():
    cfg = TransitiveConfig(scope_cents=200.0)
    trans, companion = transitive_field(TRITONE, 2, cfg, resolution=100)
    sweep = sweep_transitive_field(TRITONE, 2, cfg, resolution=100)
    assert np.array_equal(trans.values, sweep.values)
    assert trans.value_at((300.0, 900.0)) == 0.0  # self-resolution cell

    # companion panel equals the one-octave periodicity of each shifted target
    pcfg = cfg.periodicity_config()
    for coords, value in zip(companion.cells, companion.values):
        c2 = Chord(tuple(x / 100.0 for x in coords))
        assert value == math.log2(chord_periodicity(shift(c2, c2.root), pcfg)[0])


@pytest.mark.parametrize(
    "chord, n, scope, resolution, sha256",
    [
        ("[3,9]", 2, 200.0, 10, (
            "781ca4a6a967b97f04c6219fef865222b87214adbb0b00e20d296193fe2eed32",
            "ec9452d935456e1eeea26e0e29597cbb1e5e0b8197acb46b7189f46af3bf55bb",
        )),
        ("[0,4,7]", 3, 100.0, 10, (
            "e07d681427e76daf32e4a3c81b2fd85df469c7f566d37e156dcc441fa9d28a26",
            "e38c2329daf399391c56ece705648fccc5205cdef04a5ee879b796de17c7095c",
        )),
        ("[3,9]", 2, 200.0, 2, (
            "6e7a8930cf2876dc9152335930f471669cf6a07db22090bd6e871d043124361b",
            "804c325243e5b04295dd507d3dfc13061f9d8ebd5942a5e8b5485c92e395b56d",
        )),
        ("[2,6,9]", 3, 60.0, 5, (
            "8d382dea87862e94c6bc33e39d19267b468809c9553403c9e198226c722ff830",
            "19d457815025b534bcb5ecaa23fc6557725cc94b85beda09f0d2200ce4487736",
        )),
    ],
)
def test_window_field_panels_keep_their_bytes(chord, n, scope, resolution, sha256):
    cfg = TransitiveConfig(scope_cents=scope)
    panels = transitive_field(parse_chord(chord), n, cfg, resolution)
    assert tuple(hashlib.sha256(f.values.tobytes()).hexdigest() for f in panels) == sha256


@st.composite
def windows(draw):
    """A starting chord of 1-3 whole-cent notes whose windows do not overlap,
    with the window's scope, resolution and search bounds."""
    resolution = draw(st.integers(5, 50))
    scope = draw(st.integers(0, 3 * resolution - 1))
    n = draw(st.integers(1, 3))
    cents = [draw(st.integers(-600, 1800))]
    for _ in range(n - 1):
        cents.append(cents[-1] + 2 * scope + draw(st.integers(1, 700)))
    cfg = TransitiveConfig(
        jnd_cents=draw(st.sampled_from([10.0, 18.0, 25.0])),
        qmax=draw(st.integers(2, 100)),
        scope_cents=float(scope),
    )
    return Chord(tuple(c / 100 for c in cents)), cfg, resolution


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(windows())
@example((parse_chord("[0,13]"), TransitiveConfig(scope_cents=100.0), 50))  # beyond the octave
@example((parse_chord("[0,13]"), TransitiveConfig(qmax=2, scope_cents=100.0), 50))
@example((parse_chord("[3,9]"), TransitiveConfig(qmax=3, scope_cents=20.0), 10))  # infeasible
@example((parse_chord("[0,4,7]"), TransitiveConfig(jnd_cents=10.0, scope_cents=30.0), 15))
def test_transitive_field_equals_per_cell_oracle(window):
    c1, cfg, resolution = window
    got = _outcome(transitive_field, c1, len(c1), cfg, resolution)
    want = _outcome(per_cell_transitive_field, c1, len(c1), cfg, resolution)
    if isinstance(want[0], type):
        assert got == want
        return
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.values, w.values)
        assert g.meta == w.meta and g.value_name == w.value_name
        assert g.axis_names == w.axis_names and g.cells == w.cells


def test_transitive_field_rejects_targets_beyond_the_octave():
    c1, cfg = parse_chord("[0,13]"), TransitiveConfig(scope_cents=100.0)
    with pytest.raises(ValueError, match=r"one octave, got \(0\.0, 13\.0\)"):
        transitive_field(c1, 2, cfg, 50)
    # the first cell's transition error comes before its octave error
    with pytest.raises(UnresolvableProgressionError, match="second chord"):
        transitive_field(c1, 2, TransitiveConfig(qmax=2, scope_cents=100.0), 50)


@pytest.mark.parametrize(
    "first, second, message",
    [
        ((1e308,), (-1e308,), "finite, got inf"),
        ((0.0,), (-1e308, 1e308), "finite, got inf"),
        ((1.0, 1.0000000000000002), (-1e10,), r"increasing, got \(10000000001\.0, 10000000001\.0\)"),
        ((0.0, 7.0), (1e300,), r"increasing, got \(-1e\+300, -1e\+300\)"),
    ],
)
def test_transition_shift_keeps_the_chord_errors(first, second, message):
    # a shift by the second root that overflows or merges notes fails as a chord would
    prog = Progression(Chord(first), Chord(second))
    for quantity in (transitive_periodicity, relative_periodicity_to_first):
        with pytest.raises(ValueError, match=message):
            quantity(prog)


def test_transitive_field_rejects_targets_off_the_float_range():
    with pytest.raises(ValueError, match="finite, got inf"):
        transitive_field(Chord((1e307,)), 1, TransitiveConfig(scope_cents=100.0), 50)
    with pytest.raises(ValueError, match="finite, got -inf"):
        transitive_field(Chord((-1e307, 0.0)), 2, TransitiveConfig(scope_cents=100.0), 50)


def test_transitive_field_rejects_overlapping_windows():
    with pytest.raises(ValueError):
        transitive_field(parse_chord("[0,1]"), 2, TransitiveConfig(scope_cents=200.0), 50)
    with pytest.raises(ValueError):
        transitive_field(TRITONE, 3, TransitiveConfig(), 50)


def _smooth_dyad_field(resolution=1):
    return gaussian_smooth(periodicity_field(2, resolution), 6.0)


def test_directional_derivative_transposition_is_exactly_zero():
    fld = _smooth_dyad_field(2)
    assert directional_derivative(fld, (600.0,), (1.0, 1.0)) == 0.0


def test_directional_derivative_constant_field_zero():
    fld = make_simplex_field(1, 100, [4.0] * 13, "value", {"sigma_cents": 6.0, "domain": "intervals"})
    assert directional_derivative(fld, (600.0,), (1.0, -1.0)) == pytest.approx(0.0, abs=1e-12)


def test_directional_derivative_sign_stable_across_resolutions():
    d1 = directional_derivative(_smooth_dyad_field(1), (600.0,), (1.0, -1.0))
    d2 = directional_derivative(_smooth_dyad_field(2), (600.0,), (1.0, -1.0))
    assert d1 * d2 > 0


def test_directional_derivative_second_order_convergence():
    xs = np.arange(0, 1201, 1, dtype=float)
    vals = np.sin(2 * np.pi * xs / 1200.0)
    fld = make_simplex_field(1, 1, vals, "value", {"sigma_cents": 1.0, "domain": "intervals"})
    exact = (2 * np.pi / 1200.0) * math.cos(2 * np.pi * 0.5) * (-200.0)
    e_coarse = abs(directional_derivative(fld, (600.0,), (1.0, -1.0), step_cents=8.0) - exact)
    e_fine = abs(directional_derivative(fld, (600.0,), (1.0, -1.0), step_cents=4.0) - exact)
    assert math.log2(e_coarse / e_fine) >= 1.9


def test_directional_derivative_matches_one_sided_differences():
    fld = _smooth_dyad_field(1)
    h = 4.0
    central = directional_derivative(fld, (600.0,), (1.0, -1.0), step_cents=h)
    s = h / 100.0
    fwd = (fld.interpolate((600.0 - 2 * h,)) - fld.interpolate((600.0,))) / s
    assert central == pytest.approx(fwd, abs=abs(central) * 0.5 + 0.5)


def test_directional_derivative_requires_smoothed_field():
    raw = periodicity_field(2, 10)
    with pytest.raises(ValueError):
        directional_derivative(raw, (600.0,), (1.0, -1.0))


def test_directional_derivative_domain_and_dimension_checks():
    fld = _smooth_dyad_field(2)
    with pytest.raises(ValueError):
        directional_derivative(fld, (2.0,), (1.0, -1.0))  # stencil leaves the grid
    with pytest.raises(ValueError):
        directional_derivative(fld, (600.0,), (1.0, 0.0, -1.0))


def test_directional_derivative_on_a_window_field():
    # a window field's axes are the notes themselves: one rate per axis, no root rate
    trans, _ = transitive_field(TRITONE, 2, TransitiveConfig(scope_cents=200.0), resolution=10)
    fld = gaussian_smooth(trans, 20.0)
    assert fld.meta["domain"] == "notes"
    at, velocity, h = (300.0, 900.0), (1.0, -0.5), 4.0
    with pytest.raises(ValueError, match="expected 2 per-note rates, got 3"):
        directional_derivative(fld, at, (1.0, 0.0, -0.5))
    for step in (0.0, -4.0):
        with pytest.raises(ValueError, match="step_cents must be positive"):
            directional_derivative(fld, at, velocity, step_cents=step)
    s = h / 100.0
    plus = [c + s * (100.0 * v) for c, v in zip(at, velocity)]
    minus = [c - s * (100.0 * v) for c, v in zip(at, velocity)]
    central = (fld.interpolate(plus) - fld.interpolate(minus)) / (2.0 * s)
    assert directional_derivative(fld, at, velocity, step_cents=h) == central != 0.0


def test_directional_derivative_speed_normalization():
    fld = _smooth_dyad_field(2)
    raw = directional_derivative(fld, (600.0,), (1.0, -1.0))
    unit = directional_derivative(fld, (600.0,), (1.0, -1.0), normalize_by_speed=True)
    assert unit == pytest.approx(raw / math.sqrt(2.0))


def test_transitive_config_validation():
    with pytest.raises(ValueError):
        TransitiveConfig(scope_cents=-1.0)
    with pytest.raises(ValueError):
        TransitiveConfig(jnd_cents=0.0)


@pytest.mark.parametrize("scope", [math.nan, math.inf])
def test_transitive_config_rejects_non_finite_scope(scope):
    with pytest.raises(ValueError, match="finite"):
        TransitiveConfig(scope_cents=scope)
