import itertools
import math
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from chordspace import roughness
from chordspace.errors import InfeasibleError
from chordspace.field import local_minima
from chordspace.harmonicity import PeriodicityConfig, periodicity_field
from chordspace.pitch import DEFAULT_F0_HZ, normalize
from chordspace.roughness import (
    PURE_SINE,
    RoughnessParams,
    Spectrum,
    chord_roughness,
    harmonic_spectrum,
    pair_roughness,
    roughness_field,
)
from oracles import face, per_cell_roughness_field, per_chord_roughness


def test_identical_partials_do_not_beat():
    assert pair_roughness(440.0, 440.0) == 0.0


def test_wide_separation_kills_interference():
    peak = pair_roughness(440.0, 465.0)
    assert pair_roughness(440.0, 880.0) < 0.01 * peak


def test_near_peak_location():
    # the pairwise curve for a 400 Hz lower partial peaks near a 25 Hz gap
    gaps = np.linspace(0.2, 150.0, 3000)
    vals = [pair_roughness(400.0, 400.0 + g) for g in gaps]
    best = gaps[int(np.argmax(vals))]
    assert 15.0 < best < 40.0
    assert pair_roughness(400.0, 420.0) > 0.95 * max(vals)


def test_pair_symmetry_and_limits():
    rng = random.Random(8)
    for _ in range(200):
        f1, f2 = rng.uniform(50, 2000), rng.uniform(50, 2000)
        a1, a2 = rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        assert pair_roughness(f1, f2, a1, a2) == pair_roughness(f2, f1, a2, a1)
    assert pair_roughness(440.0, 440.0 + 1e-7) < 1e-6
    assert pair_roughness(440.0, 440.0 * 64) < 1e-6


def test_pair_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        pair_roughness(0.0, 440.0)


def test_harmonic_spectrum_needs_a_partial():
    with pytest.raises(ValueError, match="at least one partial"):
        harmonic_spectrum(0)


def test_too_many_partial_pairs_are_refused_before_any_allocation():
    spectrum = Spectrum(tuple((1 + k / 1000, 1.0) for k in range(20000)))
    message = re.escape("20000 partials on 1 note(s) make 199990000 partial pairs in one chord, "
                        "above the bound of 16777216")
    many = np.zeros((1000, 1), np.uint8)  # a thousand one-note rows
    tracemalloc.start()
    try:
        for compute in (lambda: roughness_field(2, 600, spectrum),
                        lambda: chord_roughness(normalize([0]), spectrum),
                        lambda: roughness._roughness_rows(
                            many, [0.0], spectrum, DEFAULT_F0_HZ, RoughnessParams())):
            with pytest.raises(ValueError, match=message):
                compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # imports included; the pair indices alone would take 1.49 GiB


def test_single_sine_note_has_zero_roughness():
    assert chord_roughness(normalize([0]), PURE_SINE) == 0.0


def test_quadratic_amplitude_scaling():
    spec = harmonic_spectrum()
    lam = 1.7
    scaled = Spectrum(tuple((r, lam * a) for r, a in spec.partials))
    c = normalize([0, 4, 7])
    assert chord_roughness(c, scaled) == pytest.approx(
        lam**2 * chord_roughness(c, spec), rel=1e-9
    )


def test_permutation_invariance_through_normalization():
    spec = harmonic_spectrum()
    assert chord_roughness(normalize([7, 0, 4]), spec) == chord_roughness(
        normalize([0, 4, 7]), spec
    )


@pytest.mark.parametrize("ratio", [2.0, 1.5])
def test_simple_ratio_notches(ratio):
    spec = harmonic_spectrum()
    interval = 12.0 * math.log2(ratio)
    mid = chord_roughness(normalize([0.0, interval]), spec)
    for sign in (-1, 1):
        neighbor = interval + sign * 12.0 * math.log2(1.02)
        assert mid < chord_roughness(normalize([0.0, neighbor]), spec)


def test_dyad_curve_minima_near_simple_ratios():
    fld = roughness_field(2, 1)
    minima = [c[0] for c, _ in local_minima(fld)]
    for num, den in ((6, 5), (5, 4), (4, 3), (3, 2), (2, 1)):
        target = num / den
        assert any(abs(2 ** (m / 1200.0) - target) <= 0.01 * target for m in minima)


def test_pure_sine_curve_has_no_interior_minima():
    fld = roughness_field(2, 1, PURE_SINE)
    vals = fld.values
    peak = int(np.argmax(vals))
    tail = vals[peak:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert fld.value_at((0.0,)) == 0.0


def test_peak_interval_narrows_with_register():
    # critical bandwidth grows slower than frequency, so the peak of the
    # pairwise curve sits at ever smaller musical intervals as register rises
    def peak_cents(fmin):
        cents = np.linspace(1.0, 400.0, 1600)
        vals = [pair_roughness(fmin, fmin * 2 ** (c / 1200.0)) for c in cents]
        return cents[int(np.argmax(vals))]

    peaks = [peak_cents(f) for f in (130.0, 261.0, 523.0, 1046.0)]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_roughness_field_triad_and_validation():
    fld = roughness_field(3, 300)
    assert fld.dims == 2
    with pytest.raises(ValueError, match="2 to 4 notes"):
        roughness_field(5, 100)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(((1.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        Spectrum(((0.5, 1.0),))
    with pytest.raises(ValueError):
        Spectrum(((1.0, 0.0),))
    with pytest.raises(ValueError):
        Spectrum(())


def test_params_validation():
    with pytest.raises(ValueError):
        RoughnessParams(slow_decay=6.0, fast_decay=5.75)
    with pytest.raises(ValueError):
        RoughnessParams(scale=0.0)


@pytest.mark.parametrize(
    "partials",
    [
        ((1.0, math.nan), (2.0, 0.5)),
        ((1.0, 1.0), (math.inf, 0.5)),
        ((1.0, 1.0), (math.nan, 0.5)),
        ((1.0, math.inf),),
    ],
)
def test_spectrum_rejects_non_finite(partials):
    with pytest.raises(ValueError, match="finite"):
        Spectrum(partials)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name",
    ["slow_decay", "fast_decay", "peak_fraction", "bandwidth_slope",
     "bandwidth_offset_hz", "scale"],
)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        RoughnessParams(**{name: value})


@pytest.mark.parametrize(
    "spectrum, f0",
    [
        (harmonic_spectrum(), 1e308),
        (Spectrum(((1.0, 1.0), (1e308, 0.5))), DEFAULT_F0_HZ),
    ],
)
def test_overflowing_partial_frequencies_raise(spectrum, f0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any RuntimeWarning
        with pytest.raises(ValueError, match="partial frequencies overflow"):
            roughness_field(2, 100, spectrum, f0)
        with pytest.raises(ValueError, match="partial frequencies overflow"):
            chord_roughness(normalize([0, 7]), spectrum, f0)


def test_overflowing_roughness_raises():
    # an infinite scale * a_i * a_j times a zero gap (the octave's shared partial) is NaN
    loud = Spectrum(((1.0, 1e308), (2.0, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="roughness overflows"):
            chord_roughness(normalize([0, 12]), loud)
        with pytest.raises(ValueError, match="roughness overflows"):
            roughness_field(2, 100, loud)


def test_one_cell_chunks_equal_the_oracle(monkeypatch):
    monkeypatch.setattr(roughness, "_CHUNK_PAIRS", 1)
    assert np.array_equal(roughness_field(3, 50).values, per_cell_roughness_field(3, 50).values)


@st.composite
def spectra(draw, integer_ratios=False, max_partials=8):
    """1 to ``max_partials`` partials: non-integer ratios, or whole-number ones that tie
    across octaves."""
    m = draw(st.integers(1, max_partials))
    if integer_ratios:
        ratios = sorted(draw(st.sets(st.integers(1, 9), min_size=m, max_size=m)))
    else:
        first = draw(st.one_of(st.just(1.0), st.floats(1.0, 1.5)))
        steps = draw(st.lists(st.floats(0.05, 2.0), min_size=m - 1, max_size=m - 1))
        ratios = list(itertools.accumulate([first] + steps))
    amps = draw(st.lists(st.floats(0.01, 2.0), min_size=m, max_size=m))
    return Spectrum(tuple((float(r), a) for r, a in zip(ratios, amps)))


@st.composite
def roughness_params(draw):
    slow = draw(st.floats(0.5, 6.0))
    return RoughnessParams(
        slow_decay=slow,
        fast_decay=slow + draw(st.floats(0.1, 6.0)),
        peak_fraction=draw(st.floats(0.05, 1.0)),
        bandwidth_slope=draw(st.floats(0.001, 0.1)),
        bandwidth_offset_hz=draw(st.floats(1.0, 50.0)),
        scale=draw(st.floats(0.1, 10.0)),
    )


_DIVISORS_FROM_10 = [r for r in range(10, 1201) if 1200 % r == 0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([2, 3]),
    resolution=st.sampled_from(_DIVISORS_FROM_10),
    spectrum=spectra(),
    f0=st.floats(20.0, 2000.0),
    params=roughness_params(),
)
@example(n=3, resolution=10, spectrum=harmonic_spectrum(8, 0.7), f0=DEFAULT_F0_HZ,
         params=RoughnessParams())
@example(n=4, resolution=50, spectrum=harmonic_spectrum(), f0=DEFAULT_F0_HZ,
         params=RoughnessParams())
def test_roughness_field_equals_per_cell_oracle(n, resolution, spectrum, f0, params):
    fld = roughness_field(n, resolution, spectrum, f0, params)
    want = per_cell_roughness_field(n, resolution, spectrum, f0, params)
    assert np.array_equal(fld.values, want.values)
    assert fld.meta == want.meta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    notes=st.lists(
        st.one_of(
            st.floats(-48.0, 48.0),
            # whole octaves above the reference: 2 ** (p / 12) is exact, so
            # whole-number partials of different notes coincide
            st.sampled_from([-24.0, -12.0, 0.0, 12.0, 24.0, 36.0]),
        ),
        min_size=1,
        max_size=6,
    ),
    spectrum=st.one_of(spectra(), spectra(integer_ratios=True)),
    params=roughness_params(),
)
# 32 partials, many tied across the octaves: an unstable sort reorders the ties
@example(notes=[0.0, 12.0, 24.0, 36.0], spectrum=harmonic_spectrum(8, 0.7),
         params=RoughnessParams())
def test_chord_roughness_equals_per_chord_oracle(notes, spectrum, params):
    c = normalize(notes)
    assert chord_roughness(c, spectrum, DEFAULT_F0_HZ, params) == per_chord_roughness(
        c, spectrum, DEFAULT_F0_HZ, params
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.integers(1, 4), spectrum=spectra(), params=roughness_params())
def test_kernel_rows_equal_the_oracle_through_a_partial_last_chunk(data, k, spectrum, params):
    pairs = max(1, k * len(spectrum.partials) * (k * len(spectrum.partials) - 1) // 2)
    step = data.draw(st.integers(2, 9))  # rows per chunk
    rows = step * data.draw(st.integers(1, 3)) + data.draw(st.integers(1, step - 1))
    notes = sorted(data.draw(st.lists(st.floats(-36.0, 36.0), min_size=k, max_size=12, unique=True)))
    where = np.array([sorted(data.draw(st.permutations(range(len(notes))))[:k])
                      for _ in range(rows)], np.uint8)
    # the chunk size the kernel derives from its pair budget
    with mock.patch.object(roughness, "_CHUNK_PAIRS", step * pairs + data.draw(st.integers(0, pairs - 1))):
        got = roughness._roughness_rows(where, notes, spectrum, DEFAULT_F0_HZ, params)
    want = [per_chord_roughness(normalize([notes[w] for w in row]), spectrum, DEFAULT_F0_HZ, params)
            for row in where.tolist()]
    assert np.array_equal(got, want)


def test_roughness_field_peak_memory_is_a_few_chunks():
    roughness_field(3, 5)
    tracemalloc.start()
    try:
        roughness_field(3, 5)  # 29,161 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# -- the stratifold's faces ---------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["periodicity", "roughness"]),
    grid=st.one_of(
        st.tuples(st.just(3), st.sampled_from([r for r in _DIVISORS_FROM_10 if r >= 20])),
        st.tuples(st.just(4), st.sampled_from([r for r in _DIVISORS_FROM_10 if r >= 60])),
    ),
    jnd=st.sampled_from([10.0, 18.0, 25.0]),
    qmax=st.sampled_from([12, 30, 100]),
    pairwise=st.booleans(),
    spectrum=spectra(max_partials=6),
)
@example(kind="periodicity", grid=(4, 60), jnd=18.0, qmax=100, pairwise=True,
         spectrum=Spectrum(((1.0, 1.0),)))
@example(kind="roughness", grid=(3, 20), jnd=18.0, qmax=100, pairwise=True,
         spectrum=Spectrum(((1.0, 1.0), (2.3, 0.5), (3.7, 0.25))))
def test_a_fields_faces_are_the_smaller_field(kind, grid, jnd, qmax, pairwise, spectrum):
    # a chord with a doubled note, or a note on the root, is the chord without it; for
    # periodicity so is one with the octave, as 2/1 has q = 1, while for roughness an
    # octave adds partial pairs
    n, res = grid
    if kind == "roughness":
        make, faces = (lambda n: roughness_field(n, res, spectrum)), range(n - 1)
    else:
        cfg = PeriodicityConfig(jnd_cents=jnd, qmax=qmax, pairwise_constraint=pairwise)
        make, faces = (lambda n: periodicity_field(n, res, cfg)), range(n)
    try:
        lower = make(n - 1)
    except InfeasibleError:
        event(f"{kind}: infeasible")
        with pytest.raises(InfeasibleError):
            make(n)
        return
    try:
        fld = make(n)
    except InfeasibleError:
        assume(False)
    event(f"{kind}, n={n}")
    for k in faces:
        on_face, below = face(fld, lower, k)
        assert len(on_face) and np.array_equal(on_face, below), f"face {k}"
