import math
import random

import pytest

from chordspace.pitch import (
    Chord,
    format_chord,
    freq_from_pitch,
    normalize,
    parse_chord,
    pitch_from_freq,
    shift,
)


def test_reference_frequency_maps_to_zero():
    assert pitch_from_freq(261.626, 261.626) == 0.0


def test_octave_doubling_is_twelve_semitones():
    assert pitch_from_freq(523.252, 261.626) == pytest.approx(12.0, abs=1e-9)


def test_a440_pitch_value():
    # frozen from a 50-digit evaluation of 12*log2(440/261.626)
    assert pitch_from_freq(440.0, 261.626) == pytest.approx(8.999971235006079, abs=1e-9)


def test_freq_from_pitch_values():
    assert freq_from_pitch(0.0, 261.626) == 261.626
    assert freq_from_pitch(12.0, 261.626) == pytest.approx(523.252, abs=1e-9)
    # frozen from a 50-digit evaluation of 261.626 * 2**(9/12)
    assert freq_from_pitch(9.0, 261.626) == pytest.approx(440.00073107433664, abs=1e-6)


def test_pitch_freq_round_trip_across_audible_range():
    rng = random.Random(42)
    for _ in range(500):
        f = rng.uniform(20.0, 20000.0)
        p = pitch_from_freq(f)
        assert pitch_from_freq(freq_from_pitch(p)) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
def test_nonpositive_frequency_rejected(bad):
    with pytest.raises(ValueError):
        pitch_from_freq(bad)


def test_normalize_sorts_and_dedups():
    assert normalize([4, 0, 7, 11]).notes == (0.0, 4.0, 7.0, 11.0)
    assert normalize([0, 0, 4, 7, 11]).notes == (0.0, 4.0, 7.0, 11.0)
    assert normalize([5]).notes == (5.0,)


def test_normalize_idempotent():
    rng = random.Random(1)
    for _ in range(200):
        raw = [rng.choice([rng.uniform(-24, 24), rng.randint(-12, 12)]) for _ in range(rng.randint(1, 6))]
        once = normalize(raw)
        assert normalize(once.notes) == once


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize([])


def test_near_duplicates_survive_normalization():
    c = normalize([0.0, 1e-9])
    assert len(c) == 2


def test_chord_validation():
    with pytest.raises(ValueError):
        Chord((1.0, 1.0))
    with pytest.raises(ValueError):
        Chord((2.0, 1.0))
    with pytest.raises(ValueError):
        Chord((math.nan,))
    with pytest.raises(ValueError):
        Chord(())


def test_shift_examples_and_inverse():
    assert shift(normalize([3, 9]), 3).notes == (0.0, 6.0)
    c = normalize([0, 4, 7])
    assert shift(c, 0.0) == c
    assert shift(normalize([5, 11]), 5).notes == (0.0, 6.0)
    rng = random.Random(2)
    # exact round trip on dyadic-rational pitches (all arithmetic representable)
    for _ in range(100):
        c = normalize([rng.randint(-1280, 1280) / 128 for _ in range(3)])
        p = rng.randint(-640, 640) / 128
        assert shift(shift(c, p), -p) == c
    for _ in range(100):
        c = normalize([rng.uniform(-10, 10) for _ in range(3)])
        p = rng.uniform(-5, 5)
        back = shift(shift(c, p), -p)
        assert all(abs(a - b) < 1e-12 for a, b in zip(back.notes, c.notes))


def test_parse_and_format_round_trip():
    for text in ["[0,4,7]", "[0.5,6]", "[-3,0,6]", "0,7"]:
        c = parse_chord(text)
        assert parse_chord(format_chord(c)) == c
    assert format_chord(parse_chord("[4,0,7,11]")) == "[0,4,7,11]"


@pytest.mark.parametrize("bad", ["", "[]", "[a,b]", "[1;2]"])
def test_parse_chord_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_chord(bad)
