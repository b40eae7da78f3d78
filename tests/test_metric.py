import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from chordspace.metric import (
    NormChoice,
    chord_distance,
    chord_distance_n,
    geodesic_distance,
    geodesic_witness,
    stratum_distance,
)
from chordspace.pitch import Chord, normalize

from oracles import (
    duplication_distance,
    expansion_distance,
    expansion_distance_fast,
    geodesic_shortest_path,
    perm_distance,
    scan_geodesic_witness,
)


def test_stratum_distance_fixed_values():
    assert stratum_distance((0, 1, 7), (0, 6, 7)) == 5.0
    assert stratum_distance((0, 4, 7), (0, 4, 7)) == 0.0
    assert stratum_distance((0, 2), (1, 5)) == 4.0


def test_stratum_distance_length_mismatch():
    with pytest.raises(ValueError):
        stratum_distance((0, 1), (0,))


def test_stratum_distance_rejects_empty_tuples():
    with pytest.raises(ValueError, match="at least one note"):
        stratum_distance((), ())


@pytest.mark.parametrize("norm", [NormChoice.MANHATTAN, NormChoice.EUCLIDEAN])
def test_sorted_matching_equals_permutation_brute_force(norm):
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(40):
            a = tuple(rng.uniform(-6, 12) for _ in range(n))
            b = tuple(rng.uniform(-6, 12) for _ in range(n))
            assert stratum_distance(a, b, norm) == pytest.approx(
                perm_distance(a, b, norm), abs=1e-9
            )


def test_stratum_metric_axioms_randomized():
    rng = random.Random(13)
    for _ in range(3000):
        n = rng.randint(1, 5)
        a = tuple(rng.uniform(0, 12) for _ in range(n))
        b = tuple(rng.uniform(0, 12) for _ in range(n))
        c = tuple(rng.uniform(0, 12) for _ in range(n))
        dab = stratum_distance(a, b)
        assert dab >= 0
        assert dab == pytest.approx(stratum_distance(b, a), abs=1e-12)
        assert stratum_distance(a, a) == 0
        assert dab <= stratum_distance(a, c) + stratum_distance(c, b) + 1e-9


def test_chord_distance_n_golden():
    assert chord_distance_n(normalize([0, 1, 7]), normalize([0, 6, 7]), 4) == 2.0
    assert chord_distance_n(normalize([0]), normalize([0, 1, 2]), 3) == 3.0
    assert chord_distance_n(normalize([0]), normalize([0]), 2) == 0.0


def test_chord_distance_n_rejects_small_n():
    with pytest.raises(ValueError):
        chord_distance_n(normalize([0, 1, 7]), normalize([0, 6]), 2)


def test_chord_distance_n_matches_expansion_oracle():
    rng = random.Random(17)
    for _ in range(30):
        c1 = normalize([rng.randint(0, 8) for _ in range(rng.randint(1, 3))])
        c2 = normalize([rng.randint(0, 8) for _ in range(rng.randint(1, 3))])
        for n in range(max(len(c1), len(c2)), len(c1) + len(c2) + 1):
            assert chord_distance_n(c1, c2, n) == pytest.approx(
                expansion_distance(c1, c2, n), abs=1e-9
            )


def test_chord_distance_triangle_violation_reproduced():
    a, b, c = normalize([0]), normalize([0, 1]), normalize([0, 1, 2])
    assert chord_distance(a, b) == 1.0
    assert chord_distance(b, c) == 1.0
    assert chord_distance(a, c) == 3.0
    assert chord_distance(a, b) + chord_distance(b, c) < chord_distance(a, c)
    assert chord_distance(normalize([0, 3]), normalize([0, 3])) == 0.0


def test_chord_distance_cap_is_enough():
    # duplicating beyond total multiplicity never improves the matching
    rng = random.Random(19)
    for _ in range(25):
        c1 = normalize([rng.randint(0, 6) for _ in range(rng.randint(1, 2))])
        c2 = normalize([rng.randint(0, 6) for _ in range(rng.randint(1, 2))])
        capped = chord_distance(c1, c2)
        wider = min(
            expansion_distance(c1, c2, n)
            for n in range(max(len(c1), len(c2)), len(c1) + len(c2) + 3)
        )
        assert capped == pytest.approx(wider, abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    cents1=st.lists(st.integers(-1200, 2400), min_size=1, max_size=5, unique=True),
    cents2=st.lists(st.integers(-1200, 2400), min_size=1, max_size=5, unique=True),
)
def test_duplication_distances_equal_expansion_oracle_property(cents1, cents2):
    # the path program must reproduce the enumeration bit for bit, not approximately
    c1 = normalize([c / 100 for c in cents1])
    c2 = normalize([c / 100 for c in cents2])
    for norm in NormChoice:
        assert chord_distance(c1, c2, norm) == duplication_distance(
            c1, c2, max_extra=2, norm=norm
        )
        for n in range(max(len(c1), len(c2)), len(c1) + len(c2) + 3):
            assert chord_distance_n(c1, c2, n, norm) == expansion_distance_fast(
                c1, c2, n, norm
            )


def test_chord_distance_twelve_notes_by_hand():
    # each of the 12 target notes needs a partner at least 0.5 away, so 6 is
    # a lower bound, and sorted one-to-one matching reaches it
    lower = normalize(range(12))
    upper = normalize([x + 0.5 for x in range(12)])
    assert chord_distance(lower, upper) == 6.0


@pytest.mark.parametrize(
    "notes1, notes2, norm",
    [
        ([1e308], [-1e308], NormChoice.MANHATTAN),
        ([0, 1e200], [0], NormChoice.EUCLIDEAN),
        ([0, 1e155], [0, 1], NormChoice.EUCLIDEAN),
    ],
)
def test_overflowing_distance_raises_value_error(notes1, notes2, norm):
    c1, c2 = normalize(notes1), normalize(notes2)
    with pytest.raises(ValueError, match="too far apart"):
        chord_distance(c1, c2, norm)
    with pytest.raises(ValueError, match="too far apart"):
        chord_distance_n(c1, c2, max(len(c1), len(c2)), norm)


def test_stratum_and_geodesic_overflow_raise_value_error():
    with pytest.raises(ValueError, match="too far apart"):
        stratum_distance((1e308,), (-1e308,))
    with pytest.raises(ValueError, match="too far apart"):
        stratum_distance((0.0, 1e200), (0.0, 0.0), NormChoice.EUCLIDEAN)
    with pytest.raises(ValueError, match="too far apart"):
        geodesic_distance(normalize([1e308]), normalize([-1e308]))


def test_far_notes_off_the_optimal_path_do_not_overflow():
    # the pair (0, 1e200) squares past a float, but the optimum never uses it
    c = normalize([0, 1e200])
    assert chord_distance(c, c, NormChoice.EUCLIDEAN) == 0.0
    assert chord_distance_n(c, c, 4, NormChoice.EUCLIDEAN) == 0.0


def test_geodesic_golden_values():
    assert geodesic_distance(normalize([0]), normalize([0, 1, 2])) == 2.0
    assert geodesic_distance(normalize([0, 1, 7]), normalize([0, 6, 7])) == 2.0
    assert geodesic_distance(normalize([5]), normalize([5])) == 0.0
    assert geodesic_distance(normalize([0, 1]), normalize([0, 1, 2])) == 1.0
    assert geodesic_distance(normalize([0]), normalize([0, 1])) == 1.0


def test_geodesic_merge_slide_split_beats_direct_matching():
    # both voices merge, travel together and split; cheaper than matching
    c1, c2 = normalize([0, 1]), normalize([4, 5])
    assert chord_distance(c1, c2) == 8.0
    assert geodesic_distance(c1, c2) == 5.0


def test_geodesic_witness_structure():
    w = geodesic_witness(normalize([0]), normalize([0, 1, 2]))
    assert w.total == 2.0
    assert len(w.groups) == 1
    assert w.groups[0].sources == (0.0,)
    assert w.groups[0].targets == (0.0, 1.0, 2.0)

    w = geodesic_witness(normalize([0, 1, 7]), normalize([0, 6, 7]))
    assert [g.cost for g in w.groups] == [1.0, 1.0]
    assert w.groups[0].sources == (0.0, 1.0) and w.groups[0].targets == (0.0,)
    assert w.groups[1].sources == (7.0,) and w.groups[1].targets == (6.0, 7.0)

    w = geodesic_witness(normalize([5]), normalize([5]))
    assert len(w.groups) == 1 and w.total == 0.0


def test_geodesic_witness_always_consistent():
    rng = random.Random(23)
    for _ in range(300):
        c1 = normalize([rng.randint(0, 1200) / 100 for _ in range(rng.randint(1, 4))])
        c2 = normalize([rng.randint(0, 1200) / 100 for _ in range(rng.randint(1, 4))])
        w = geodesic_witness(c1, c2)
        assert w.total == geodesic_distance(c1, c2)
        assert w.total == pytest.approx(sum(g.cost for g in w.groups), abs=1e-12)
        for g in w.groups:
            assert g.sources and g.targets
            pts = g.sources + g.targets
            assert g.cost == pytest.approx(max(pts) - min(pts), abs=1e-12)
        assert tuple(sorted(p for g in w.groups for p in g.sources)) == c1.notes
        assert tuple(sorted(set(p for g in w.groups for p in g.targets))) == c2.notes


small_chords = st.lists(st.integers(-3, 6), min_size=1, max_size=5).map(normalize)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_chords, small_chords, st.sampled_from([1.0, 0.1, 100.0]))
def test_geodesic_witness_equals_scan_oracle(c1, c2, scale):
    # small integer pitches make equal-cost groupings, so tie-breaking is exercised
    c1, c2 = normalize(x * scale for x in c1), normalize(x * scale for x in c2)
    want = scan_geodesic_witness(c1, c2)
    assert geodesic_witness(c1, c2) == want
    assert geodesic_distance(c1, c2) == want.total  # the DP alone, with no witness built


def test_geodesic_never_exceeds_duplication_distance():
    rng = random.Random(29)
    for _ in range(300):
        c1 = normalize([rng.randint(0, 1200) / 100 for _ in range(rng.randint(1, 4))])
        c2 = normalize([rng.randint(0, 1200) / 100 for _ in range(rng.randint(1, 4))])
        assert geodesic_distance(c1, c2) <= chord_distance(c1, c2) + 1e-12


def test_geodesic_metric_axioms_randomized():
    rng = random.Random(31)
    for _ in range(1500):
        chords = [
            normalize([rng.randint(0, 1200) / 100 for _ in range(rng.randint(1, 4))])
            for _ in range(3)
        ]
        a, b, c = chords
        assert geodesic_distance(a, b) == pytest.approx(geodesic_distance(b, a), abs=1e-12)
        assert (
            geodesic_distance(a, b)
            <= geodesic_distance(a, c) + geodesic_distance(c, b) + 1e-9
        )


def test_geodesic_matches_shortest_path_oracle_sampled():
    chords = [
        Chord(t)
        for r in (1, 2, 3)
        for t in itertools.combinations([float(x) for x in range(5)], r)
    ]
    rng = random.Random(37)
    for _ in range(80):
        c1, c2 = rng.choice(chords), rng.choice(chords)
        assert geodesic_distance(c1, c2) == pytest.approx(
            geodesic_shortest_path(c1, c2), abs=1e-9
        )


def test_norm_choice_parsing():
    assert NormChoice.from_str("Manhattan") is NormChoice.MANHATTAN
    assert NormChoice.from_str("euclidean") is NormChoice.EUCLIDEAN
    with pytest.raises(ValueError):
        NormChoice.from_str("supremum")


def test_euclidean_variant_on_chord_distance():
    d = chord_distance(normalize([0, 1, 7]), normalize([0, 6, 7]), NormChoice.EUCLIDEAN)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)
