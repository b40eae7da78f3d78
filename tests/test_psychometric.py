import math
import random

import numpy as np
import pytest

from chordspace.field import ScalarField, make_simplex_field, local_minima
from chordspace.harmonicity import periodicity_field
from chordspace.psychometric import (
    THIRD_QUARTILE_Z,
    PsychometricCurve,
    curve_value,
    expected_pitch,
    gaussian_product_sigma,
    gaussian_smooth,
    jnd_from_quartiles,
    sigma_from_jnd,
)

import oracles


def test_jnd_from_quartiles():
    assert jnd_from_quartiles(-18, 18) == 18.0
    assert jnd_from_quartiles(10, 46) == 18.0
    assert jnd_from_quartiles(0, 53.374) == pytest.approx(26.687)
    with pytest.raises(ValueError):
        jnd_from_quartiles(5, 5)


def test_sigma_from_jnd():
    assert sigma_from_jnd(18.0) == pytest.approx(26.687, abs=1e-3)
    assert sigma_from_jnd(6 * THIRD_QUARTILE_Z) == pytest.approx(6.0)
    assert sigma_from_jnd(THIRD_QUARTILE_Z) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sigma_from_jnd(0.0)


def test_curve_jnd_round_trips_within_an_ulp():
    for jnd in (k / 4 for k in range(1, 401)):  # quarter cents in (0, 100]
        assert PsychometricCurve(0.0, sigma_from_jnd(jnd)).jnd_cents == pytest.approx(jnd, rel=1e-15)
    assert PsychometricCurve(0.0, sigma_from_jnd(18.0)).jnd_cents == 18.0


def test_curve_value_median_and_quartiles():
    curve = PsychometricCurve(pse_cents=0.0, sigma_cents=sigma_from_jnd(18.0))
    assert curve_value(curve, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert curve_value(curve, 18.0) == pytest.approx(0.75, abs=1e-6)
    assert curve_value(curve, -18.0) == pytest.approx(0.25, abs=1e-6)


def test_curve_monotone_with_saturating_limits():
    curve = PsychometricCurve(pse_cents=10.0, sigma_cents=5.0)
    xs = np.linspace(-100, 100, 401)
    ys = [curve_value(curve, x) for x in xs]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert ys[0] < 1e-12 and ys[-1] > 1 - 1e-12


def test_expected_pitch_equals_pse():
    for pse, sigma in ((0.0, 26.687), (700.0, 6.0), (-50.0, 1.0)):
        curve = PsychometricCurve(pse, sigma)
        assert expected_pitch(curve) == pytest.approx(pse, abs=1e-6 * sigma)


def test_gaussian_product_sigma_values():
    assert gaussian_product_sigma(3.0, 3.0) == pytest.approx(3.0 / math.sqrt(2.0))
    assert gaussian_product_sigma(6.0, 8.0) == pytest.approx(4.8)
    assert gaussian_product_sigma(5.0, 1e9) == pytest.approx(5.0, rel=1e-9)
    for s in (1e200, 1e-170):  # no intermediate over- or underflows
        assert gaussian_product_sigma(s, s) == pytest.approx(s / math.sqrt(2.0), rel=1e-15)
    rng = random.Random(4)
    for _ in range(100):
        s1, s2 = rng.uniform(0.1, 50), rng.uniform(0.1, 50)
        assert gaussian_product_sigma(s1, s2) < min(s1, s2)
    for s1, s2 in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="must be positive"):
            gaussian_product_sigma(s1, s2)


def test_helpers_reject_infinite_widths():
    # as sigma_from_jnd and PsychometricCurve do: an infinite width gave nan or inf
    for s1, s2 in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            gaussian_product_sigma(s1, s2)
    for c25, c75 in ((0, math.inf), (-math.inf, 0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite width"):
            jnd_from_quartiles(c25, c75)


def test_smooth_constant_field_unchanged():
    fld = make_simplex_field(1, 10, [3.5] * 121, "value", {})
    out = gaussian_smooth(fld, 15.0)
    assert np.allclose(out.values, 3.5, atol=1e-12)


def test_smooth_zero_sigma_identity():
    fld = make_simplex_field(1, 100, [float(i) for i in range(13)], "value", {})
    assert gaussian_smooth(fld, 0.0) is fld


def test_smooth_commutes_with_adding_constant():
    rng = random.Random(6)
    vals = np.array([rng.uniform(0, 5) for _ in range(121)])
    fld = make_simplex_field(1, 10, vals, "value", {})
    a = gaussian_smooth(fld.with_values(vals + 2.0), 12.0).values
    b = gaussian_smooth(fld, 12.0).values + 2.0
    assert np.allclose(a, b, atol=1e-12)


def test_smooth_preserves_mean_on_symmetric_field():
    # even symmetry around the domain center makes replicate padding lossless
    xs = np.arange(0, 1201, 10, dtype=float)
    vals = np.cos(2 * np.pi * xs / 1200.0)
    fld = make_simplex_field(1, 10, vals, "value", {})
    sm = gaussian_smooth(fld, 20.0)
    assert abs(sm.values.mean() - vals.mean()) < 1e-3 * max(1.0, abs(vals.mean()))


def test_smooth_records_sigma_in_meta():
    fld = make_simplex_field(1, 100, [float(i) for i in range(13)], "value", {})
    assert gaussian_smooth(fld, 6.0).meta["sigma_cents"] == 6.0


def test_smoothed_dyad_periodicity_keeps_key_minima():
    fld = periodicity_field(2, 1)
    sm6 = gaussian_smooth(fld, 6.0)
    minima6 = [c[0] for c, _ in local_minima(sm6)]
    for target in (0.0, 700.0, 1200.0):
        assert min(abs(m - target) for m in minima6) <= 3.0

    sm27 = gaussian_smooth(fld, sigma_from_jnd(18.0))
    minima27 = [c[0] for c, _ in local_minima(sm27)]
    assert len(minima27) < len(minima6)


def test_smooth_triad_field_respects_mirror_symmetry():
    # values near the diagonal must see their mirrored surroundings
    fld = periodicity_field(3, 100)
    sm = gaussian_smooth(fld, 40.0)
    dense = sm.dense()
    assert np.allclose(dense, np.transpose(dense), atol=1e-12)


def test_curve_requires_positive_sigma():
    with pytest.raises(ValueError):
        PsychometricCurve(0.0, 0.0)


@pytest.mark.parametrize("simplex, counts, resolution", [
    (True, (13,), 100), (True, (13, 13), 100), (True, (7, 7, 7), 200), (False, (4, 9, 6), 10),
    # radii up to 40 cells: kernels of 33 taps and more also run BLAS ddot's vector block
    (False, (40,), 10), (True, (40, 40), 5), (False, (40, 10, 10), 1),
    (True, (4, 4, 4, 4), 400), (True, (3, 3, 3, 3, 3), 600),  # the tetrad and pentad simplex
])
def test_smooth_equals_per_line_oracle(simplex, counts, resolution):
    dims = len(counts)
    cells = math.comb(counts[0] - 1 + dims, dims) if simplex else math.prod(counts)
    values = np.random.default_rng(dims).normal(size=cells)
    fld = ScalarField(resolution, (0.0,) * dims, counts, simplex, ("x",) * dims, values, "v")
    for radius in range(1, max(counts) + 1):  # up to the longest axis
        sigma = (radius + 0.5) * resolution / 6.0
        assert np.array_equal(
            gaussian_smooth(fld, sigma).values, oracles.per_line_gaussian_smooth(fld, sigma)
        )


def test_one_tap_smoothing_returns_the_field_values(monkeypatch):
    # a one-tap kernel never builds the symmetric extension, and keeps -0.0
    fld = make_simplex_field(2, 600, [-0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "v", {})
    with monkeypatch.context() as patch:
        patch.setattr(ScalarField, "dense", lambda self: pytest.fail("the box was built"))
        smooth = gaussian_smooth(fld, 6.0)  # six sigma is 36 cents: radius 0
    assert smooth.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.signbit(smooth.values[0])
    assert smooth.meta["sigma_cents"] == 6.0
    raw = periodicity_field(4, 50)
    assert np.array_equal(gaussian_smooth(raw, 6.0).values, raw.values)


def test_smooth_rejects_negative_sigma():
    fld = make_simplex_field(1, 100, [0.0] * 13, "value", {})
    with pytest.raises(ValueError):
        gaussian_smooth(fld, -1.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_smooth_rejects_non_finite_sigma(sigma):
    fld = make_simplex_field(1, 100, [0.0] * 13, "value", {})
    with pytest.raises(ValueError, match="finite"):
        gaussian_smooth(fld, sigma)


def test_smooth_rejects_a_kernel_beyond_the_longest_axis():
    fld = make_simplex_field(1, 100, [float(i) for i in range(13)], "value", {})
    gaussian_smooth(fld, 217.0)  # radius 13 cells: the axis length
    for sigma in (234.0, 1e12, 1e300):  # radius 14 cells and beyond
        with pytest.raises(ValueError, match="longest axis"):
            gaussian_smooth(fld, sigma)
