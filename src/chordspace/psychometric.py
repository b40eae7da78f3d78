"""Cumulative-Gaussian response curves and Gaussian smoothing of fields.

The discrimination curve for pitch comparison is modeled as a Heaviside step
convolved with a Gaussian, i.e. a cumulative Gaussian.  Its median is the
point of subjective equality (PSE); the just-noticeable difference (JND) is
half the interquartile range, which ties the two width conventions together:
``sigma = jnd / 0.674490``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField

#: Upper-quartile z-score of the standard normal, at the precision used
#: throughout.  ``jnd == THIRD_QUARTILE_Z * sigma`` holds to within one ulp, not
#: exactly: the round trip through :func:`sigma_from_jnd` gives 5.749999999999999
#: for a JND of 5.75 cents, and exactly 6, 12 and 18 for those JNDs.
THIRD_QUARTILE_Z = 0.674490


def jnd_from_quartiles(c25: float, c75: float) -> float:
    """Half the interquartile range of a discrimination curve, in cents."""
    if not (c75 > c25 and math.isfinite(c75 - c25)):
        raise ValueError(f"quartiles must increase by a finite width, got c25={c25}, c75={c75}")
    return (c75 - c25) / 2.0


def sigma_from_jnd(jnd_cents: float) -> float:
    """Standard deviation of the cumulative-Gaussian curve with this JND."""
    if not (jnd_cents > 0 and math.isfinite(jnd_cents)):
        raise ValueError(f"jnd must be positive, got {jnd_cents!r}")
    return jnd_cents / THIRD_QUARTILE_Z


@dataclass(frozen=True)
class PsychometricCurve:
    """Cumulative Gaussian with median ``pse_cents`` and width ``sigma_cents``."""

    pse_cents: float
    sigma_cents: float

    def __post_init__(self):
        if not (self.sigma_cents > 0 and math.isfinite(self.sigma_cents)):
            raise ValueError(f"sigma must be positive, got {self.sigma_cents!r}")

    @property
    def jnd_cents(self) -> float:
        return THIRD_QUARTILE_Z * self.sigma_cents


def curve_value(curve: PsychometricCurve, c: float) -> float:
    """Response probability at comparison pitch ``c`` (cents)."""
    z = (c - curve.pse_cents) / curve.sigma_cents
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def expected_pitch(curve: PsychometricCurve) -> float:
    """Mean perceived pitch, by quadrature of c * density(c); equals the PSE."""
    s = curve.sigma_cents
    xs = np.linspace(curve.pse_cents - 10.0 * s, curve.pse_cents + 10.0 * s, 4001)
    density = np.exp(-0.5 * ((xs - curve.pse_cents) / s) ** 2) / (
        s * math.sqrt(2.0 * math.pi)
    )
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(xs * density, xs))


def gaussian_product_sigma(s1: float, s2: float) -> float:
    """Width of the (renormalized) product of two Gaussians; below min(s1, s2)."""
    if not (s1 > 0 and s2 > 0 and math.isfinite(s1) and math.isfinite(s2)):
        raise ValueError(f"standard deviations must be positive and finite, got {s1!r}, {s2!r}")
    lo, hi = min(s1, s2), max(s1, s2)
    return lo / math.hypot(1.0, lo / hi)  # s1 s2 / hypot(s1, s2), free of over- and underflow


def _kernel(sigma_cents: float, resolution: int, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1, dtype=float) * resolution
    k = np.exp(-0.5 * (offsets / sigma_cents) ** 2)
    return k / k.sum()


def gaussian_smooth(field: ScalarField, sigma_cents: float) -> ScalarField:
    """Separable Gaussian convolution of a field along every axis.

    The kernel is truncated at six standard deviations and renormalized to
    unit mass.  Boundary handling is replicate-edge padding: the chord domain
    ends at 0 and 1200 cents without wrapping, and replication avoids
    inventing mass beyond the edges.  Simplex fields are smoothed on their
    symmetric extension (mirrored across note reordering) and restricted
    back, so the diagonal sees its true surroundings.  ``sigma_cents = 0``
    returns the field unchanged.  A kernel reaching further than the longest
    axis is refused: its outer taps would read only the replicated edge.  Each
    pass holds at most two box arrays: its padded lines and their convolution.
    """
    if not 0 <= sigma_cents < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma_cents!r}")
    if sigma_cents == 0:
        return field
    # NaN once six sigma overflows a float
    reach = 6.0 * sigma_cents // field.resolution if field.dims else 0.0
    if not reach <= max(field.counts, default=0):
        raise ValueError(
            f"sigma {sigma_cents:g} cents: the kernel reaches {6.0 * sigma_cents:g} cents, "
            f"beyond the longest axis ({max(field.counts)} cells of {field.resolution} cents)"
        )
    radius = int(reach)
    values = field.values
    if radius > 0:  # a one-tap kernel would still add 0.0, turning -0.0 into 0.0
        dense = field.dense()
        kernel = _kernel(sigma_cents, field.resolution, radius)
        for axis in range(field.dims):
            # Every line along the axis, edge-padded at both ends, laid end to end in
            # one C-ordered array: one "valid" convolution covers them all, and the
            # 2 * radius outputs that straddle two lines are skipped by the strides.
            # Each kept output is the dot product over the same contiguous values
            # as convolving its line alone, so the values do not change.  (np.pad
            # of a transposed view returns F order, which would need a second copy.)
            moved = np.moveaxis(dense, axis, -1)
            lines = np.empty(moved.shape[:-1] + (moved.shape[-1] + 2 * radius,))
            lines[..., radius:-radius] = moved
            lines[..., :radius] = moved[..., :1]  # replicate each line's edges
            lines[..., -radius:] = moved[..., -1:]
            del dense, moved  # the pass's input: the convolution reads only its padded lines
            shape = lines.shape[:-1] + (lines.shape[-1] - 2 * radius,)
            dense = np.convolve(lines.reshape(-1), kernel, mode="valid")
            dense = np.lib.stride_tricks.as_strided(dense, shape, lines.strides, writeable=False)
            dense = np.moveaxis(dense, -1, axis)
            del lines  # so the next pass starts from one box array, its input
        values = dense[tuple(field._index)]
    return field.with_values(
        values,
        meta_updates={"sigma_cents": float(sigma_cents)},
    )
