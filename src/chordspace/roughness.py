"""Sensory roughness of complex tones from partial interference.

Each unordered pair of partials contributes a difference-of-exponentials
roughness term in the frequency gap, scaled to the critical bandwidth around
the lower partial.  The curve constants are the published Plomp-Levelt fit
used by the standard dissonance-curve literature; they are plain data here so
alternative fits can be swapped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField, make_simplex_field, simplex_cells
from .pitch import Chord, DEFAULT_F0_HZ, cell_chord, freq_from_pitch

__all__ = [
    "Spectrum",
    "RoughnessParams",
    "harmonic_spectrum",
    "pair_roughness",
    "chord_roughness",
    "roughness_field",
]


@dataclass(frozen=True)
class Spectrum:
    """Timbre as (frequency ratio, linear amplitude) partials, ratios ascending."""

    partials: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.partials:
            raise ValueError("a spectrum needs at least one partial")
        last = 0.0
        for ratio, amp in self.partials:
            if ratio < 1.0 or ratio <= last:
                raise ValueError("partial ratios must be strictly increasing and >= 1")
            if amp <= 0:
                raise ValueError("partial amplitudes must be positive")
            last = ratio


def harmonic_spectrum(n_partials: int = 6, amplitude_decay: float = 0.88) -> Spectrum:
    """Harmonic overtones 1..n with geometrically decaying amplitudes."""
    if n_partials < 1:
        raise ValueError("need at least one partial")
    return Spectrum(
        tuple((float(k), amplitude_decay ** (k - 1)) for k in range(1, n_partials + 1))
    )


PURE_SINE = Spectrum(((1.0, 1.0),))


@dataclass(frozen=True)
class RoughnessParams:
    """Pairwise dissonance-curve constants.

    ``slow_decay``/``fast_decay`` are the two exponential rates whose
    difference forms the unimodal curve; ``peak_fraction`` with the critical
    bandwidth model ``bandwidth_slope * f + bandwidth_offset_hz`` places the
    curve's peak near a quarter of a critical bandwidth above the lower
    partial.  ``scale`` is an overall amplitude factor.
    """

    slow_decay: float = 3.51
    fast_decay: float = 5.75
    peak_fraction: float = 0.24
    bandwidth_slope: float = 0.0207
    bandwidth_offset_hz: float = 18.96
    scale: float = 5.0

    def __post_init__(self):
        for name in ("slow_decay", "fast_decay", "peak_fraction",
                     "bandwidth_slope", "bandwidth_offset_hz", "scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fast_decay <= self.slow_decay:
            raise ValueError("fast_decay must exceed slow_decay for a unimodal curve")


def pair_roughness(
    f1: float,
    f2: float,
    a1: float = 1.0,
    a2: float = 1.0,
    params: RoughnessParams = RoughnessParams(),
) -> float:
    """Roughness contributed by two sine partials.

    Amplitude weighting is the product a1*a2, so chord roughness scales
    quadratically under uniform amplitude scaling.  Zero at zero gap, decaying
    to zero for wide separation.
    """
    if f1 <= 0 or f2 <= 0:
        raise ValueError("partial frequencies must be positive")
    fmin = min(f1, f2)
    gap = abs(f2 - f1)
    s = params.peak_fraction / (params.bandwidth_slope * fmin + params.bandwidth_offset_hz)
    x = s * gap
    amp = a1 * a2  # grouped so the argument order cannot perturb the result
    return params.scale * amp * (math.exp(-params.slow_decay * x) - math.exp(-params.fast_decay * x))


def chord_roughness(
    c: Chord,
    spectrum: Spectrum = harmonic_spectrum(),
    f0: float = DEFAULT_F0_HZ,
    params: RoughnessParams = RoughnessParams(),
) -> float:
    """Sum of pair roughness over all partials of all notes.

    Intra-note pairs are included; for a fixed spectrum they contribute a
    near-constant baseline per note.
    """
    freqs = []
    amps = []
    for p in c.notes:
        base = freq_from_pitch(p, f0)
        for ratio, amp in spectrum.partials:
            freqs.append(base * ratio)
            amps.append(amp)
    f = np.asarray(freqs)
    a = np.asarray(amps)
    order = np.argsort(f, kind="stable")
    f = f[order]
    a = a[order]
    i, j = np.triu_indices(len(f), k=1)
    fmin = f[i]
    gap = f[j] - f[i]
    s = params.peak_fraction / (params.bandwidth_slope * fmin + params.bandwidth_offset_hz)
    x = s * gap
    terms = params.scale * a[i] * a[j] * (
        np.exp(-params.slow_decay * x) - np.exp(-params.fast_decay * x)
    )
    return float(terms.sum())


def roughness_field(
    n: int,
    resolution: int,
    spectrum: Spectrum = harmonic_spectrum(),
    f0: float = DEFAULT_F0_HZ,
    params: RoughnessParams = RoughnessParams(),
) -> ScalarField:
    """Chord roughness over the one-octave grid (same convention as periodicity)."""
    if n not in (2, 3):
        raise ValueError(f"roughness fields support 2 or 3 notes, got {n}")
    cells = simplex_cells(n - 1, resolution)
    values = [chord_roughness(cell_chord(coords), spectrum, f0, params) for coords in cells]
    meta = {
        "generator": "roughness",
        "domain": "intervals",
        "resolution_cents": resolution,
        "f0_hz": f0,
        "spectrum": [[r, a] for r, a in spectrum.partials],
        "params": {
            "slow_decay": params.slow_decay,
            "fast_decay": params.fast_decay,
            "peak_fraction": params.peak_fraction,
            "bandwidth_slope": params.bandwidth_slope,
            "bandwidth_offset_hz": params.bandwidth_offset_hz,
            "scale": params.scale,
        },
        "sigma_cents": 0.0,
    }
    return make_simplex_field(n - 1, resolution, values, "roughness", meta)
