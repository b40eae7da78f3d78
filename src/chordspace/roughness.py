"""Sensory roughness of complex tones from partial interference.

Each unordered pair of partials contributes a difference-of-exponentials
roughness term in the frequency gap, scaled to the critical bandwidth around
the lower partial.  The curve constants are the published Plomp-Levelt fit
used by the standard dissonance-curve literature; they are plain data here so
alternative fits can be swapped in.

One batch kernel evaluates every chord, a ``(chords, k)`` array of indices
into a table of notes, distinct and ascending along each row, at a time:
:func:`chord_roughness` is a batch of one over its own notes, and
:func:`roughness_field` batches the interval grid's cells by their count of
distinct notes in chunks of about 40,000 partial pairs, which bounds memory.
The values equal summing one chord at a time bit for bit: frequencies come
from ``freq_from_pitch`` once per table note, partials are laid out
note-major and stably sorted per row, and each row's terms are summed
contiguously.
Partial frequencies or roughness values that overflow a float raise
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .field import ScalarField, interval_grid, make_simplex_field
from .pitch import Chord, DEFAULT_F0_HZ, freq_from_pitch

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
            if not (math.isfinite(ratio) and math.isfinite(amp)):
                raise ValueError("partial ratios and amplitudes must be finite")
            if ratio < 1.0 or ratio <= last:
                raise ValueError("partial ratios must be strictly increasing and >= 1")
            if amp <= 0:
                raise ValueError("partial amplitudes must be positive")
            last = ratio
        # json cannot dump a numpy float32
        object.__setattr__(self, "partials", tuple((float(r), float(a)) for r, a in self.partials))


def harmonic_spectrum(n_partials: int = 6, amplitude_decay: float = 0.88) -> Spectrum:
    """Harmonic overtones 1..n with geometrically decaying amplitudes."""
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")
            object.__setattr__(self, f.name, float(value))  # json cannot dump a numpy float32
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
    near-constant baseline per note.  This is the batch kernel applied to a
    one-chord batch, so a chord and its grid cell get the same value.
    """
    return float(_roughness_rows(np.arange(len(c))[None], c.notes, spectrum, f0, params)[0])


#: Partial pairs per batch (256 cells of a triad with six partials, 153 pairs each), and
#: per chord at most: a batch of one chord holds three float arrays of all its pairs.
_CHUNK_PAIRS, _MAX_CHORD_PAIRS = 256 * 153, 2**24


def _roughness_rows(
    where: np.ndarray,
    notes: Sequence[float],
    spectrum: Spectrum,
    f0: float,
    params: RoughnessParams,
) -> np.ndarray:
    """Roughness of each row of ``where``: indices into ``notes`` (Python
    floats) of distinct ascending pitches; the module's one summation path.

    Each row's partials are stably sorted by frequency, then held
    partial-major, one C-order ``(K, rows)`` array each for frequency and
    amplitude, so gathering the ``np.triu_indices`` pairs copies whole
    contiguous rows.  The bandwidth factor and ``scale * amplitude`` are
    computed once per partial.  Each row's terms are copied back to C order
    and summed as numpy's pairwise sum of that chord's terms.  The pair
    arrays of every chunk live in three buffers allocated once per call, and
    a chunk of fewer rows uses their leading parts.
    """
    rows, k = where.shape
    n_pairs = k * len(spectrum.partials) * (k * len(spectrum.partials) - 1) // 2
    if n_pairs > _MAX_CHORD_PAIRS:
        raise ValueError(
            f"{len(spectrum.partials)} partials on {k} note(s) make {n_pairs} partial pairs "
            f"in one chord, above the bound of {_MAX_CHORD_PAIRS}"
        )
    ratios, amps = np.array(spectrum.partials).T
    a = np.tile(amps, k)
    i, j = np.triu_indices(k * len(ratios), k=1)
    step = max(1, min(rows, _CHUNK_PAIRS // max(1, len(i))))
    # three (pairs, step) work buffers, the last one reused as the (step, pairs) transpose;
    # a chunk of c rows works on the contiguous first pairs * c items of each
    work = np.empty((3, len(i) * step))
    out = np.empty(rows)
    # overflow is reported as a ValueError below, not as a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        # Python's ``**`` once per note, not np.power, which rounds differently
        table = np.array([freq_from_pitch(p, f0) for p in notes])[:, None] * ratios
        if not np.isfinite(table).all():
            raise ValueError(
                "partial frequencies overflow a float: lower f0_hz or the spectrum ratios"
            )
        for lo in range(0, rows, step):
            f = table[where[lo:lo + step]].reshape(-1, k * len(ratios))
            c = len(f)
            x, beat, y = (w[:len(i) * c].reshape(len(i), c) for w in work)
            order = np.argsort(f, axis=1, kind="stable")
            f = np.ascontiguousarray(np.take_along_axis(f, order, axis=1).T)
            fa = np.ascontiguousarray(a[order].T)
            s = params.peak_fraction / (params.bandwidth_slope * f + params.bandwidth_offset_hz)
            sa = params.scale * fa
            # mode="clip" gathers into the buffer itself (the default gathers into a copy);
            # i and j are in range
            np.subtract(np.take(f, j, 0, x, "clip"), np.take(f, i, 0, y, "clip"), out=x)
            x *= np.take(s, i, 0, y, "clip")
            np.exp(np.multiply(x, -params.slow_decay, out=beat), out=beat)
            x *= -params.fast_decay
            beat -= np.exp(x, out=x)
            terms = np.multiply(np.take(sa, i, 0, x, "clip"), np.take(fa, j, 0, y, "clip"), out=x)
            terms *= beat
            # one C-order copy, so each row's terms are contiguous and sum pairwise
            t = y.reshape(c, len(i))
            np.copyto(t, terms.T)
            t.sum(axis=1, out=out[lo:lo + c])
    if not np.isfinite(out).all():
        raise ValueError(
            "roughness overflows a float: the spectrum amplitudes or curve constants are too large"
        )
    return out


def roughness_field(
    n: int,
    resolution: int,
    spectrum: Spectrum = harmonic_spectrum(),
    f0: float = DEFAULT_F0_HZ,
    params: RoughnessParams = RoughnessParams(),
) -> ScalarField:
    """Chord roughness over the one-octave grid (same convention as periodicity)."""
    notes, rows = interval_grid(n, resolution)
    distinct = np.ones(rows.shape, bool)  # indices ascend along each row
    np.not_equal(rows[:, 1:], rows[:, :-1], out=distinct[:, 1:])
    sizes = distinct.sum(axis=1, dtype=np.uint8)
    values = np.empty(len(rows))
    for k in np.unique(sizes).tolist():  # one batch per count of distinct notes
        sel = sizes == k
        values[sel] = _roughness_rows(
            rows[distinct & sel[:, None]].reshape(-1, k), notes.tolist(), spectrum, f0, params
        )
    meta = {
        "generator": "roughness",
        "f0_hz": float(f0),  # json cannot dump a numpy float32
        "spectrum": [[r, a] for r, a in spectrum.partials],
        "params": asdict(params),
    }
    return make_simplex_field(n - 1, resolution, values, "roughness", meta)
