"""Directional (horizontal) quantities for ordered chord progressions.

The central quantity is the transitive periodicity of ``c1 -> c2``: the
number of periods of the second chord needed to line up with a period
multiple of the first, computed from a joint rational tuning of both chords
over the second chord's root.  Order matters everywhere in this module;
progressions are not symmetric pairs.

A joint tuning assigns one reduced fraction per note of the concatenated
(second, first) coordinate tuple, with the second chord's root pinned to an
exact 1/1.  All per-note detunings stay within the JND and all pairwise
detuning differences across both chords stay within the JND as well.  The
second chord's sub-tuning is additionally required to realize that chord's
own minimal periodicity: the ratio lcm(all)/lcm(second) is only meaningful
relative to the second chord as actually heard, and without this consistency
requirement the minimization could drive the ratio to 1 everywhere by
inflating the second chord's denominators.

Tangent vectors are plain sequences of per-note rates (semitones per unit
time) aligned with a chord's sorted notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .field import ScalarField, _check_box, _integer
from .harmonicity import PeriodicityConfig, _check_octave, _transition, chord_periodicity
from .pitch import CENTS_PER_SEMITONE, Chord, DEFAULT_F0_HZ, freq_from_pitch, normalize, shift

__all__ = [
    "Progression",
    "TransitiveConfig",
    "combined_chord",
    "transitive_periodicity",
    "relative_periodicity_to_first",
    "chan_transitional_harmony",
    "transitive_field",
    "directional_derivative",
]


@dataclass(frozen=True)
class Progression:
    """Ordered pair of chords: ``first`` precedes ``second``."""

    first: Chord
    second: Chord


@dataclass(frozen=True)
class TransitiveConfig:
    jnd_cents: float = PeriodicityConfig.jnd_cents
    qmax: int = PeriodicityConfig.qmax
    scope_cents: float = 200.0

    def __post_init__(self):
        if not 0 <= self.scope_cents < math.inf:
            raise ValueError(f"scope must be nonnegative and finite, got {self.scope_cents!r}")
        object.__setattr__(self, "scope_cents", float(self.scope_cents))
        checked = PeriodicityConfig(jnd_cents=self.jnd_cents, qmax=self.qmax)  # checks jnd and qmax
        object.__setattr__(self, "jnd_cents", checked.jnd_cents)
        object.__setattr__(self, "qmax", checked.qmax)
        object.__setattr__(self, "_periodicity", checked)  # not a field: ==, hash and repr skip it

    def periodicity_config(self) -> PeriodicityConfig:
        """The :class:`PeriodicityConfig` of this JND and qmax, built once per instance."""
        return self._periodicity


def combined_chord(prog: Progression) -> Chord:
    """Set-theoretic union of the two chords, normalized."""
    return normalize(prog.first.notes + prog.second.notes)


def transitive_periodicity(prog: Progression, cfg: TransitiveConfig = TransitiveConfig()) -> int:
    """Periods of the second chord needed to match a period multiple of the first.

    Both chords are shifted so the second chord's lowest note is 0.  Over all
    of the second chord's minimal-periodicity tunings (root pinned to 1/1)
    and all admissible fraction choices for the first chord's notes, subject
    to the joint per-note and pairwise detuning bounds, the result is the
    minimal value of lcm(all denominators) / periodicity(second).

    Self-progressions resolve to 1: the first chord can copy the second
    chord's tuning outright.
    """
    return _transition(prog.first.notes, prog.second.notes, cfg.periodicity_config(), True)[0]


def relative_periodicity_to_first(
    prog: Progression, cfg: TransitiveConfig = TransitiveConfig()
) -> int:
    """Periodicity of the combined chord relative to the *first* chord.

    Mirror image of :func:`transitive_periodicity`: the first chord's
    sub-tuning is pinned to its own minimal lcm (its notes live over the
    second chord's root, so no coordinate is pinned to 1/1 unless the first
    chord contains that root), and the second chord's coordinates extend it.
    """
    return _transition(prog.first.notes, prog.second.notes, cfg.periodicity_config(), False)[0]


def chan_transitional_harmony(
    prog: Progression,
    cfg: TransitiveConfig = TransitiveConfig(),
    f0: float = DEFAULT_F0_HZ,
    coincidence_tol_cents: float | None = None,
) -> float:
    """Normalized spread difference of near-coincident period multiples.

    For each chord, every tone period is multiplied up to the chord period
    implied by its rational-tuning witness; with detuned (e.g. equal
    tempered) tones the multiples no longer coincide exactly and their spread
    measures the mismatch.  The result is (spread_first - spread_second)
    divided by the second chord's period.  By default the multipliers come
    from the tuning witness; with ``coincidence_tol_cents`` the nearest
    integer multiple is used instead whenever it lies within that tolerance
    of the chord period.

    This quantity is deliberately fragile: sub-cent pitch changes move it a
    lot, which is exactly the criticism the regression tests document.
    """
    pcfg = cfg.periodicity_config()

    def spread(chord: Chord) -> tuple[float, float]:
        rooted = shift(chord, chord.root)
        period, tuning = chord_periodicity(rooted, pcfg)
        f_root = freq_from_pitch(chord.root, f0)
        t_sub = period / f_root
        kts = []
        for note, ratio in zip(chord.notes, tuning.ratios):
            fi = freq_from_pitch(note, f0)
            k = period * ratio
            assert k.denominator == 1  # denominators divide the chord period
            k = int(k)
            if coincidence_tol_cents is not None:
                near = round(t_sub * fi)
                if near >= 1 and abs(1200.0 * math.log2(near / (fi * t_sub))) <= coincidence_tol_cents:
                    k = near
            kts.append(k / fi)
        return max(kts) - min(kts), t_sub

    dt_first, _ = spread(prog.first)
    dt_second, t_sub_second = spread(prog.second)
    return (dt_first - dt_second) / t_sub_second


# -- fields over target windows ----------------------------------------------


def transitive_field(
    c1: Chord,
    cfg: TransitiveConfig = TransitiveConfig(),
    resolution: int = 50,
) -> tuple[ScalarField, ScalarField]:
    """Transitive periodicity over a window of target chords around ``c1``.

    Returns the pair (log2 transitive periodicity of ``c1 -> c2``, log2
    periodicity of ``c2``) on the same grid: one axis per note of ``c1``, each
    spanning ``scope`` cents around that note in steps of ``resolution`` cents
    (any positive whole number of cents; it need not divide the octave).  Windows
    must not overlap, so every grid tuple is already sorted.  One search per cell
    fills both panels (see :func:`~chordspace.harmonicity._transition`); a target
    beyond the octave raises after that cell's transition errors.
    """
    if len(c1) > 1:
        min_gap_cents = min(
            (b - a) * CENTS_PER_SEMITONE for a, b in zip(c1.notes, c1.notes[1:])
        )
        if 2 * cfg.scope_cents >= min_gap_cents:
            raise ValueError(
                f"scope {cfg.scope_cents:g} cents makes note windows overlap "
                f"(minimal note gap is {min_gap_cents:g} cents)"
            )
    if (resolution := _integer("resolution", resolution)) <= 0:  # the meta takes a Python int
        raise ValueError("resolution must be a positive number of cents")
    # compared first: float // int overflows on an int past the float range
    k = int(cfg.scope_cents // resolution) if resolution <= cfg.scope_cents else 0
    origins = tuple(p * CENTS_PER_SEMITONE - k * resolution for p in c1.notes)
    counts = (2 * k + 1,) * len(c1)
    _check_box(counts)
    axes = [[(o + resolution * i) / CENTS_PER_SEMITONE for i in range(2 * k + 1)] for o in origins]
    # every target is a chord iff all axes are finite and each lies below the next
    if not all(math.isfinite(x) for a in axes for x in a) or any(
        max(a) >= min(b) for a, b in zip(axes, axes[1:])
    ):
        for target in product(*axes):
            Chord(target)  # raises the first bad target's error
    pcfg = cfg.periodicity_config()
    trans_vals, comp_vals = [], []
    for target in product(*axes):
        ratio, p = _transition(c1.notes, target, pcfg, True)
        _check_octave(tuple(x - target[0] for x in target))
        trans_vals.append(math.log2(ratio))
        comp_vals.append(math.log2(p))
    meta = {
        "domain": "notes",
        "from_chord": list(c1.notes),
        "scope_cents": cfg.scope_cents,
        "resolution_cents": resolution,
        "jnd_cents": cfg.jnd_cents,
        "qmax": cfg.qmax,
        "sigma_cents": 0.0,
        "generator": "transitive",
    }
    names = tuple(f"x{i + 1}" for i in range(len(c1)))
    trans = ScalarField(resolution, origins, counts, False, names, trans_vals,
                        "log2_transitive_periodicity", meta)
    return trans, trans.with_values(comp_vals, "log2_periodicity", {"generator": "periodicity_of_second"})


# -- derivatives --------------------------------------------------------------


def directional_derivative(
    fld: ScalarField,
    at: tuple[float, ...],
    velocity: tuple[float, ...],
    step_cents: float = 4.0,
    normalize_by_speed: bool = False,
) -> float:
    """Central-difference rate of change of a smoothed field along a voice motion.

    ``velocity`` has one rate per chord note (semitones per unit time).  On
    interval-domain fields the root rate is subtracted coordinate-wise, so
    pure transposition gives exactly zero: both stencil points are ``at``.  The
    stencil uses multilinear interpolation and converges at second order in
    ``step_cents`` on smooth fields.  Raw step fields are rejected: their
    derivative is not meaningful, so the field must carry a positive
    smoothing width in its metadata.
    """
    if float(fld.meta.get("sigma_cents", 0.0)) <= 0.0:
        raise ValueError("directional derivatives require a smoothed field (sigma > 0)")
    domain = fld.meta.get("domain", "intervals")
    if domain == "intervals":
        if len(velocity) != fld.dims + 1:
            raise ValueError(
                f"expected {fld.dims + 1} per-note rates, got {len(velocity)}"
            )
        u = [
            CENTS_PER_SEMITONE * (velocity[k + 1] - velocity[0])
            for k in range(fld.dims)
        ]
    else:
        if len(velocity) != fld.dims:
            raise ValueError(f"expected {fld.dims} per-note rates, got {len(velocity)}")
        u = [CENTS_PER_SEMITONE * v for v in velocity]
    if len(at) != fld.dims:  # zip below would cut a longer point short
        raise ValueError(f"expected {fld.dims} coordinates, got {len(at)}")
    if not 0 < step_cents < math.inf:  # an infinite step gives nan or inf coordinates
        raise ValueError(f"step_cents must be {'finite' if step_cents > 0 else 'positive'}")
    s = step_cents / CENTS_PER_SEMITONE
    plus = [c + s * x for c, x in zip(at, u)]
    minus = [c - s * x for c, x in zip(at, u)]
    value = (fld.interpolate(plus) - fld.interpolate(minus)) / (2.0 * s)
    if normalize_by_speed and value:  # a zero velocity has no direction to divide by
        value /= math.sqrt(sum(v * v for v in velocity))
    return value
