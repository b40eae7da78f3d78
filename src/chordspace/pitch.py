"""Pitch/frequency conversion and chord normalization.

Pitches are real numbers in semitones relative to C4 (one semitone = 100
cents).  A chord is the canonical representative of an unordered pitch set:
strictly increasing, exact duplicates removed.  Tolerance-based identification
is never part of chord equality; the JND window lives in the tuning search.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

#: Default reference frequency in Hz; its pitch is 0 (middle C).
DEFAULT_F0_HZ = 261.626

CENTS_PER_SEMITONE = 100.0


def pitch_from_freq(f: float, f0: float = DEFAULT_F0_HZ) -> float:
    """Pitch in semitones of frequency ``f`` relative to the reference ``f0``."""
    if not (f > 0 and math.isfinite(f)):
        raise ValueError(f"frequency must be positive and finite, got {f!r}")
    if not (f0 > 0 and math.isfinite(f0)):
        raise ValueError(f"reference frequency must be positive and finite, got {f0!r}")
    return 12.0 * math.log2(f / f0)


def freq_from_pitch(p: float, f0: float = DEFAULT_F0_HZ) -> float:
    """Frequency in Hz of pitch ``p``; inverse of :func:`pitch_from_freq`."""
    if not (f0 > 0 and math.isfinite(f0)):
        raise ValueError(f"reference frequency must be positive and finite, got {f0!r}")
    if not math.isfinite(p):
        raise ValueError(f"pitch must be finite, got {p!r}")
    f = f0 * 2.0 ** (p / 12.0) if p / 12.0 < 1024 else 0.0  # 2.0 ** 1024 overflows
    if f == 0.0:  # the power overflows, or the frequency underflows
        raise ValueError(f"pitch {p!r} has no positive float frequency")
    return f


@dataclass(frozen=True)
class Chord:
    """Canonical pitch set: strictly increasing tuple of finite pitches, n >= 1.

    The notes are kept as Python floats, whatever numpy scalars they were given:
    a float32 note would make float32 arithmetic downstream and share cache keys
    with its float64 equal.  Equality is exact and per coordinate.  Build from
    unnormalized input with :func:`normalize`.
    """

    notes: tuple[float, ...]

    def __post_init__(self):
        if len(self.notes) == 0:
            raise ValueError("a chord needs at least one note")
        for p in self.notes:
            if not math.isfinite(p):
                raise ValueError(f"chord notes must be finite, got {p!r}")
        object.__setattr__(self, "notes", tuple(map(float, self.notes)))
        for a, b in zip(self.notes, self.notes[1:]):
            if not a < b:
                raise ValueError(
                    f"chord notes must be strictly increasing, got {self.notes}"
                )

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self) -> Iterator[float]:
        return iter(self.notes)

    def __getitem__(self, i) -> float:
        return self.notes[i]

    @property
    def root(self) -> float:
        return self.notes[0]

    def __str__(self) -> str:
        return format_chord(self)


def normalize(notes: Iterable[float]) -> Chord:
    """Sort ascending and collapse exact duplicates.  Idempotent."""
    pitches = tuple(float(p) for p in notes)
    if not pitches:
        raise ValueError("cannot normalize an empty pitch collection")
    return Chord(tuple(sorted(set(pitches))))


def shift(c: Chord, p: float) -> Chord:
    """Translate every note of ``c`` down by ``p`` semitones."""
    return Chord(tuple(x - p for x in c.notes))


_CHORD_RE = re.compile(r"^\s*\[?\s*(.*?)\s*\]?\s*$", re.S)


def parse_chord(text: str) -> Chord:
    """Parse a chord from its text form, e.g. ``[0,4,7]``."""
    m = _CHORD_RE.match(text)
    body = m.group(1) if m else ""
    if not body:
        raise ValueError(f"cannot parse chord from {text!r}")
    try:
        values = [float(part) for part in body.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse chord from {text!r}") from None
    return normalize(values)


def format_chord(c: Chord) -> str:
    """Text form of a chord: comma-separated reals in brackets."""
    return "[" + ",".join(f"{p:g}" for p in c.notes) + "]"
