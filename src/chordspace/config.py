"""Run configuration shared by the command-line surface.

Configs load from a JSON file (path given on the command line or through the
``CHORDSPACE_CONFIG`` environment variable); every output embeds the full
snapshot so results stay reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from operator import index

from .harmonicity import PeriodicityConfig
from .pitch import DEFAULT_F0_HZ
from .psychometric import sigma_from_jnd
from .resolve import TransitiveConfig
from .roughness import RoughnessParams, Spectrum, harmonic_spectrum

ENV_VAR = "CHORDSPACE_CONFIG"

_DEFAULT_RESOLUTIONS = {2: 1, 3: 10, 4: 50}


def _typed(key: str, value, kind, name: str):
    """``value`` if it has the JSON type ``kind`` (a bool is no number), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"config {key} must be {name}, got {value!r}")
    return value


def _number(key: str, value) -> float:
    try:
        return float(_typed(key, value, (int, float), "a number"))
    except OverflowError:
        raise ValueError(f"config {key} is out of range: {value!r}") from None


def _whole(key: str, value) -> int:
    """A JSON number without fraction, ``100.0`` too, as an int (field._integer refuses floats)."""
    if not _number(key, value).is_integer():
        raise ValueError(f"config {key} must be an integer, got {value!r}")
    return int(value)


def _size(key: str) -> int:
    """A ``resolutions`` key (a chord size, which JSON writes as a string)."""
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"config resolutions keys must be integers, got {key!r}") from None


@dataclass(frozen=True)
class Config:
    f0_hz: float = DEFAULT_F0_HZ
    jnd_cents: float = PeriodicityConfig.jnd_cents
    sigma_mode: str = "third"  # "third": jnd/3; "iqr": jnd/0.674490
    qmax: int = PeriodicityConfig.qmax
    # given as a mapping (or pairs) of chord size to resolution; kept as sorted pairs
    resolutions: tuple[tuple[int, int], ...] = tuple(sorted(_DEFAULT_RESOLUTIONS.items()))
    spectrum: Spectrum = field(default_factory=harmonic_spectrum)
    roughness: RoughnessParams = field(default_factory=RoughnessParams)
    scope_cents: float = TransitiveConfig.scope_cents

    def __post_init__(self):
        if self.sigma_mode not in ("third", "iqr"):
            raise ValueError(f"sigma_mode must be 'third' or 'iqr', got {self.sigma_mode!r}")
        if not (self.f0_hz > 0 and math.isfinite(self.f0_hz)):
            raise ValueError(f"f0_hz must be positive, got {self.f0_hz!r}")
        object.__setattr__(self, "f0_hz", float(self.f0_hz))  # json cannot dump a numpy float32
        try:
            pairs = sorted((index(k), index(v)) for k, v in dict(self.resolutions).items())
        except TypeError:
            raise ValueError(f"resolutions must be integers, got {self.resolutions!r}") from None
        object.__setattr__(self, "resolutions", tuple(pairs))
        # jnd and qmax first: a bad one is named even beside a bad scope
        checked = self.periodicity_config()
        object.__setattr__(self, "jnd_cents", checked.jnd_cents)
        object.__setattr__(self, "qmax", checked.qmax)
        object.__setattr__(self, "scope_cents", self.transitive_config().scope_cents)

    def sigma_cents(self) -> float:
        if self.sigma_mode == "third":
            return self.jnd_cents / 3.0
        return sigma_from_jnd(self.jnd_cents)

    def resolution_for(self, n: int) -> int:
        return dict(self.resolutions).get(n, _DEFAULT_RESOLUTIONS.get(n, 50))

    def periodicity_config(self, pairwise: bool = True) -> PeriodicityConfig:
        return PeriodicityConfig(self.jnd_cents, self.qmax, pairwise)

    def transitive_config(self) -> TransitiveConfig:
        return TransitiveConfig(self.jnd_cents, self.qmax, self.scope_cents)

    def snapshot(self) -> dict:
        """JSON-ready dict embedded in every artifact: every field, plus ``sigma_cents``."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "sigma_cents": self.sigma_cents(),
            "resolutions": {str(k): v for k, v in self.resolutions},
            "spectrum": [[r, a] for r, a in self.spectrum.partials],
            "roughness": asdict(self.roughness),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """Config from parsed JSON; a value of the wrong JSON type raises ValueError."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        checks = {"f0_hz": _number, "jnd_cents": _number, "qmax": _whole, "scope_cents": _number}
        kwargs = {key: check(key, data[key]) for key, check in checks.items() if key in data}
        if "sigma_mode" in data:  # any value but the two mode names fails validation
            kwargs["sigma_mode"] = data["sigma_mode"]
        if "resolutions" in data:
            kwargs["resolutions"] = {
                _size(k): _whole(f"resolutions.{k}", v)
                for k, v in _typed("resolutions", data["resolutions"], dict, "an object").items()
            }
        if "spectrum" in data:
            rows = _typed("spectrum", data["spectrum"], list, "a list")
            if not all(isinstance(row, list) and len(row) == 2 for row in rows):
                raise ValueError(f"config spectrum rows must be [ratio, amplitude], got {rows!r}")
            kwargs["spectrum"] = Spectrum(tuple(
                (_number("spectrum ratio", r), _number("spectrum amplitude", a)) for r, a in rows
            ))
        if "roughness" in data:
            given = _typed("roughness", data["roughness"], dict, "an object")
            unknown = set(given) - {f.name for f in fields(RoughnessParams)}
            if unknown:
                raise ValueError(f"unknown roughness keys: {sorted(unknown)}")
            kwargs["roughness"] = RoughnessParams(
                **{k: _number(f"roughness.{k}", v) for k, v in given.items()}
            )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from None
        return cls.from_dict(_typed(f"file {path}", data, dict, "a JSON object"))
