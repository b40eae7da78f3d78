"""Run configuration shared by the command-line surface.

Configs load from a JSON file (path given on the command line or through the
``CHORDSPACE_CONFIG`` environment variable); every output embeds the full
snapshot so results stay reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

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


def _integer(key: str, value) -> int:
    if not _number(key, value).is_integer():
        raise ValueError(f"config {key} must be an integer, got {value!r}")
    return int(value)


@dataclass
class Config:
    f0_hz: float = DEFAULT_F0_HZ
    jnd_cents: float = PeriodicityConfig.jnd_cents
    sigma_mode: str = "third"  # "third": jnd/3; "iqr": jnd/0.674490
    qmax: int = PeriodicityConfig.qmax
    resolutions: dict[int, int] = field(default_factory=lambda: dict(_DEFAULT_RESOLUTIONS))
    spectrum: Spectrum = field(default_factory=harmonic_spectrum)
    roughness: RoughnessParams = field(default_factory=RoughnessParams)
    scope_cents: float = TransitiveConfig.scope_cents

    def __post_init__(self):
        if self.sigma_mode not in ("third", "iqr"):
            raise ValueError(f"sigma_mode must be 'third' or 'iqr', got {self.sigma_mode!r}")
        if not (self.f0_hz > 0 and math.isfinite(self.f0_hz)):
            raise ValueError(f"f0_hz must be positive, got {self.f0_hz!r}")
        self.periodicity_config()  # validate jnd/qmax eagerly

    def sigma_cents(self) -> float:
        if self.sigma_mode == "third":
            return self.jnd_cents / 3.0
        return sigma_from_jnd(self.jnd_cents)

    def resolution_for(self, n: int) -> int:
        return int(self.resolutions.get(n, _DEFAULT_RESOLUTIONS.get(n, 50)))

    def periodicity_config(self, pairwise: bool = True) -> PeriodicityConfig:
        return PeriodicityConfig(
            jnd_cents=self.jnd_cents, qmax=self.qmax, pairwise_constraint=pairwise
        )

    def transitive_config(self, scope_cents: float | None = None) -> TransitiveConfig:
        return TransitiveConfig(
            jnd_cents=self.jnd_cents,
            qmax=self.qmax,
            scope_cents=self.scope_cents if scope_cents is None else scope_cents,
        )

    def snapshot(self) -> dict:
        """JSON-ready dict embedded in every artifact."""
        return {
            "f0_hz": self.f0_hz,
            "jnd_cents": self.jnd_cents,
            "sigma_mode": self.sigma_mode,
            "sigma_cents": self.sigma_cents(),
            "qmax": self.qmax,
            "resolutions": {str(k): v for k, v in sorted(self.resolutions.items())},
            "spectrum": [[r, a] for r, a in self.spectrum.partials],
            "roughness": asdict(self.roughness),
            "scope_cents": self.scope_cents,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """Config from parsed JSON; a value of the wrong JSON type raises ValueError."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        checks = {"f0_hz": _number, "jnd_cents": _number, "qmax": _integer, "scope_cents": _number}
        kwargs = {key: check(key, data[key]) for key, check in checks.items() if key in data}
        if "sigma_mode" in data:  # any value but the two mode names fails validation
            kwargs["sigma_mode"] = data["sigma_mode"]
        if "resolutions" in data:
            kwargs["resolutions"] = {
                int(k): _integer(f"resolutions.{k}", v)
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
