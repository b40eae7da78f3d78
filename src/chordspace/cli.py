"""Command-line surface.

Subcommands: ``distance``, ``periodicity``, ``field``, ``resolve`` and
``resolve-field``.  Chords are written as ``[0,4,7]``.  Flags that take a
width or offset accept cents with a ``c`` suffix (``6c``) or plain semitones
(``0.06``); JSON output always reports both units.  Exit codes: 0 success,
2 usage or parse error, 3 infeasible model, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import harmonicity, metric, psychometric, resolve, roughness
from .config import ENV_VAR, Config
from .errors import InfeasibleError
from .field import ScalarField, export_csv, export_matrix
from .pitch import Chord, parse_chord, shift

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def parse_cents(text: str) -> float:
    """Parse a width flag: '6c' means 6 cents, a bare number means semitones."""
    text = text.strip()
    try:
        cents = float(text[:-1]) if text.endswith(("c", "C")) else float(text) * 100.0
    except ValueError:
        cents = math.nan
    if not math.isfinite(cents):
        raise argparse.ArgumentTypeError(
            f"expected finite cents like '6c' or semitones like '0.06', got {text!r}"
        )
    return cents


def _both_units(cents: float) -> dict:
    return {"cents": cents, "semitones": cents / 100.0}


def _chord_arg(text: str) -> Chord:
    try:
        return parse_chord(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _load_config(args) -> Config:
    path = args.config or os.environ.get(ENV_VAR)
    cfg = Config.from_file(path) if path else Config()
    if getattr(args, "jnd", None) is not None:
        cfg.jnd_cents = args.jnd
    if getattr(args, "qmax", None) is not None:
        cfg.qmax = args.qmax
    return cfg


def _write_field(fld: ScalarField, path: Path, cfg: Config, extra: dict) -> dict:
    export_csv(fld, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    sidecar = {
        "file": path.name,
        "sha256": digest,
        "value_name": fld.value_name,
        "axes": list(fld.axis_names),
        "meta": {k: v for k, v in sorted(fld.meta.items())},
        "config": cfg.snapshot(),
    }
    sidecar.update(extra)
    return sidecar


# -- subcommands ---------------------------------------------------------------


def cmd_distance(args) -> int:
    cfg = _load_config(args)
    norm = metric.NormChoice.from_str(args.norm)
    c1, c2 = args.chord1, args.chord2
    per_n = {}
    for n in range(max(len(c1), len(c2)), len(c1) + len(c2) + 1):
        per_n[str(n)] = metric.chord_distance_n(c1, c2, n, norm)
    witness = metric.geodesic_witness(c1, c2)
    _emit(
        {
            "chord1": list(c1.notes),
            "chord2": list(c2.notes),
            "norm": norm.value,
            "d_n": per_n,
            "d": metric.chord_distance(c1, c2, norm),
            "delta": witness.total,
            "witness": witness.as_dict(),
            "config": cfg.snapshot(),
        }
    )
    return EXIT_OK


def cmd_periodicity(args) -> int:
    cfg = _load_config(args)
    chord = args.chord
    if args.shift_to_root:
        chord = shift(chord, chord.root)
    pcfg = cfg.periodicity_config(pairwise=not args.per_note_only)
    p, tuning = harmonicity.chord_periodicity(chord, pcfg)
    payload = {
        "chord": list(chord.notes),
        "periodicity": p,
        "log2_periodicity": math.log2(p),
        "ratios": [str(r) for r in tuning.ratios],
        "detunings": [_both_units(d) for d in tuning.detunings_cents],
        "jnd": _both_units(pcfg.jnd_cents),
        "qmax": pcfg.qmax,
        "pairwise_constraint": pcfg.pairwise_constraint,
        "config": cfg.snapshot(),
    }
    if args.all_rerootings:
        best, per_root = harmonicity.rerooted_periodicity(chord, pcfg)
        payload["rerooted_minimum"] = best
        payload["rerooted_per_root"] = {f"{k:g}": v for k, v in per_root.items()}
    _emit(payload)
    return EXIT_OK


def cmd_field(args) -> int:
    cfg = _load_config(args)
    resolution = args.res if args.res is not None else cfg.resolution_for(args.size)
    if resolution <= 0 or 1200 % resolution != 0:
        print(f"error: resolution {resolution} must be positive and divide 1200", file=sys.stderr)
        return EXIT_USAGE
    sigma = args.sigma if args.sigma is not None else cfg.sigma_cents()
    out = Path(args.out)
    if args.matrix and args.kind != "transitive" and args.size != 3:
        print("error: matrix export is defined for 2-d fields only", file=sys.stderr)
        return EXIT_USAGE

    paths = [out]
    if args.kind == "periodicity":
        panels = [harmonicity.periodicity_field(args.size, resolution, cfg.periodicity_config())]
    elif args.kind == "roughness":
        panels = [
            roughness.roughness_field(args.size, resolution, cfg.spectrum, cfg.f0_hz, cfg.roughness)
        ]
    elif args.kind == "transitive":
        if args.from_chord is None:
            print("error: --from CHORD is required for transitive fields", file=sys.stderr)
            return EXIT_USAGE
        if args.matrix:
            print("error: --matrix applies to periodicity and roughness fields only", file=sys.stderr)
            return EXIT_USAGE
        tcfg = cfg.transitive_config(args.scope)
        panels = resolve.transitive_field(args.from_chord, args.size, tcfg, resolution)
        paths.append(out.with_name(out.stem + "_p2" + out.suffix))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)

    panels = [psychometric.gaussian_smooth(fld, sigma) for fld in panels]
    sidecars = [
        _write_field(fld, path, cfg, {"sigma": _both_units(sigma)})
        for fld, path in zip(panels, paths)
    ]
    if args.matrix:
        export_matrix(panels[0], args.matrix)
        sidecars[0]["matrix_file"] = str(args.matrix)
    sidecar = sidecars[0] if len(sidecars) == 1 else {"panels": sidecars}
    with open(out.with_suffix(out.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
    _emit(sidecar)
    return EXIT_OK


def cmd_resolve(args) -> int:
    cfg = _load_config(args)
    tcfg = cfg.transitive_config(args.scope)
    prog = resolve.Progression(args.chord1, args.chord2)
    second_rooted = shift(args.chord2, args.chord2.root)
    p2, _ = harmonicity.chord_periodicity(second_rooted, cfg.periodicity_config())
    trans = resolve.transitive_periodicity(prog, tcfg)
    _emit(
        {
            "first": list(args.chord1.notes),
            "second": list(args.chord2.notes),
            "transitive": trans,
            "log2_transitive": math.log2(trans),
            "relative_to_first": resolve.relative_periodicity_to_first(prog, tcfg),
            "chan": resolve.chan_transitional_harmony(prog, tcfg, cfg.f0_hz),
            "periodicity_second": p2,
            "jnd": _both_units(cfg.jnd_cents),
            "config": cfg.snapshot(),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordspace",
        description="Voice-leading distances and psychoacoustic fields on chord space.",
    )
    parser.add_argument("--config", help=f"JSON config path (or ${ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="voice-leading distances between two chords")
    p.add_argument("chord1", type=_chord_arg)
    p.add_argument("chord2", type=_chord_arg)
    p.add_argument("--norm", default="manhattan", choices=["manhattan", "euclidean"])
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("periodicity", help="chord periodicity and tuning witness")
    p.add_argument("chord", type=_chord_arg)
    p.add_argument("--jnd", type=parse_cents, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--shift-to-root", action="store_true",
                   help="translate the chord so its lowest note is 0 first")
    p.add_argument("--per-note-only", action="store_true",
                   help="drop the pairwise detuning bound")
    p.add_argument("--all-rerootings", action="store_true",
                   help="also report the minimum over every re-rooting")
    p.set_defaults(fn=cmd_periodicity)

    p = sub.add_parser("field", help="write a grid field as CSV (plus JSON sidecar)")
    p.add_argument("kind", choices=["periodicity", "roughness", "transitive"])
    p.add_argument("size", type=int, help="number of chord notes")
    p.add_argument("--res", type=int, default=None, help="grid resolution in cents")
    p.add_argument("--sigma", type=parse_cents, default=None,
                   help="smoothing width, e.g. 6c (0 for the raw step field)")
    p.add_argument("--jnd", type=parse_cents, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--from", dest="from_chord", type=_chord_arg, default=None,
                   help="starting chord for transitive fields")
    p.add_argument("--scope", type=parse_cents, default=None,
                   help="half-width of each note window for transitive fields")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--matrix", default=None,
                   help="also write a dense whitespace matrix (2-d fields)")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("resolve", help="transition quantities for an ordered pair")
    p.add_argument("chord1", type=_chord_arg)
    p.add_argument("chord2", type=_chord_arg)
    p.add_argument("--jnd", type=parse_cents, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--scope", type=parse_cents, default=None)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser(
        "resolve-field",
        help="transitive-periodicity window field plus companion periodicity field",
    )
    p.add_argument("from_chord", type=_chord_arg, metavar="chord")
    p.add_argument("size", type=int)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--sigma", type=parse_cents, default=None)
    p.add_argument("--jnd", type=parse_cents, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--scope", type=parse_cents, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_field, kind="transitive", matrix=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - report and exit 4 per contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
