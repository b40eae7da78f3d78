"""Command-line surface.

Subcommands: ``distance``, ``periodicity``, ``field``, ``resolve`` and
``resolve-field``.  Chords are written as ``[0,4,7]``.  Flags that take a
width or offset accept cents with a ``c`` suffix (``6c``) or plain semitones
(``0.06``); JSON output always reports both units.  Exit codes: 0 success,
2 usage or parse error, 3 infeasible model, 4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
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
    """The config file (or the defaults) with the given --jnd, --qmax and --scope laid over it."""
    path = args.config or os.environ.get(ENV_VAR)
    cfg = Config.from_file(path) if path else Config()
    flags = {"jnd_cents": "jnd", "qmax": "qmax", "scope_cents": "scope"}
    given = {key: getattr(args, flag, None) for key, flag in flags.items()}
    return replace(cfg, **{key: value for key, value in given.items() if value is not None})


def _sha256(path: Path) -> str:
    """SHA-256 of a file, read in blocks so a large field is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextlib.contextmanager
def _all_or_none():
    """Yield ``stage``: ``stage(path)`` names a temporary file beside ``path``, which
    replaces ``path`` when the block ends.  If the block raises, none does, all are
    removed, and an ``OSError`` names the path instead of its temporary file.  A
    ``path`` that is a directory raises ``IsADirectoryError`` in ``stage``: replacing
    it would fail only after the outputs before it had replaced theirs."""
    staged = {}  # temporary file -> the path it replaces

    def stage(path) -> str:
        path = os.fspath(path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        tmp = f"{path}.{os.getpid()}.tmp"
        staged[tmp] = path
        return tmp

    try:
        try:
            yield stage
        except OSError as exc:
            exc.filename = staged.get(exc.filename, exc.filename)
            raise
        for tmp, path in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            Path(tmp).unlink(missing_ok=True)


def _write_field(fld: ScalarField, path: Path, staged: str, cfg: Config, sigma: float) -> dict:
    export_csv(fld, staged)  # the sidecar names the path the staged file replaces
    return {
        "file": path.name,
        "sha256": _sha256(staged),
        "value_name": fld.value_name,
        "axes": list(fld.axis_names),
        "meta": dict(fld.meta),
        "config": cfg.snapshot(),
        "sigma": _both_units(sigma),
    }


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
    size = len(args.from_chord) if args.kind == "transitive" else args.size
    resolution = args.res if args.res is not None else cfg.resolution_for(size)
    sigma = args.sigma if args.sigma is not None else cfg.sigma_cents()
    out = Path(args.out)
    sidecar_path = out.with_suffix(out.suffix + ".json")
    if args.matrix and args.size != 3:
        raise ValueError("matrix export is defined for 2-d fields only")
    if args.matrix and os.path.realpath(args.matrix) in map(os.path.realpath, (out, sidecar_path)):
        raise ValueError(f"--matrix {args.matrix} would overwrite the field CSV or its sidecar")

    paths = [out]
    if args.kind == "periodicity":
        panels = [harmonicity.periodicity_field(size, resolution, cfg.periodicity_config())]
    elif args.kind == "roughness":
        panels = [
            roughness.roughness_field(size, resolution, cfg.spectrum, cfg.f0_hz, cfg.roughness)
        ]
    else:  # resolve-field: a window around its chord, one axis per note
        panels = resolve.transitive_field(args.from_chord, cfg.transitive_config(), resolution)
        paths.append(out.with_name(out.stem + "_p2" + out.suffix))

    panels = [psychometric.gaussian_smooth(fld, sigma) for fld in panels]
    with _all_or_none() as stage:  # a run that fails leaves no file
        sidecars = [_write_field(fld, p, stage(p), cfg, sigma) for fld, p in zip(panels, paths)]
        if args.matrix:
            export_matrix(panels[0], stage(args.matrix))
            sidecars[0]["matrix_file"] = str(args.matrix)
        sidecar = sidecars[0] if len(sidecars) == 1 else {"panels": sidecars}
        with open(stage(sidecar_path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=2)
    _emit(sidecar)
    return EXIT_OK


def cmd_resolve(args) -> int:
    cfg = _load_config(args)
    tcfg = cfg.transitive_config()
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
    # options shared by several subcommands, each declared once
    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument("--jnd", type=parse_cents)
    tuning.add_argument("--qmax", type=int)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--res", type=int, help="grid step in cents (for field, a divisor of 1200)")
    grid.add_argument("--sigma", type=parse_cents,
                      help="smoothing width, e.g. 6c (0 for the raw step field)")
    grid.add_argument("--out", required=True, help="output CSV path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="voice-leading distances between two chords")
    p.add_argument("chord1", type=_chord_arg)
    p.add_argument("chord2", type=_chord_arg)
    p.add_argument("--norm", default="manhattan", choices=["manhattan", "euclidean"])
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("periodicity", parents=[tuning], help="chord periodicity and tuning witness")
    p.add_argument("chord", type=_chord_arg)
    p.add_argument("--shift-to-root", action="store_true",
                   help="translate the chord so its lowest note is 0 first")
    p.add_argument("--per-note-only", action="store_true",
                   help="drop the pairwise detuning bound")
    p.add_argument("--all-rerootings", action="store_true",
                   help="also report the minimum over every re-rooting")
    p.set_defaults(fn=cmd_periodicity)

    p = sub.add_parser("field", parents=[grid, tuning],
                       help="write a one-octave grid field as CSV (plus JSON sidecar)")
    p.add_argument("kind", choices=["periodicity", "roughness"])
    p.add_argument("size", type=int, help="number of chord notes")
    p.add_argument("--matrix", help="also write a dense whitespace matrix (2-d fields)")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("resolve", parents=[tuning],
                       help="transition quantities for an ordered pair")
    p.add_argument("chord1", type=_chord_arg)
    p.add_argument("chord2", type=_chord_arg)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("resolve-field", parents=[grid, tuning],
                       help="transitive-periodicity window around a chord plus its companion field")
    p.add_argument("from_chord", type=_chord_arg, metavar="chord")
    p.add_argument("--scope", type=parse_cents, help="half-width of each note window")
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
