"""Record the reference outputs that the benchmark checks against.

Run from the root of a chordspace checkout whose outputs are trusted::

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: the SHA-256 of the triad-field CSV,
the roughness-analysis outputs (CSV digest, local minima, a digest per
slice of the slice pool, a value per point of the derivative pool) and the
five query outcomes of every pair in the progression pool.  Floats are
stored rounded to 9 decimals; the benchmark compares them within 1e-8.

Where ``chord_periodicity`` raises anything but ``InfeasibleError`` (a
chord that spans exactly one octave can shift to a top note just above 12
semitones and be rejected), the reference is its value on the rooted chord
with every note rounded to the 1-cent lattice, so that a fixed library
matches it; any other call that raises has no reference and stops the
recording.  Every dyad -> dyad pair is also checked against the
brute-force oracles in ``tests/oracles.py``.  Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import bootstrap

bootstrap()

import workloads as wl  # noqa: E402
from chordspace import Chord, shift  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _rounded(value):
    return round(value, 9) if isinstance(value, float) else value


def _on_lattice(chord: Chord) -> Chord:
    return Chord(tuple(round(p, 2) for p in chord.notes))


def record_progressions() -> list:
    tracer = NullTracer()
    rows, dyads = [], []
    for i in range(wl.PROGRESSION_POOL):
        first, second = (wl.to_chord(c) for c in wl.progression_cents(i))
        result = wl.progression_query(first, second, tracer, i)
        if isinstance(result[0], dict):
            rooted = shift(second, second.root)
            print(f"pool {i}: {first} -> {second}: {result[0]['error']}; "
                  "recording the value of the rooted chord on the 1-cent lattice",
                  file=sys.stderr)
            result[0] = wl.attempt(tracer, "", i, wl.periodicity, _on_lattice(rooted))
        if any(isinstance(r, dict) for r in result):
            raise RuntimeError(f"pool {i}: no reference value: {result}")
        rows.append([_rounded(r) for r in result])
        if len(first) == 2 and len(second) == 2:
            dyads.append((i, first, second, result))
    bad, problems = wl.oracle_problems(dyads, 0, len(dyads))
    for line in problems:
        print(f"oracle disagreement: {line}", file=sys.stderr)
    print(f"{len(dyads)} dyad pairs checked against the oracles, {len(bad)} disagree",
          file=sys.stderr)
    return rows


def record_roughness(workdir: Path) -> dict:
    inputs = {
        "slices": [(i, wl.slice_spec(i)) for i in range(wl.SLICE_POOL)],
        "derivatives": [(i, wl.derivative_spec(i)) for i in range(wl.DERIVATIVE_POOL)],
    }
    out = wl.roughness_pipeline(inputs, NullTracer(), workdir)
    csv_bytes = out["csv"].read_bytes()
    if out["reexport"].read_bytes() != csv_bytes:
        raise RuntimeError("import_csv -> export_csv does not reproduce the CSV")
    return {
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "minima": wl.minima_record(out["minima"]),
        "slices": [wl.values_digest(f.values) for f in out["slices"]],
        "derivatives": [_rounded(float(d)) for d in out["derivatives"]],
    }


def record_triad(workdir: Path) -> dict:
    in_process = workdir / "in_process.csv"
    wl.triad_pipeline(NullTracer(), in_process)
    cli = workdir / "cli.csv"
    _, code, _ = wl.triad_cli(cli, timeout_s=600)
    if code != 0 or cli.read_bytes() != in_process.read_bytes():
        raise RuntimeError("the CLI and the in-process pipeline disagree")
    return {"csv_sha256": wl.sha256_file(cli)}


def main() -> int:
    out_dir = wl.ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        triad = record_triad(workdir)
        roughness = record_roughness(workdir)
    progressions = record_progressions()
    head = json.dumps({"triad_field": triad, "roughness_analysis": roughness})
    rows = ",\n".join(json.dumps(r, separators=(",", ":")) for r in progressions)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ',\n"progressions": [\n' + rows + "\n]}\n")
    print(f"wrote {wl.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
