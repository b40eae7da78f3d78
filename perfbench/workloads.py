"""The benchmark's three workloads: seeded inputs, one request each, output checks.

``triad-field``
    The README's field command on the triad grid at 5 cents (29,161 cells),
    run as a subprocess because that is how a user pays for it.  Nearly all
    of the time is the per-cell joint-tuning search in ``harmonicity``.
``roughness-analysis``
    The post-processing pipeline, in-process: ``roughness_field`` at 5 cents,
    smoothing, local minima, slices, directional derivatives and a CSV round
    trip.  ``field`` and ``psychometric`` do the work; ``harmonicity`` none.
``progressions``
    A closed-loop stream of queries over ordered chord pairs, in-process:
    periodicity of the rooted second chord, the two transition quantities and
    the two voice-leading distances.  Its tail is set by ``chord_distance``
    on 5-note pairs.  No field code runs.  It reads the candidate cache
    differently from ``triad-field``: there 240 of 57,840 lookups miss (only
    the grid values are enumerated), here about 4,800 of 19,400 per 1,000
    queries, in a fresh interpreter (``harmonicity.candidate_cache.*`` in
    the per-layer run).

Every seeded input is drawn from a fixed pool whose outputs were recorded
by ``perfbench/record.py`` into ``perfbench/expected.json``; the seed picks
which pool entries a run uses and in which order.  The recorded outputs are
read only when a run checks its results, after the clock has stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from chordspace import (
    Chord,
    InfeasibleError,
    PeriodicityConfig,
    Progression,
    TransitiveConfig,
    chord_distance,
    chord_periodicity,
    directional_derivative,
    export_csv,
    gaussian_smooth,
    geodesic_distance,
    import_csv,
    local_minima,
    periodicity_field,
    relative_periodicity_to_first,
    roughness_field,
    shift,
    slice_field,
    transitive_periodicity,
)
from chordspace.config import Config

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_PATH = ROOT / "perfbench" / "expected.json"

#: Field settings shared by both field workloads: 5-cent triad grid, 6 c smoothing.
FIELD_RES = 5
SIGMA_CENTS = 6.0
TRIAD_CLI_ARGS = ("field", "periodicity", "3", "--res", "5", "--sigma", "6c")

#: Fixed seed of the input pools; a run's ``--seed`` only picks from them.
POOL_SEED = 7919
PROGRESSION_POOL = 8000
#: Independent sizes with P(5) = 0.175 make about 3 % of pairs 5 -> 5 notes,
#: so the stream's p99 lies inside that group rather than on its edge.
CHORD_SIZES = (2, 3, 4, 5)
SIZE_WEIGHTS = (0.275, 0.275, 0.275, 0.175)
#: Queries per stream: p99 needs at least ten beyond it.
STREAM_QUERIES = 1000
ORACLE_CHECKS = 12

SLICE_POOL = 32
SLICES_PER_REQUEST = 4
DERIVATIVE_POOL = 64
DERIVATIVES_PER_REQUEST = 10

FLOAT_TOL = 1e-8
INFEASIBLE = "infeasible"
QUERY_FIELDS = ("chord_periodicity", "transitive_periodicity",
                "relative_periodicity_to_first", "chord_distance", "geodesic_distance")


def load_expected(section: str):
    """One section of the recorded outputs; the rest is dropped at once."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[section]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def values_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


# -- input pools ----------------------------------------------------------------


def _pool_rng(kind: str, i: int) -> random.Random:
    return random.Random(f"{POOL_SEED}:{kind}:{i}")


def _pool_chord(rng: random.Random) -> tuple[int, ...]:
    """Integer-cent notes: a root in the octave above 0, span at most 1200 c."""
    n = rng.choices(CHORD_SIZES, SIZE_WEIGHTS)[0]
    root = rng.randrange(0, 1200)
    offsets = sorted(rng.sample(range(1, 1201), n - 1))
    return (root,) + tuple(root + o for o in offsets)


def progression_cents(i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rng = _pool_rng("progression", i)
    return _pool_chord(rng), _pool_chord(rng)


def to_chord(cents: tuple[int, ...]) -> Chord:
    return Chord(tuple(c / 100 for c in cents))


def slice_spec(i: int) -> tuple[int, float]:
    rng = _pool_rng("slice", i)
    return rng.randrange(2), float(FIELD_RES * rng.randrange(0, 1200 // FIELD_RES + 1))


def derivative_spec(i: int) -> tuple[tuple[float, float], tuple[float, float, float]]:
    """An interval point at least 10 c inside the grid and a per-note motion.

    Rates lie in [-1, 1] semitones per unit time, so the 4 c stencil moves
    each coordinate by at most 8 c and stays on the grid.
    """
    rng = _pool_rng("derivative", i)
    x2 = rng.randrange(10, 1180)
    x3 = rng.randrange(x2 + 1, 1191)
    rates = tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(3))
    return (float(x2), float(x3)), rates


def stream_indices(rng: random.Random, queries: int) -> list[int]:
    """``queries`` pool indices in a seeded order.

    Each class of pairs with the same note counts (2 -> 5, 5 -> 5, ...) gets
    its pool share of the stream, rounded by largest remainder, so that every
    seed has the same mix of chord sizes and costs about the same to run.
    """
    classes: dict[tuple[int, int], list[int]] = {}
    for i in range(PROGRESSION_POOL):
        first, second = progression_cents(i)
        classes.setdefault((len(first), len(second)), []).append(i)
    shares = {key: queries * len(members) / PROGRESSION_POOL
              for key, members in sorted(classes.items())}
    counts = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: shares[key] - counts[key], reverse=True)
    for key in by_remainder[: queries - sum(counts.values())]:
        counts[key] += 1
    chosen = [i for key, n in counts.items() for i in rng.sample(classes[key], n)]
    rng.shuffle(chosen)
    return chosen


def build_inputs(workload: str, seed: int) -> dict:
    """Everything a run needs before its clock starts."""
    rng = random.Random(seed)
    if workload == "triad-field":
        return {}
    if workload == "roughness-analysis":
        slices = rng.sample(range(SLICE_POOL), SLICES_PER_REQUEST)
        derivs = rng.sample(range(DERIVATIVE_POOL), DERIVATIVES_PER_REQUEST)
        return {
            "slices": [(i, slice_spec(i)) for i in slices],
            "derivatives": [(i, derivative_spec(i)) for i in derivs],
        }
    if workload == "progressions":
        stream = []
        for i in stream_indices(rng, STREAM_QUERIES):
            first, second = progression_cents(i)
            stream.append((i, to_chord(first), to_chord(second)))
        return {"stream": stream}
    raise ValueError(f"unknown workload {workload!r}")


# -- triad-field ----------------------------------------------------------------


def triad_cli(out_csv: Path, timeout_s: float):
    """One CLI field run: (wall seconds, exit code, the child's resource usage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "chordspace.cli", *TRIAD_CLI_ARGS, "--out", str(out_csv)]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return wall, proc.returncode, usage


def triad_pipeline(tracer, out_csv: Path):
    """The CLI's field pipeline in-process, one span per public call."""
    with tracer.span("bench.request"):
        cfg = tracer.call("config.Config", Config)
        pcfg = cfg.periodicity_config()
        fld = tracer.call(
            "harmonicity.periodicity_field", periodicity_field, 3, FIELD_RES, pcfg
        )
        smooth = tracer.call("psychometric.gaussian_smooth", gaussian_smooth, fld, SIGMA_CENTS)
        tracer.call("field.export_csv", export_csv, smooth, out_csv)
    return {"cells": len(fld.values), "bytes": out_csv.stat().st_size}


def check_triad_csv(out_csv: Path, want: dict) -> list[str]:
    """``want`` is the ``triad_field`` section of the recorded outputs."""
    got = sha256_file(out_csv)
    if got != want["csv_sha256"]:
        return [f"triad-field CSV sha256 {got} differs from the recorded value"]
    return []


# -- roughness-analysis -----------------------------------------------------------


def roughness_pipeline(inputs: dict, tracer, workdir: Path) -> dict:
    """One analysis pass; returns what the checks need."""
    first_csv = workdir / "roughness.csv"
    second_csv = workdir / "roughness_reexport.csv"
    with tracer.span("bench.request"):
        fld = tracer.call("roughness.roughness_field", roughness_field, 3, FIELD_RES)
        smooth = tracer.call("psychometric.gaussian_smooth", gaussian_smooth, fld, SIGMA_CENTS)
        minima = tracer.call("field.local_minima", local_minima, smooth)
        slices = [
            tracer.call("field.slice_field", slice_field, smooth, axis, value)
            for _, (axis, value) in inputs["slices"]
        ]
        derivs = [
            tracer.call("resolve.directional_derivative", directional_derivative, smooth, at, rates)
            for _, (at, rates) in inputs["derivatives"]
        ]
        tracer.call("field.export_csv", export_csv, smooth, first_csv)
        back = tracer.call("field.import_csv", import_csv, first_csv)
        tracer.call("field.export_csv", export_csv, back, second_csv)
    return {
        "cells": len(fld.values),
        "minima": minima,
        "slices": slices,
        "derivatives": derivs,
        "csv": first_csv,
        "reexport": second_csv,
    }


def check_roughness(inputs: dict, out: dict, want: dict) -> list[str]:
    """``want`` is the ``roughness_analysis`` section of the recorded outputs."""
    problems = []
    csv_bytes = out["csv"].read_bytes()
    if hashlib.sha256(csv_bytes).hexdigest() != want["csv_sha256"]:
        problems.append("smoothed roughness CSV sha256 differs from the recorded value")
    if out["reexport"].read_bytes() != csv_bytes:
        problems.append("re-exported CSV is not byte-identical after import_csv")
    if minima_record(out["minima"]) != want["minima"]:
        problems.append("local_minima differ from the recorded minima")
    for (i, spec), fld in zip(inputs["slices"], out["slices"]):
        if values_digest(fld.values) != want["slices"][i]:
            problems.append(f"slice_field{spec} values differ from the recorded digest")
    for (i, spec), got in zip(inputs["derivatives"], out["derivatives"]):
        if not same_value(got, want["derivatives"][i]):
            problems.append(
                f"directional_derivative{spec} = {got!r}, recorded {want['derivatives'][i]!r}"
            )
    return problems


def minima_record(minima) -> list:
    return [[[float(c) for c in coords], float(v)] for coords, v in minima]


# -- progressions -----------------------------------------------------------------

_TRANSITIVE = TransitiveConfig()


def attempt(tracer, name: str, qid: int, fn, *args):
    """A call's outcome: its value, ``"infeasible"``, or ``{"error": ...}``."""
    try:
        return tracer.call(name, fn, *args, qid=qid)
    except InfeasibleError:
        return INFEASIBLE
    except Exception as exc:  # any other exception is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def periodicity(chord: Chord) -> int:
    return chord_periodicity(chord)[0]


def progression_query(first: Chord, second: Chord, tracer, qid: int) -> list:
    """The five outcomes of one ``first -> second`` query."""
    prog = Progression(first, second)
    with tracer.span("bench.request", qid):
        rooted = shift(second, second.root)
        return [
            attempt(tracer, "harmonicity.chord_periodicity", qid, periodicity, rooted),
            attempt(tracer, "resolve.transitive_periodicity", qid,
                    transitive_periodicity, prog, _TRANSITIVE),
            attempt(tracer, "resolve.relative_periodicity_to_first", qid,
                    relative_periodicity_to_first, prog, _TRANSITIVE),
            attempt(tracer, "metric.chord_distance", qid, chord_distance, first, second),
            attempt(tracer, "metric.geodesic_distance", qid, geodesic_distance, first, second),
        ]


def same_value(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= FLOAT_TOL
    return got == want


def judge_query(result: list, want: list) -> tuple[bool, bool]:
    """(failed, mismatch) for one query's outcomes against the recorded ones.

    The query failed if a call raised anything but ``InfeasibleError`` or if
    a value it produced differs from the recorded value (a mismatch).
    """
    errored = any(isinstance(r, dict) for r in result)
    mismatch = any(
        not isinstance(r, dict) and not same_value(r, w) for r, w in zip(result, want)
    )
    return errored or mismatch, mismatch


def oracle_problems(done: list, seed: int, count: int = ORACLE_CHECKS):
    """Spot-check ``count`` dyad -> dyad queries against the brute-force oracles.

    ``done`` holds (pool index, first, second, outcomes); returns the set of
    pool indices that disagree and a description of each disagreement.
    """
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    dyads = [q for q in done if len(q[1]) == 2 and len(q[2]) == 2]
    rng = random.Random(seed)
    bad, problems = set(), []
    for index, first, second, result in rng.sample(dyads, min(count, len(dyads))):
        p2 = oracles.exhaustive_chord_periodicity(
            shift(second, second.root).notes, PeriodicityConfig()
        )
        refs = [
            None if p2 is None else p2[0],
            oracles.exhaustive_transitive(first, second),
            oracles.exhaustive_relative_to_first(first, second),
            oracles.duplication_distance(first, second),
            oracles.geodesic_shortest_path(first, second),
        ]
        for name, got, ref in zip(QUERY_FIELDS, result, refs):
            if isinstance(got, dict):
                continue  # already a failed operation
            if not same_value(got, INFEASIBLE if ref is None else ref):
                bad.add(index)
                problems.append(f"{name}({first} -> {second}) = {got!r}, oracle {ref!r}")
    return bad, problems
