"""Measurement and tracing for the chordspace benchmark; see ``run.py``."""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
import workloads as wl
from chordspace import InfeasibleError, ScalarField, harmonicity
from chordspace.harmonicity import PeriodicityConfig, ratio_candidates
from run import WORKLOAD_NAMES
from tracing import NullTracer, Tracer, summarize

RUN_PY = Path(__file__).resolve().with_name("run.py")
OUT_DIR = wl.ROOT / "perfbench" / "out"

#: Fresh interpreters timed per run for ``setup_s``; one launch takes 0.2 to
#: 0.6 s and single launches vary by a third on a shared host.
SETUP_REPEATS = 7
#: A run repeats the same work and keeps the fastest speed-corrected time of
#: each request (of each call, for an analysis pass): the correction in
#: ``speed.py`` leaves corrected times a little higher while the vCPU is slow,
#: and the fastest repeat is the least affected.  A repeat is one CLI run, one
#: analysis pass, or the whole stream of STREAM_QUERIES queries in a fresh
#: interpreter (so that each repeat starts with a cold candidate cache).
#: ``--seconds S`` makes round(S / REPEAT_SECONDS) repeats, at least
#: MIN_REPEATS: at S = 25, 5 CLI runs, 4 passes and 2 streams, which take 20
#: to 55 s on the 2-core machine the benchmark was defined on.  A CLI run is
#: one block of 3.3 to 7 s that cannot be split into calls, so it gets the
#: most repeats.  The work of a run is fixed by S alone, so every commit does
#: the same work for a seed.
REPEAT_SECONDS = {"triad-field": 5.0, "roughness-analysis": 6.0, "progressions": 12.0}
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 170.0
#: Cold ``ratio_candidates`` probe: distinct whole-cent values per kind.
PROBE_VALUES = 200
PROBE_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  ``<span>.s`` is the span's self time per
#: request (per field pass, or per 1,000 queries for ``progressions``).
LAYER_METRICS = {
    "harmonicity.periodicity_field.s": "s",
    "harmonicity.periodicity_field.cells": "count",
    "harmonicity.ratio_candidates.ms_per_value": "ms",
    "harmonicity.ratio_candidates.per_value": "count",
    "harmonicity.ratio_candidates.unclamped.ms_per_value": "ms",
    "harmonicity.ratio_candidates.unclamped.per_value": "count",
    "harmonicity.candidate_cache.hits": "count",
    "harmonicity.candidate_cache.misses": "count",
    "harmonicity.chord_periodicity.s": "s",
    "harmonicity.chord_periodicity.calls": "count",
    "harmonicity.chord_periodicity.errors": "count",
    "resolve.transitive_periodicity.s": "s",
    "resolve.transitive_periodicity.calls": "count",
    "resolve.transitive_periodicity.infeasible": "count",
    "resolve.relative_periodicity_to_first.s": "s",
    "resolve.relative_periodicity_to_first.calls": "count",
    "resolve.relative_periodicity_to_first.infeasible": "count",
    "metric.chord_distance.s": "s",
    "metric.chord_distance.calls": "count",
    "metric.geodesic_distance.s": "s",
    "roughness.roughness_field.s": "s",
    "roughness.roughness_field.cells": "count",
    "psychometric.gaussian_smooth.s": "s",
    "resolve.directional_derivative.s": "s",
    "resolve.directional_derivative.calls": "count",
    "field.local_minima.s": "s",
    "field.local_minima.found": "count",
    "field.slice_field.s": "s",
    "field.export_csv.s": "s",
    "field.export_csv.bytes": "bytes",
    "field.import_csv.s": "s",
    "field.ScalarField.init.s": "s",
    "field.ScalarField.dense.s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def _latency_metrics(latencies: list[float]) -> dict:
    ms = [x * 1000.0 for x in latencies]
    median = statistics.median(ms)
    # A percentile is only reported with at least ten requests beyond it: p99
    # needs 1,000.  The field workloads make one request (repeated), so their
    # p50 and p99 both read as its time.
    tail = statistics.quantiles(ms, n=100)[98] if len(ms) >= 1000 else median
    return {
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": median,
        "query_p99_ms": tail,
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class CacheCounter:
    """Hits and misses of the candidate cache since construction.

    The cache is ``harmonicity._candidates_cached``, an ``lru_cache``; where
    a later version has no such cache, both counts read 0.
    """

    def __init__(self):
        self._start = self._info()

    @staticmethod
    def _info() -> tuple[int, int]:
        cached = getattr(harmonicity, "_candidates_cached", None)
        if not hasattr(cached, "cache_info"):
            return 0, 0
        info = cached.cache_info()
        return info.hits, info.misses

    def counts(self) -> dict:
        hits, misses = self._info()
        return {"cache_hits": hits - self._start[0], "cache_misses": misses - self._start[1]}


class Tally:
    """Attempted and failed operations, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, mismatches=(), errors=()):
        self.attempted += attempted
        self.failed += failed
        self.mismatches.extend(mismatches)
        self.errors.extend(errors)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "mismatches": self.mismatches, "errors": self.errors}


# -- requests shared by the measuring process and the workers ----------------------


def _field_pass(workload: str, inputs: dict, tracer, workdir: Path) -> dict:
    """One in-process field pass, unchecked; ``_check_pass`` judges it later."""
    cache = CacheCounter()
    cpu = _self_cpu_s()
    start = perf_counter()
    if workload == "triad-field":
        out_csv = workdir / "triads.csv"
        out = wl.triad_pipeline(tracer, out_csv)
        out["csv"] = out_csv
    else:
        out = wl.roughness_pipeline(inputs, tracer, workdir)
    wall = perf_counter() - start
    cpu = _self_cpu_s() - cpu
    return {"start": start, "wall_s": wall, "cpu_s": cpu, "out": out, **cache.counts()}


def _check_pass(workload: str, inputs: dict, unit: dict, tally: Tally) -> None:
    """Judge a field pass and replace its outputs by the counts reported from them."""
    out = unit.pop("out")
    if workload == "triad-field":
        problems = wl.check_triad_csv(out["csv"], wl.load_expected("triad_field"))
    else:
        problems = wl.check_roughness(inputs, out, wl.load_expected("roughness_analysis"))
        unit["found"] = len(out["minima"])
    unit["cells"] = out["cells"]
    unit["bytes"] = out["csv"].stat().st_size
    tally.add(1, int(bool(problems)), problems)


def _cli_request(workdir: Path, tally: Tally) -> tuple[float, float, float, int]:
    """One checked triad-field CLI run: its start, wall time, CPU time and peak
    RSS in KiB."""
    out_csv = workdir / "triads.csv"
    out_csv.unlink(missing_ok=True)  # a failed run must not pass on an old file
    start = perf_counter()
    wall, code, usage = wl.triad_cli(out_csv, CHILD_TIMEOUT_S)
    if code != 0:
        tally.add(1, 1, errors=[f"CLI exited with {code}"])
    else:
        problems = wl.check_triad_csv(out_csv, wl.load_expected("triad_field"))
        tally.add(1, int(bool(problems)), problems)
    return start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _query_stream(inputs: dict, tracer, tally: Tally, seed: int):
    """The input stream's closed-loop progression queries, judged after the
    clock stops.

    Returns each query's start and latency, the stream's start, wall and CPU
    time, the process's peak RSS before the checks and the stream's
    candidate-cache counts.
    """
    starts, latencies, done = [], [], []
    cache = CacheCounter()
    cpu = _self_cpu_s()
    start = perf_counter()
    for qid, (index, first, second) in enumerate(inputs["stream"]):
        t0 = perf_counter()
        result = wl.progression_query(first, second, tracer, qid)
        t1 = perf_counter()
        starts.append(t0)
        latencies.append(t1 - t0)
        done.append((index, first, second, result))
    wall = perf_counter() - start
    cpu = _self_cpu_s() - cpu
    out = {"starts": starts, "latencies": latencies, "start": start, "wall_s": wall,
           "cpu_s": cpu, "peak_rss_mb": _self_rss_mb(), **cache.counts()}

    want = wl.load_expected("progressions")
    failed_ids, mismatches, errors = set(), [], []
    for index, first, second, result in done:
        failed, mismatch = wl.judge_query(result, want[index])
        if failed:
            failed_ids.add(index)
        if mismatch:
            mismatches.append(
                f"pool {index}: {first} -> {second} = {result}, recorded {want[index]}"
            )
        errors.extend(f"pool {index}: {first} -> {second}: {r['error']}"
                      for r in result if isinstance(r, dict))
    oracle_bad, problems = wl.oracle_problems(done, seed)
    failed_ids |= oracle_bad
    tally.add(len(done), len(failed_ids), mismatches + problems, errors)
    return out


# -- worker entry points (fresh interpreters) --------------------------------------


def worker(kind: str, workload: str, seed: int, seconds: float, trace: int,
            workdir: Path) -> dict:
    if kind == "probe":
        return _probe(seed)
    if kind == "setup":
        wl.build_inputs(workload, seed)
        return {}
    inputs = wl.build_inputs(workload, seed)
    tracer = Tracer(InfeasibleError) if trace else NullTracer()
    tally = Tally()
    if workload == "progressions":
        unit = _query_stream(inputs, tracer, tally, seed)
    else:
        unit = _field_pass(workload, inputs, tracer, workdir)
        _check_pass(workload, inputs, unit, tally)
    unit["tally"] = tally.as_dict()
    if trace:
        unit["spans"] = tracer.as_dicts()
    return unit


def _probe(seed: int) -> dict:
    """Cold candidate enumeration and ScalarField construction on the 5 c triad grid."""
    rng = random.Random(seed)
    cfg = PeriodicityConfig()
    out = {}
    for label, lo, hi, clamp in (("", 0, 1200, True), ("unclamped.", -1200, 2400, False)):
        values = [float(v) for v in rng.sample(range(lo, hi + 1), PROBE_VALUES)]
        start = perf_counter()
        sizes = [len(ratio_candidates(v, cfg, clamp)) for v in values]
        elapsed = perf_counter() - start
        out[f"harmonicity.ratio_candidates.{label}ms_per_value"] = 1000.0 * elapsed / len(values)
        out[f"harmonicity.ratio_candidates.{label}per_value"] = sum(sizes) / len(sizes)

    n = 1200 // 5 + 1
    values = np.arange(n * (n + 1) // 2, dtype=float)
    init, dense = [], []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        fld = ScalarField(resolution=5, origins=(0.0, 0.0), counts=(n, n), simplex=True,
                          axis_names=("x2", "x3"), values=values)
        mid = perf_counter()
        fld.dense()
        dense.append(perf_counter() - mid)
        init.append(mid - start)
    out["field.ScalarField.init.s"] = statistics.median(init)
    out["field.ScalarField.dense.s"] = statistics.median(dense)
    return out


def _run_worker(kind: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--worker", kind]
    proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} worker for {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat_count(workload: str, seconds: float) -> int:
    return max(MIN_REPEATS, round(seconds / REPEAT_SECONDS[workload]))


def _setup_runs(workload: str, seed: int, seconds: float) -> list[tuple[float, float]]:
    """Start and end of SETUP_REPEATS fresh interpreters that build the inputs."""
    runs = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _run_worker("setup", workload, seed, seconds)
        runs.append((start, perf_counter()))
    return runs


# -- measuring process ----------------------------------------------------------------


def _corrected_self(probe: speed.SpeedProbe, span: dict) -> float:
    """A span's self time at the reference speed."""
    took = span["end"] - span["start"]
    return probe.corrected(span["start"], span["end"]) * span["self_s"] / took if took > 0 else 0.0


def _end_to_end(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Every time is corrected to the probe's reference speed (see ``speed.py``);
    each request keeps its fastest corrected repeat."""
    os.sched_setaffinity(0, {speed.bench_cpu()})
    repeats = _repeat_count(workload, seconds)
    inputs = wl.build_inputs(workload, seed)
    walls, cpus, spans = [], [], []
    with speed.SpeedProbe() as probe:
        setups = _setup_runs(workload, seed, seconds)
        if workload == "progressions":
            runs = [_run_worker("unit", workload, seed, seconds) for _ in range(repeats)]
        elif workload == "triad-field":
            runs = [_cli_request(workdir, tally) for _ in range(repeats)]
        else:
            runs = []
            for k in range(repeats):
                passdir = workdir / f"pass{k}"
                passdir.mkdir()
                tracer = Tracer(InfeasibleError)
                runs.append(_field_pass(workload, inputs, tracer, passdir))
                spans.append(tracer.as_dicts())
            peak_rss_mb = _self_rss_mb()

    setup_s = statistics.median(probe.corrected(start, end) for start, end in setups)
    if workload == "progressions":
        for run in runs:
            tally.add(**run["tally"])
            walls.append((run["start"], run["wall_s"]))
            cpus.append(run["cpu_s"])
        latencies = [
            min(probe.corrected(start, start + took) for start, took in query)
            for query in zip(*(zip(run["starts"], run["latencies"]) for run in runs))
        ]
        peak_rss_mb = max(run["peak_rss_mb"] for run in runs)
    elif workload == "triad-field":
        for start, wall, cpu, _ in runs:
            walls.append((start, wall))
            cpus.append(cpu)
        latencies = [min(probe.corrected(start, start + wall) for start, wall in walls)]
        peak_rss_mb = max(maxrss for *_, maxrss in runs) / 1024.0
    else:
        for unit in runs:
            _check_pass(workload, inputs, unit, tally)
            walls.append((unit["start"], unit["wall_s"]))
            cpus.append(unit["cpu_s"])
        # Every pass makes the same calls in the same order: the fastest pass
        # is made of each call's fastest repeat (and the pass's own time).
        latencies = [sum(min(_corrected_self(probe, c) for c in call) for call in zip(*spans))]
    # Wall and CPU time of every repeat, and the same wall time corrected to
    # the reference speed: the vCPU runs slower rather than being taken away
    # when the wall and CPU times grow together.
    print(f"{workload} repeats wall_s {' '.join(f'{w:.4g}' for _, w in walls)} "
          f"cpu_s {' '.join(f'{c:.4g}' for c in cpus)} "
          f"corrected_s {' '.join(f'{probe.corrected(t, t + w):.4g}' for t, w in walls)} "
          f"mean_speed {probe.mean_speed():.3f}")
    return {"setup_s": setup_s, "wall_s": sum(latencies), "peak_rss_mb": peak_rss_mb,
            **_latency_metrics(latencies)}


def _layers(workload: str, seed: int, seconds: float, workdir: Path, tally: Tally,
            trace_path: Path) -> dict:
    """Times are corrected like the end-to-end ones, except the probes' own."""
    os.sched_setaffinity(0, {speed.bench_cpu()})
    cli_runs, plain, traced = [], [], []
    with speed.SpeedProbe() as probe:
        setups = _setup_runs(workload, seed, seconds)
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            if workload == "triad-field":
                cli_runs.append(_cli_request(workdir, tally)[:2])
            plain.append(_run_worker("unit", workload, seed, seconds, 0))
            traced.append(_run_worker("unit", workload, seed, seconds, 1))
    layer_probes = _run_worker("probe", workload, seed, seconds)
    for unit in plain + traced:
        tally.add(**unit["tally"])
        unit["wall_s"] = probe.corrected(unit["start"], unit["start"] + unit["wall_s"])
    setup_s = statistics.median(probe.corrected(start, end) for start, end in setups)
    cli_walls = [probe.corrected(start, start + wall) for start, wall in cli_runs]

    per_unit = []
    for unit in traced:
        for span in unit["spans"]:
            span["self_s"] = _corrected_self(probe, span)
        values = dict.fromkeys(LAYER_METRICS, 0.0)
        for name, agg in summarize(unit["spans"]).items():
            for key, value in (("s", agg["self_s"]), ("calls", agg["calls"]),
                               ("infeasible", agg["infeasible"]), ("errors", agg["errors"])):
                if f"{name}.{key}" in values:
                    values[f"{name}.{key}"] = value
        if workload == "triad-field":
            values["harmonicity.periodicity_field.cells"] = unit["cells"]
        elif workload == "roughness-analysis":
            values["roughness.roughness_field.cells"] = unit["cells"]
            values["field.local_minima.found"] = unit["found"]
        if "bytes" in unit:
            values["field.export_csv.bytes"] = unit["bytes"]
        values["harmonicity.candidate_cache.hits"] = unit["cache_hits"]
        values["harmonicity.candidate_cache.misses"] = unit["cache_misses"]
        per_unit.append(values)

    metrics = {name: statistics.median([u[name] for u in per_unit]) for name in LAYER_METRICS}
    metrics.update(layer_probes)
    # Differences of fastest repeats, like the end-to-end metrics: medians of
    # two or three runs on a shared host differ by more than these overheads.
    fastest_traced = min(u["wall_s"] for u in traced)
    if workload == "triad-field":
        metrics["cli.overhead_s"] = min(cli_walls) - setup_s - fastest_traced
    metrics["trace.overhead_s"] = fastest_traced - min(u["wall_s"] for u in plain)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "setup_s": setup_s,
                   "cli_wall_s": cli_walls,
                   "untraced_wall_s": [u["wall_s"] for u in plain],
                   "traced_wall_s": [u["wall_s"] for u in traced],
                   "probe": layer_probes,
                   "traced_units": [u["spans"] for u in traced]}, fh)
    print(f"# {workload}: {len(traced)} traced units, spans in {trace_path}", file=sys.stderr)
    return metrics


def measure(args, workdir: Path) -> dict:
    tally = Tally()
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        values = _layers(args.workload, args.seed, args.seconds, workdir, tally, trace_path)
        units = LAYER_METRICS
    else:
        values = _end_to_end(args.workload, args.seed, args.seconds, workdir, tally)
        units = END_TO_END
    for line in tally.mismatches[:20] + tally.errors[:20]:
        print(f"# {line}", file=sys.stderr)
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{args.workload} failed_frac {frac:.6f} ({tally.failed} of {tally.attempted})")
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    return {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def measure_all(args) -> dict:
    """Every workload in turn, each in its own fresh interpreter."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=3 * CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = metric
    return result
