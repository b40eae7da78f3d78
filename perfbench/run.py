"""chordspace benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a chordspace checkout (nothing needs building; the
package is imported from ``src``)::

    python3 perfbench/run.py --workload triad-field --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The workloads are described in ``workloads.py``.  Each is one client in a
closed loop: the next request starts when the previous one has finished.

``--trace 0`` repeats a fixed amount of work, sized by ``--seconds`` (see
``REPEAT_SECONDS`` in ``measure.py``), on one vCPU shared with a speed
probe (``speed.py``).  Every time it reports is corrected to the probe's
reference speed: the shared host can run a vCPU at half speed for minutes
at a time, which no number of repeats can remove.  It keeps each
request's fastest corrected repeat and reports the end-to-end metrics:

* ``setup_s``: median over seven fresh interpreters of the time to import
  chordspace and build the workload's inputs.  The recorded outputs are not
  part of it: they are read only to check results, after the clock stops.
* ``wall_s``: the fastest CLI run; for ``roughness-analysis``, the sum
  over the pass's calls of each call's fastest time; for ``progressions``,
  the sum over the stream's queries of each query's fastest time.
* ``queries_per_s``: requests completed per second of request time.
* ``query_p50_ms``, ``query_p99_ms``: request latency.  A percentile needs
  at least ten requests beyond it, so p99 needs a stream of 1,000 queries.
* ``queries_per_s``, ``query_p50_ms`` and ``query_p99_ms`` describe the
  ``progressions`` stream.  Every workload must report every end-to-end
  metric, so the field workloads report them too, but there they are
  copies of ``wall_s``: one request per run (repeated) has no latency
  distribution, so p50 and p99 read as its time and ``queries_per_s`` as
  one over it.
* ``peak_rss_mb``: peak resident memory of the process doing the work,
  taken before the checks (the CLI child for ``triad-field``, the stream
  interpreter for ``progressions``, the benchmark process otherwise).

A line before the result gives, for every repeat, its wall time, its user
+ system CPU time (a little lower: the probe shares the vCPU) and its
corrected time, and the probe's mean speed as a share of the reference.

``--trace 1`` runs the same requests in fresh worker interpreters, once
without and once with spans around every public chordspace call, and
reports the per-layer metrics (``LAYER_METRICS`` in ``measure.py``);
layers a workload does not use read 0.  Its times are corrected like the
end-to-end ones, except the timings the layer probes make themselves.
Spans are written to ``perfbench/out/``.

Every output is checked against ``perfbench/expected.json`` (see
``record.py``) and, for dyad progressions, against the brute-force oracles
in ``tests/oracles.py``.  A wrong output makes ``correct`` false and counts
as a failed operation; an ``InfeasibleError`` is a valid answer; any other
exception or a CLI exit code other than 0 is a failed operation.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("triad-field", "roughness-analysis", "progressions")


def bootstrap() -> None:
    """Import chordspace from this checkout's ``src`` and nowhere else."""
    if not (SRC / "chordspace" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'chordspace'} not found; run from a chordspace checkout")
    sys.path.insert(0, str(SRC))
    import chordspace

    if SRC.resolve() not in Path(chordspace.__file__).resolve().parents:
        sys.exit(f"error: chordspace was imported from {chordspace.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "unit", "probe"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bootstrap()
    import measure

    if args.workload == "all":
        result = measure.measure_all(args)
    else:
        workdir = measure.OUT_DIR / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.worker:
                result = measure.worker(args.worker, args.workload, args.seed,
                                        args.seconds, args.trace, workdir)
            else:
                result = measure.measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
