"""In-memory spans recorded around calls into chordspace.

A span is one call into a library module, named ``<module>.<function>``,
with its start and end (``time.perf_counter`` seconds), the index of the
enclosing span, the query id it belongs to (``None`` outside query streams)
and how the call ended: ``ok``, ``infeasible`` (the library's
``InfeasibleError``, a valid answer) or ``error`` (any other exception).
Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, qid=None):
        return fn(*args)

    def span(self, name, qid=None):
        return nullcontext()


class Tracer:
    """Records a span around every call it forwards."""

    def __init__(self, infeasible_type: type[Exception]):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._infeasible = infeasible_type

    @contextmanager
    def span(self, name: str, qid=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, qid, "ok"]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except self._infeasible:
            record[5] = "infeasible"
            raise
        except Exception:
            record[5] = "error"
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, qid=None):
        with self.span(name, qid):
            return fn(*args)

    def as_dicts(self) -> list[dict]:
        """Spans with their self time: duration minus what child spans cover."""
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        keys = ("name", "start", "end", "parent", "query", "status")
        out = []
        for i, rec in enumerate(self.spans):
            d = dict(zip(keys, rec))
            d["self_s"] = (rec[2] - rec[1]) - child_time[i]
            out.append(d)
        return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total self seconds, call count and outcome counts."""
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(
            s["name"], {"self_s": 0.0, "calls": 0, "infeasible": 0, "errors": 0}
        )
        agg["self_s"] += s["self_s"]
        agg["calls"] += 1
        if s["status"] == "infeasible":
            agg["infeasible"] += 1
        elif s["status"] == "error":
            agg["errors"] += 1
    return out
