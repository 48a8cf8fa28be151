"""Spans around the benchmark's calls into bridgelab layers.

A span records the layer (the bridgelab module), the function, the item of
the pass that made the call, start and end (seconds since the run began),
the work units of the call (steps, path-steps, ...) and the exception type
if the call raised.  Spans stay in memory and are written once, at the end
of the run, so writing them costs nothing inside a timed pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, layer, fn, item, n=0):
        return nullcontext()


class Tracer:
    """Tracing on: every span is appended to an in-memory list."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.pass_index = 0
        self.spans = []

    @contextmanager
    def span(self, layer, fn, item, n=0):
        rec = {
            "run_id": self.run_id,
            "pass": self.pass_index,
            "parent": item,
            "layer": layer,
            "fn": fn,
            "n": n,
            "error": None,
        }
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["start"] = start - self.origin
            rec["end"] = time.perf_counter() - self.origin
            self.spans.append(rec)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def span_cost(samples=20000):
    """Seconds that one span adds around a call, timed on empty spans."""
    probe = Tracer("span_cost")
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe", "probe", "probe"):
            pass
    return (time.perf_counter() - start) / samples
