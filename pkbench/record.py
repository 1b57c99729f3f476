"""Timers, spans and operation accounting for the benchmark.

Every call into prunekit that a workload makes goes through ``Ops``: it is
one operation, it is timed, and when the run is traced it is also a span.
The per-layer suite times its calls through the same ``Ops.timed``.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import defaultdict


class Trace:
    """Spans kept in memory and written out when the run ends; off unless traced."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time of child spans."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            totals[s["name"]] += t
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


class Ops:
    """Operations of one pass: how many were attempted, which failed, time and
    work per operation name. Work is the count a rate is taken over, such as
    samples for the engine or cells for the sweep."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def timed(self, name: str, work: float = 0):
        """Time a block without counting it as an operation; kept only if it returns."""
        t0 = time.perf_counter()
        with self.trace.span(name):
            yield
        self.seconds[name] += time.perf_counter() - t0
        self.work[name] += work

    def call(self, name: str, fn, *args, work: float = 0, **kwargs):
        """One operation; an exception counts it as failed and yields None."""
        self.attempted += 1
        try:
            with self.timed(name, work):
                return fn(*args, **kwargs)
        except Exception as exc:  # counted and named; the pass goes on
            self.failures.append(f"{name}: raised {exception_name(exc)}: {exc}")
            return None

    def cli(self, argv: list[str], expect: int = 0, label: str | None = None) -> str | None:
        """Run ``prunekit.cli.main`` in-process; the operation succeeds when it
        returns ``expect`` without raising. Returns its standard output."""
        from prunekit import cli

        name = f"cli.{label}" if label else f"cli.{argv[0]}"
        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                    self.trace.span(name):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception as exc:  # counted and named; the pass goes on
            self.failures.append(f"{name}: raised {exception_name(exc)}: {exc}")
            return None
        if code != expect:
            self.failures.append(f"{name}: exit code {code}, expected {expect}")
            return None
        self.seconds[name] += time.perf_counter() - t0
        self.work[name] += 1
        return out.getvalue()

    def rate(self, *names: str) -> float:
        """Work per second summed over the given operation names."""
        seconds = sum(self.seconds[n] for n in names)
        return sum(self.work[n] for n in names) / seconds if seconds > 0 else float("nan")


def exception_name(exc: BaseException) -> str:
    kind = type(exc)
    if kind.__module__ == "builtins":
        return kind.__qualname__
    return f"{kind.__module__}.{kind.__qualname__}"


def median(values) -> float:
    return float(statistics.median(values))


def time_median(ops: Ops, name: str, fn, reps: int):
    """Median wall time of ``reps`` calls of ``fn`` and the last result."""
    times = []
    result = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        with ops.timed(name):
            result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result
