"""Shared pieces of the workloads: the timed phase, percentiles, the
runner that turns a workload into the benchmark's result line."""

from __future__ import annotations

import resource
import statistics
import time

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def process_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """What one timed phase did: per-operation latencies by kind, the
    time spent inside timed sections, and the failures seen.  The
    in-process workloads time each operation alone (``call``) and check
    it against the oracle outside the timed section."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {"read": [], "write": []}
        self.elapsed = 0.0
        self.failed = 0
        self.rows_returned = 0
        self.user_bytes = 0

    @property
    def reads(self) -> int:
        return len(self.latencies["read"])

    @property
    def writes(self) -> int:
        return len(self.latencies["write"])

    @property
    def ops(self) -> int:
        return self.reads + self.writes

    def call(self, kind: str, operation, tracer=None):
        """Run one operation as a timed section and record its latency.
        Returns its result, or the ``ReproError`` it raised (a failed
        operation is still attempted and timed).  The tracer, if any,
        records only inside timed sections."""
        from repro.errors import ReproError

        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            return operation()
        except ReproError as error:
            return error
        finally:
            stop = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            self.latencies[kind].append(stop - start)
            self.elapsed += stop - start

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        reads = self.latencies["read"]
        writes = self.latencies["write"]
        every = reads + writes
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (self.ops / self.elapsed, "1/s"),
            "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
            "write_p50_ms": (percentile(writes, 50) * 1e3, "ms"),
            "op_p95_ms": (percentile(every, 95) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }


class Workload:
    """Base of the four workloads.

    ``setup`` builds the starting database (timed as ``setup_s``),
    ``phase`` runs the timed closed loop, ``finish`` does the untimed
    work after it (oracle checks, recovery, stopping the server) and
    adds what it finds to ``phase.failed``, ``close`` releases what
    ``setup`` acquired.  ``extras`` holds the per-layer values a
    workload measures itself; ``spans()`` and ``sites()`` return what
    the traced phase recorded.
    """

    def __init__(self, seed: int, workdir: str, size: str, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.tracer = None
        if traced:
            from tracing import Tracer, install

            self.tracer = install(Tracer())
        self.extras: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def phase(self, seconds: float) -> Phase:
        raise NotImplementedError

    def finish(self, phase: Phase) -> None:
        """Untimed work after the phase; by default none."""

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb()

    def spans(self) -> list:
        return self.tracer.spans if self.tracer is not None else []

    def sites(self) -> dict:
        """Spans recorded per wrapped call site."""
        return self.tracer.sites if self.tracer is not None else {}

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


def _one_phase(cls, seed, seconds, workdir, size, traced):
    workload = cls(seed, workdir, size, traced)
    try:
        workload.setup()
        phase = workload.phase(seconds)
        workload.finish(phase)
        return workload, phase
    finally:
        workload.close()


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 workdir: str, size: str) -> dict:
    """One benchmark run; returns the result object for the last line."""
    if trace:
        from layers import UNITS, layer_metrics

        _, base = _one_phase(cls, seed, seconds, workdir, size, False)
        workload, traced = _one_phase(cls, seed, seconds, workdir, size, True)
        values = dict.fromkeys(UNITS, 0.0)
        values.update(layer_metrics(workload.spans(), traced))
        values.update(workload.extras)
        values["trace.overhead_ratio"] = (
            traced.ops / traced.elapsed) / (base.ops / base.elapsed)
        metrics = {n: (values[n], UNITS[n]) for n in UNITS}
        attempted = base.ops + traced.ops
        failed = base.failed + traced.failed
    else:
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            workload = cls(seed, workdir, size, False)
            start = time.perf_counter()
            try:
                workload.setup()
            except BaseException:
                workload.close()
                raise
            setup_times.append(time.perf_counter() - start)
            if attempt < SETUP_REPEATS - 1:
                workload.close()
        try:
            phase = workload.phase(seconds)
            rss = workload.peak_rss_mb()
            workload.finish(phase)
        finally:
            workload.close()
        metrics = phase.end_to_end(statistics.median(setup_times), rss)
        attempted = phase.ops
        failed = phase.failed
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
