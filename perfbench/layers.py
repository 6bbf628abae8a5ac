"""Per-layer metrics computed from a traced phase's spans.

``*.ms_per_op`` metrics divide a layer's summed time by the operations
the phase completed, so the layers of one workload add up to (about) its
mean operation latency.  Leaf layers report self time (duration minus
child spans); the boundary layers that enclose whole sublayers
(``server.handler``, ``concurrency.commit``, ``cluster.*``,
``replication.catch_up``, ``durability.wal.sync``) report inclusive time.
A layer the workload never enters reports 0.
"""

from __future__ import annotations

import statistics

from tracing import END, NAME, OP, PARENT, SEGMENT, SIZE, START, self_times

SNAPSHOT_OPS = (
    "snapshot.union",
    "snapshot.difference",
    "snapshot.product",
    "snapshot.project",
    "snapshot.select",
)

#: metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "lang.parse.ms_per_op": "ms",
    "lang.plan_cache.hit_ratio": "ratio",
    "optimizer.replans_per_read": "count",
    "optimizer.rewrite.ms_per_op": "ms",
    "optimizer.stats.ms_per_op": "ms",
    "core.compile.ms_per_op": "ms",
    "core.evaluate.ms_per_op": "ms",
    "core.install.ms_per_op": "ms",
    "core.install.depth_ratio": "ratio",
    "snapshot.ops.ms_per_op": "ms",
    "snapshot.rows_out_per_row_returned": "ratio",
    "durability.wal.append.ms_per_op": "ms",
    "durability.wal.syncs_per_commit": "count",
    "durability.wal.sync.ms_per_op": "ms",
    "durability.checkpoint.count": "count",
    "durability.checkpoint.ms_total": "ms",
    "durability.checkpoint.bytes": "B",
    "durability.bytes_written_per_user_byte": "ratio",
    "durability.recover.ms": "ms",
    "concurrency.commit.ms_per_op": "ms",
    "concurrency.retries_per_commit": "count",
    "server.render.ms_per_op": "ms",
    "server.encode.ms_per_op": "ms",
    "server.reply_bytes_per_read": "B",
    "server.handler.ms_per_op": "ms",
    "server.ping_ms": "ms",
    "sharding.fanout.shards_per_read": "count",
    "cluster.execute.ms_per_op": "ms",
    "cluster.evaluate.ms_per_op": "ms",
    "replication.catch_up.ms_per_op": "ms",
    "replication.records_per_catch_up": "count",
    "bytes_stored_per_user_byte": "ratio",
    "recovery_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _depth_ratio(spans: list[list]) -> float:
    """Mean install time over the last tenth of each round's commits
    divided by the mean over its first tenth; median over rounds."""
    rounds: dict[int, list[float]] = {}
    for span in spans:
        if span[NAME] == "core.install":
            rounds.setdefault(span[SEGMENT], []).append(
                span[END] - span[START]
            )
    ratios = []
    for durations in rounds.values():
        tenth = len(durations) // 10
        if tenth < 2:
            continue
        first = sum(durations[:tenth]) / tenth
        last = sum(durations[-tenth:]) / tenth
        ratios.append(_ratio(last, first))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(spans: list[list], phase) -> dict[str, float]:
    """Every metric in :data:`UNITS` except the ones the workload
    supplies itself (ping, bytes stored, recovery, overhead)."""
    own = self_times(spans)
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    count: dict[str, int] = {}
    size: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[NAME]
        self_ms[name] = self_ms.get(name, 0.0) + self_s * 1e3
        total_ms[name] = total_ms.get(name, 0.0) + (
            span[END] - span[START]
        ) * 1e3
        count[name] = count.get(name, 0) + 1
        if span[SIZE] is not None:
            size[name] = size.get(name, 0) + span[SIZE]

    def per_op(table, *names) -> float:
        return _ratio(sum(table.get(n, 0.0) for n in names), phase.ops)

    # plan-cache lookups that had to parse were misses
    lookups = count.get("lang.plan_cache.lookup", 0)
    misses = sum(
        1
        for span in spans
        if span[NAME] == "lang.parse"
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == "lang.plan_cache.lookup"
    )
    # WAL syncs that reached the store's fsync (sync() is a no-op with
    # nothing pending)
    syncing = {
        span[PARENT]
        for span in spans
        if span[NAME] == "durability.fsync" and span[PARENT] >= 0
    }
    syncs = sum(
        1 for i in syncing if spans[i][NAME] == "durability.wal.sync"
    )
    # fan-out: router calls that routed a subquery to one shard (no
    # nested router call) inside a cluster read
    routed = 0
    has_router_child = {
        span[PARENT]
        for span in spans
        if span[NAME] == "sharding.evaluate" and span[PARENT] >= 0
    }
    for index, span in enumerate(spans):
        if span[NAME] != "sharding.evaluate" or index in has_router_child:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != "cluster.evaluate":
            parent = spans[parent][PARENT]
        if parent >= 0:
            routed += 1
    # reply bytes of query requests
    query_ops = {
        span[OP] for span in spans if span[NAME] == "server.handler.query"
    }
    reply_bytes = sum(
        span[SIZE]
        for span in spans
        if span[NAME] == "server.encode" and span[OP] in query_ops
    )
    checkpoints = count.get("durability.checkpoint", 0)
    runs = count.get("concurrency.run", 0)
    snapshot_rows = sum(size.get(n, 0) for n in SNAPSHOT_OPS)
    written = size.get("durability.wal.append", 0) + size.get(
        "durability.checkpoint", 0
    )
    recovers = [s for s in spans if s[NAME] == "durability.recover"]
    return {
        "lang.parse.ms_per_op": per_op(self_ms, "lang.parse"),
        "lang.plan_cache.hit_ratio": _ratio(lookups - misses, lookups),
        "optimizer.replans_per_read": _ratio(
            count.get("optimizer.rewrite", 0), phase.reads
        ),
        "optimizer.rewrite.ms_per_op": per_op(self_ms, "optimizer.rewrite"),
        "optimizer.stats.ms_per_op": per_op(self_ms, "optimizer.stats"),
        "core.compile.ms_per_op": per_op(self_ms, "core.compile"),
        "core.evaluate.ms_per_op": per_op(self_ms, "core.evaluate"),
        "core.install.ms_per_op": per_op(self_ms, "core.install"),
        "core.install.depth_ratio": _depth_ratio(spans),
        "snapshot.ops.ms_per_op": per_op(self_ms, *SNAPSHOT_OPS),
        "snapshot.rows_out_per_row_returned": _ratio(
            snapshot_rows, phase.rows_returned
        ),
        "durability.wal.append.ms_per_op": per_op(
            self_ms, "durability.wal.append"
        ),
        "durability.wal.syncs_per_commit": _ratio(syncs, phase.writes),
        "durability.wal.sync.ms_per_op": per_op(
            total_ms, "durability.wal.sync"
        ),
        "durability.checkpoint.count": float(checkpoints),
        "durability.checkpoint.ms_total": total_ms.get(
            "durability.checkpoint", 0.0
        ),
        "durability.checkpoint.bytes": _ratio(
            size.get("durability.checkpoint", 0), checkpoints
        ),
        "durability.bytes_written_per_user_byte": _ratio(
            written, phase.user_bytes
        ),
        "durability.recover.ms": (
            (recovers[-1][END] - recovers[-1][START]) * 1e3
            if recovers
            else 0.0
        ),
        "concurrency.commit.ms_per_op": per_op(total_ms, "concurrency.run"),
        "concurrency.retries_per_commit": _ratio(
            count.get("concurrency.begin", 0) - runs, runs
        ),
        "server.render.ms_per_op": per_op(self_ms, "server.render"),
        "server.encode.ms_per_op": per_op(self_ms, "server.encode"),
        "server.reply_bytes_per_read": _ratio(reply_bytes, phase.reads),
        "server.handler.ms_per_op": per_op(
            total_ms, "server.handler.query", "server.handler.execute"
        ),
        "sharding.fanout.shards_per_read": _ratio(routed, phase.reads),
        "cluster.execute.ms_per_op": per_op(total_ms, "cluster.execute"),
        "cluster.evaluate.ms_per_op": per_op(total_ms, "cluster.evaluate"),
        "replication.catch_up.ms_per_op": per_op(
            total_ms, "replication.catch_up"
        ),
        "replication.records_per_catch_up": _ratio(
            size.get("replication.catch_up", 0),
            count.get("replication.catch_up", 0),
        ),
    }
