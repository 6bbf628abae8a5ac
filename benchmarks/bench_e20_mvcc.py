"""E20 — multi-writer MVCC throughput vs the serial isolation level.

The workload every multi-writer design is built for: write sets are all
disjoint (writers append to their own hot relation, readers write their
own private relation), but every reader scans the hot relations.  Under
the :class:`TransactionManager`'s ``serial`` level, backward validation
aborts a reader whenever any hot writer committed during its window —
each writer pulse restarts the whole reader cohort, which re-reads
everything (classic OCC retry storms).  At the ``si`` level reads come
off the begin-time snapshot and never invalidate: with disjoint write
sets the first-committer-wins probe admits every transaction on its
first attempt.  Both levels run the same manager class; only the probe
set (read set vs write set) and the apply step differ.

Also measured: the SSI surcharge on the same workload (its
rw-antidependency analysis finds no pivot here, so it should track SI),
and abort parity under deliberate self-overlap — si must refuse every
lost update serial refuses (faster, not looser).
"""

from __future__ import annotations

import sys
import time

from repro.concurrency import TransactionManager
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback
from repro.errors import ConcurrencyError
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

FULL = {
    "hot": 12,       # hot relations, one writer each per pulse
    "readers": 48,   # reader clients per wave
    "pulses": 4,     # writer pulses per wave (serial readers retry each)
    "waves": 6,
    "repeats": 3,
}
SMOKE = {
    "hot": 6,
    "readers": 12,
    "pulses": 3,
    "waves": 2,
    "repeats": 2,
}

V = Schema(["v"])


def _hot(j: int) -> str:
    return f"hot_{j}"


def _private(i: int) -> str:
    return f"private_{i}"


def _setup(manager, config) -> None:
    setup = manager.begin()
    names = [_hot(j) for j in range(config["hot"])]
    names += [_private(i) for i in range(config["readers"])]
    for name in names:
        setup.stage(DefineRelation(name, "rollback"))
        setup.stage(
            ModifyState(name, Const(SnapshotState(V, [("init",)])))
        )
    manager.commit(setup)


def _begin_reader(manager, config, i: int):
    """A reader: scans every hot relation, writes its own private one —
    a write set nobody else touches."""
    transaction = manager.begin()
    for j in range(config["hot"]):
        transaction.read(Rollback(_hot(j)))
    transaction.stage(
        ModifyState(
            _private(i), Const(SnapshotState(V, [(f"r{i}",)]))
        )
    )
    return transaction


def disjoint_tps(isolation, config) -> tuple[float, int, int]:
    """Commits/second: per wave, the reader cohort begins, then writer
    pulses land on the hot relations with reader commit attempts after
    each pulse.  Every write set is disjoint, so an ideal multi-writer
    manager admits everything first try."""
    manager = TransactionManager(isolation=isolation)
    _setup(manager, config)
    committed = 0
    start = time.perf_counter()
    for wave in range(config["waves"]):
        readers = [
            (i, _begin_reader(manager, config, i))
            for i in range(config["readers"])
        ]
        for pulse in range(config["pulses"]):
            for j in range(config["hot"]):
                writer = manager.begin()
                writer.stage(
                    ModifyState(
                        _hot(j),
                        Const(SnapshotState(V, [(f"w{wave}.{pulse}",)])),
                    )
                )
                manager.commit(writer)
                committed += 1
            survivors = []
            for i, transaction in readers:
                try:
                    manager.commit(transaction)
                    committed += 1
                except ConcurrencyError:
                    survivors.append(
                        (i, _begin_reader(manager, config, i))
                    )
            readers = survivors
        for i, transaction in readers:  # no more writers: must land
            manager.commit(transaction)
            committed += 1
    elapsed = time.perf_counter() - start
    return committed / elapsed, committed, manager.abort_count


def best_tps(isolation, config) -> tuple[float, int, int]:
    """Best of ``repeats`` runs (throughput benchmarks race the noise
    floor, not the mean); also returns commit/abort counts of the last
    run for sanity assertions."""
    best = 0.0
    committed = aborts = 0
    for _ in range(config["repeats"]):
        tps, committed, aborts = disjoint_tps(isolation, config)
        best = max(best, tps)
    return best, committed, aborts


def lost_update_refusals(config) -> tuple[int, int]:
    """Both levels must abort one of two overlapping writers; returns
    (serial aborts, si aborts) over ``readers`` contended pairs."""
    counts = []
    for isolation in ("serial", "si"):
        manager = TransactionManager(isolation=isolation)
        _setup(manager, config)
        for i in range(config["readers"]):
            relation = _private(i)
            first = manager.begin()
            second = manager.begin()
            for transaction in (first, second):
                transaction.read(Rollback(relation))
                transaction.stage(
                    ModifyState(
                        relation,
                        Const(SnapshotState(V, [("race",)])),
                    )
                )
            manager.commit(first)
            try:
                manager.commit(second)
            except ConcurrencyError:
                pass
        counts.append(manager.abort_count)
    return counts[0], counts[1]


# -- reporting ---------------------------------------------------------------


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        f"E20 — multi-writer MVCC vs the serial level "
        f"({config['readers']} readers x {config['hot']} hot writers, "
        f"{'smoke' if smoke else 'full'} run)"
    ]
    serial_tps, committed, serial_aborts = best_tps("serial", config)
    si_tps, si_committed, si_aborts = best_tps("si", config)
    ssi_tps, _, ssi_aborts = best_tps("ssi", config)
    assert committed == si_committed, "both must land every transaction"
    assert si_aborts == 0 and ssi_aborts == 0, (
        "disjoint write sets must never abort under MVCC"
    )
    lines.append(
        f"  serial level:   {serial_tps:,.0f} commits/s "
        f"({serial_aborts} reader retries per run: every writer pulse "
        "restarts the cohort)"
    )
    lines.append(
        f"  mvcc si:        {si_tps:,.0f} commits/s "
        f"-> {si_tps / serial_tps:.2f}x (snapshot reads never "
        "invalidate; 0 aborts)"
    )
    lines.append(
        f"  mvcc ssi:       {ssi_tps:,.0f} commits/s "
        f"-> {ssi_tps / serial_tps:.2f}x (rw-antidependency analysis "
        "finds no pivot)"
    )
    serial_refused, mvcc_refused = lost_update_refusals(config)
    lines.append(
        f"  lost-update refusals over {config['readers']} contended "
        f"pairs: serial {serial_refused}, mvcc {mvcc_refused} "
        "(faster, not looser)"
    )
    return "\n".join(lines)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e20.json``."""
    config = FULL
    serial_tps, _, _ = best_tps("serial", config)
    si_tps, _, si_aborts = best_tps("si", config)
    ssi_tps, _, _ = best_tps("ssi", config)
    serial_refused, mvcc_refused = lost_update_refusals(config)
    return {
        "experiment": "e20",
        "description": (
            "multi-writer MVCC: disjoint-write commit throughput vs "
            "the serial manager's backward validation (OCC reader "
            "retry storms), plus SSI and lost-update refusal parity"
        ),
        "measurements": {
            "mvcc_disjoint_speedup": {
                "kind": "speedup",
                "value": round(si_tps / serial_tps, 2),
                "floor": 2.0,
                "detail": (
                    f"{config['readers']} hot-scanning readers under "
                    f"{config['pulses']} writer pulses per wave: "
                    f"serial {serial_tps:,.0f} commits/s vs mvcc si "
                    f"{si_tps:,.0f} commits/s with {si_aborts} aborts"
                ),
            },
            "ssi_disjoint_speedup": {
                "kind": "speedup",
                "value": round(ssi_tps / serial_tps, 2),
                "floor": 0.9,
                "detail": (
                    "same workload with rw-antidependency tracking on: "
                    f"{ssi_tps:,.0f} commits/s"
                ),
            },
            "lost_update_refusal_gap": {
                "kind": "count",
                "value": abs(serial_refused - mvcc_refused),
                "detail": (
                    f"serial refused {serial_refused}, mvcc refused "
                    f"{mvcc_refused} of the same contended pairs; the "
                    "acceptance bar is identical refusal counts"
                ),
            },
        },
    }


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e20_mvcc"):
        print(report(smoke="--smoke" in sys.argv[1:]))
