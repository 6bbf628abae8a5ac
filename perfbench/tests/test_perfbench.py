"""Tests of the benchmark itself, not of the program it measures.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run as bench  # noqa: E402
from tracing import Tracer, install  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

#: wrapped call sites each workload is meant to exercise
EXPECTED_SITES = {
    "append_deep": {
        "Session.execute",
        "Session.query",
        "repro.lang.session.parse_sentence",
        "repro.lang.session.parse_expression",
        "Session._cached_expression",
        "CostGuidedRewriter.rewrite",
        "repro.lang.session.collect_statistics",
        "repro.lang.session.compile_expression",
        "CompiledPlan.__call__",
        "Relation.with_new_state",
        "repro.core.expressions.snap_union",
        "repro.core.expressions.snap_difference",
        "WriteAheadLog.append",
        "WriteAheadLog.sync",
        "DirectoryStore.sync",
        "repro.durability.durable.write_checkpoint",
        "repro.durability.durable.recover",
    },
    "server_hot_reads": {
        "ReproServer._process",
        "SessionView.query",
        "ServerStore.execute",
        "repro.server.store.render_state",
        "repro.server.protocol.encode_message",
        "repro.server.store.parse_sentence",
        "TransactionManager.run",
        "TransactionManager.begin",
        "Session._cached_expression",
        "repro.core.expressions.snap_select",
        "repro.core.expressions.snap_project",
        "repro.core.expressions.snap_difference",
    },
    "timetravel_scan": {
        "repro.lang.session.parse_expression",
        "repro.lang.session.compile_expression",
        "CompiledPlan.__call__",
        "repro.core.expressions.snap_select",
        "repro.core.expressions.snap_project",
        "repro.core.expressions.snap_difference",
        "repro.core.expressions.snap_product",
        "Relation.with_new_state",
    },
    "cluster_mix": {
        "Cluster.execute",
        "Cluster.evaluate",
        "ScatterGatherRouter.evaluate",
        "Replica.catch_up",
        "MemoryStore.sync",
        "repro.core.expressions.snap_union",
    },
}


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def _traced_tiny(workload: str, workdir: str):
    cls = bench.workload_class(workload)
    instance = cls(3, workdir, "tiny", True)
    try:
        instance.setup()
        instance.finish(instance.phase(0.5))
    finally:
        instance.close()
    return instance


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_each_boundary_records_spans_on_its_workload(workload, tmp_path):
    sites = _traced_tiny(workload, str(tmp_path)).sites()
    silent = sorted(s for s in EXPECTED_SITES[workload] if not sites.get(s))
    assert not silent


def test_every_wrapped_site_is_expected_on_some_workload():
    tracer = install(Tracer())
    tracer.uninstall()
    assert set(tracer.sites) == set().union(*EXPECTED_SITES.values())


def _corrupt_state(state):
    from repro.snapshot.state import SnapshotState

    return SnapshotState(state.schema, sorted(state.tuples, key=repr)[1:])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_oracle_catches_one_corrupted_reply(workload, tmp_path, monkeypatch):
    lock = threading.Lock()
    calls = {"seen": 0, "done": False}

    def tamper(reply, corrupt):
        with lock:
            calls["seen"] += 1
            if calls["done"] or calls["seen"] < 5 or not len(reply):
                return reply
            calls["done"] = True
        return corrupt(reply)

    if workload == "server_hot_reads":
        from repro.server.client import AsyncReproClient as target

        original = target.query

        async def query(self, *args, **kwargs):
            reply = await original(self, *args, **kwargs)
            return tamper(reply, lambda text: text + " ")
    else:
        from repro.lang.session import Session as target

        original = target.query

        def query(self, *args, **kwargs):
            return tamper(original(self, *args, **kwargs), _corrupt_state)

    instance = bench.workload_class(workload)(3, str(tmp_path), "tiny", False)
    try:
        instance.setup()
        monkeypatch.setattr(target, "query", query)
        phase = instance.phase(0.5)
        instance.finish(phase)
    finally:
        instance.close()
    assert calls["done"]
    assert phase.failed == 1 and phase.failed / phase.ops > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("append_deep", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
