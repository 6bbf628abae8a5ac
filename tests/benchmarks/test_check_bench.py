"""``benchmarks.check_bench``: speedup tolerance and floors, and the
zero-tolerance count bars."""

import json
from pathlib import Path

import pytest

from benchmarks.check_bench import check, main

ROOT = Path(__file__).resolve().parents[2]


def write_sidecar(directory, name, measurements):
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps({"measurements": measurements}))


@pytest.fixture
def dirs(tmp_path):
    baseline, fresh = tmp_path / "baseline", tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    return baseline, fresh


def count(value):
    return {"kind": "count", "value": value}


def speedup(value, floor=None):
    entry = {"kind": "speedup", "value": value}
    if floor is not None:
        entry["floor"] = floor
    return entry


class TestCountBars:
    def test_count_above_a_zero_bar_fails(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e19", {"client_errors": count(0)})
        write_sidecar(fresh, "e19", {"client_errors": count(1)})
        failures = check(str(baseline), str(fresh), ["e19"])
        assert len(failures) == 1
        assert "e19.client_errors" in failures[0]
        assert main([str(baseline), str(fresh), "e19"]) == 1

    def test_count_at_the_zero_bar_passes(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e20", {"refusal_gap": count(0)})
        write_sidecar(fresh, "e20", {"refusal_gap": count(0)})
        assert check(str(baseline), str(fresh), ["e20"]) == []
        assert main([str(baseline), str(fresh), "e20"]) == 0

    def test_missing_bar_fails(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e19", {"client_errors": count(0)})
        write_sidecar(fresh, "e19", {})
        failures = check(str(baseline), str(fresh), ["e19"])
        assert failures == ["e19.client_errors: measurement missing from fresh run"]

    def test_nonzero_counts_are_observations(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e18", {"reads_completed": count(24)})
        write_sidecar(fresh, "e18", {"reads_completed": count(30)})
        assert check(str(baseline), str(fresh), ["e18"]) == []


class TestSpeedups:
    def test_within_tolerance_passes(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e2", {"ratio": speedup(10.0)})
        write_sidecar(fresh, "e2", {"ratio": speedup(8.5)})
        assert check(str(baseline), str(fresh), ["e2"]) == []

    def test_regression_beyond_tolerance_fails(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e2", {"ratio": speedup(10.0)})
        write_sidecar(fresh, "e2", {"ratio": speedup(7.0)})
        failures = check(str(baseline), str(fresh), ["e2"])
        assert len(failures) == 1 and "regressed" in failures[0]
        assert check(str(baseline), str(fresh), ["e2"], tolerance=0.5) == []

    def test_below_floor_fails(self, dirs):
        baseline, fresh = dirs
        write_sidecar(baseline, "e13", {"ratio": speedup(6.0, floor=5.0)})
        write_sidecar(fresh, "e13", {"ratio": speedup(4.9, floor=5.0)})
        failures = check(str(baseline), str(fresh), ["e13"])
        assert any("floor" in failure for failure in failures)

    def test_other_kinds_are_not_gated(self, dirs):
        baseline, fresh = dirs
        write_sidecar(
            baseline, "e19", {"mttr": {"kind": "latency_ms", "value": 0.4}}
        )
        write_sidecar(
            fresh, "e19", {"mttr": {"kind": "latency_ms", "value": 40.0}}
        )
        assert check(str(baseline), str(fresh), ["e19"]) == []


def test_committed_sidecars_pass_against_themselves():
    names = ["e2", "e4", "e13", "e16", "e17", "e18", "e19", "e20"]
    assert check(str(ROOT), str(ROOT), names) == []
