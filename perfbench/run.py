"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload append_deep --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics.  The program
under test is imported from ``src/`` of the checkout; temporary files go
to ``.perfbench_work/`` there and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("append_deep", "server_hot_reads", "timetravel_scan",
             "cluster_mix")


def workload_class(name: str):
    if name == "append_deep":
        from wl_append_deep import AppendDeep
        return AppendDeep
    if name == "server_hot_reads":
        from wl_server import ServerHotReads
        return ServerHotReads
    if name == "timetravel_scan":
        from wl_timetravel import TimetravelScan
        return TimetravelScan
    from wl_cluster import ClusterMix
    return ClusterMix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    from common import run_workload

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result = run_workload(
            workload_class(args.workload), args.seed, args.seconds,
            bool(args.trace), workdir, args.size,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
