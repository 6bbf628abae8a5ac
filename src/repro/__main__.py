"""``python -m repro`` — the command-line entry, in three modes.

Following the classic CLI/eval/serve split of interactive database
shells:

* ``python -m repro`` (or ``python -m repro repl``) — the interactive
  REPL; ``.connect host:port`` switches it onto a running server;
* ``python -m repro eval FILE`` / ``python -m repro eval -c SOURCE`` —
  run a script of statements and exit (errors exit non-zero);
* ``python -m repro serve`` — the asyncio wire-protocol server, with
  the backing database (plain / ``--durable-dir`` / ``--shards`` /
  ``--cluster-shards`` × ``--cluster-replicas``) and the admission
  bounds on the command line.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    from repro.concurrency.manager import ISOLATION_LEVELS
    from repro.lang.backing import DEFAULT_FSYNC

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "McKenzie & Snodgrass (1987) transaction-time algebra: "
            "REPL, script evaluation, or wire-protocol server"
        ),
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("repl", help="interactive shell (the default)")

    evaluate = commands.add_parser(
        "eval", help="evaluate a statement script and exit"
    )
    evaluate.add_argument(
        "script",
        nargs="?",
        help="path of a statement script ('-' for stdin)",
    )
    evaluate.add_argument(
        "-c",
        dest="source",
        help="statements given inline instead of a file",
    )

    serve = commands.add_parser(
        "serve", help="run the asyncio wire-protocol server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077)
    serve.add_argument("--backlog", type=int, default=128)
    serve.add_argument(
        "--workers", type=int, default=4, help="worker pool size"
    )
    serve.add_argument(
        "--queue-high",
        type=int,
        default=64,
        help="admission queue high watermark (shed above this)",
    )
    serve.add_argument(
        "--queue-low",
        type=int,
        default=None,
        help="low watermark ending a shed episode (default: high/2)",
    )
    serve.add_argument(
        "--per-connection",
        type=int,
        default=16,
        help="max queued requests per connection",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (queue wait + execution)",
    )
    serve.add_argument(
        "--durable-dir",
        default=None,
        help="serve a durable (WAL + checkpoint) database in this dir",
    )
    serve.add_argument(
        "--fsync",
        default=DEFAULT_FSYNC,
        help="WAL fsync policy: always | never | batch(N, ms)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve a sharded database with N shards",
    )
    serve.add_argument(
        "--cluster-shards",
        type=int,
        default=None,
        help="serve a cluster topology with N sharded primaries",
    )
    serve.add_argument(
        "--cluster-replicas",
        type=int,
        default=1,
        help="replicas behind each cluster primary (default 1)",
    )
    serve.add_argument(
        "--cluster-dir",
        default=None,
        help="directory backing the cluster's primaries, replicas and "
        "coordinator journal (enables --reopen)",
    )
    serve.add_argument(
        "--reopen",
        action="store_true",
        help="reopen a killed cluster from --cluster-dir instead of "
        "demanding empty stores",
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help="run the cluster health supervisor (probe primaries, "
        "auto-failover, resync/backfill replicas)",
    )
    serve.add_argument(
        "--supervise-interval",
        type=float,
        default=0.25,
        help="seconds between supervisor probe ticks (default 0.25)",
    )
    serve.add_argument(
        "--debug-ops",
        action="store_true",
        help="honour debug requests (stall_ms) from load drivers",
    )
    serve.add_argument(
        "--isolation",
        choices=ISOLATION_LEVELS,
        default="serial",
        help="write-path isolation on the plain backing: serial "
        "(single-writer), si (snapshot isolation, first-committer-"
        "wins) or ssi (serializable snapshot isolation)",
    )
    return parser


def _run_eval(args: argparse.Namespace) -> int:
    """Evaluate statements from a file / stdin / -c and print results."""
    import io

    from repro.lang.repl import Repl

    if args.source is not None:
        source = args.source
    elif args.script in (None, "-"):
        source = sys.stdin.read()
    else:
        try:
            with open(args.script, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    repl = Repl(sys.stdout)
    for line in io.StringIO(source):
        repl.feed(line)
    # an unterminated trailing statement still runs (scripts need no
    # final newline-semicolon pair)
    repl.feed(";\n" if repl.pending else "\n")
    return 1 if repl.error_count else 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import ReproServer, ServerConfig

    cluster = None
    if args.cluster_shards is not None:
        from repro.cluster import ClusterConfig

        cluster = ClusterConfig(
            shards=args.cluster_shards,
            replicas_per_shard=args.cluster_replicas,
            directory=args.cluster_dir,
            reopen=args.reopen,
        )
    elif args.cluster_dir is not None or args.reopen or args.supervise:
        print(
            "error: --cluster-dir/--reopen/--supervise need "
            "--cluster-shards",
            file=sys.stderr,
        )
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        backlog=args.backlog,
        workers=args.workers,
        queue_high=args.queue_high,
        queue_low=args.queue_low,
        per_connection=args.per_connection,
        deadline_ms=args.deadline_ms,
        durable_dir=args.durable_dir,
        fsync=args.fsync,
        shards=args.shards,
        cluster=cluster,
        supervise=args.supervise,
        supervise_interval=args.supervise_interval,
        debug_ops=args.debug_ops,
        isolation=args.isolation,
    )

    async def _main() -> None:
        server = ReproServer(config)
        await server.start()
        backing = (
            f"durable({config.durable_dir})"
            if config.durable_dir
            else f"sharded({config.shards})"
            if config.shards
            else (
                f"cluster({config.cluster.shards}x"
                f"{config.cluster.replicas_per_shard})"
            )
            if config.cluster
            else "in-memory"
        )
        if config.isolation != "serial":
            backing += f", {config.isolation}"
        print(
            f"repro server listening on {server.host}:{server.port} "
            f"({backing}, {config.workers} workers, "
            f"queue {server.admission.queue_low}"
            f"/{server.admission.queue_high})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            print("draining...", flush=True)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "eval":
        return _run_eval(args)
    from repro.lang.repl import run_repl

    run_repl(sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
