"""Start ``python -m repro serve`` with the benchmark's span tracer
installed, and write the spans to a file when the server exits.

Usage::

    python3 perfbench/serve_traced.py SPANS.json [serve options...]

The server runs exactly as ``python -m repro serve [serve options...]``
does; SIGINT drains it, after which the file receives a JSON object:
``spans``, a list of ``[name, start, end, parent, op, size, segment]``
rows, and ``sites``, the number of spans each wrapped call site
recorded.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import repro.__main__ as cli
    from tracing import Tracer, install

    tracer = install(Tracer())
    tracer.active = True
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "sites": tracer.sites}, handle)


if __name__ == "__main__":
    sys.exit(main())
