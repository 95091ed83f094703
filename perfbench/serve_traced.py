"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_traced.py SPANS.json serve [serve options]

Installs the server-side wrappers of :mod:`tracing`, hands over to
``repro.cli.main`` with the remaining arguments and, once the server has
drained (SIGTERM), writes every span to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: "list[str]") -> int:
    if len(argv) < 2:
        print("usage: serve_traced.py SPANS.json serve [options]",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install_server()
    code = cli.main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
