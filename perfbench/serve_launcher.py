"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_PATH [serve args...]``.
Wraps the layer boundaries of :mod:`layers`, runs the server CLI until
it is interrupted (SIGINT), then writes every recorded span to
``SPANS_PATH``.
"""

from __future__ import annotations

import sys

from common import program_path
from layers import install
from tracer import Tracer


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    program_path()
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.restore()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
