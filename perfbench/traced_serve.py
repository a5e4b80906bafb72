"""Run the ``repro serve`` entry point with the bench's layer wrappers.

Used by the traced ``served_mix`` run in place of ``python -m repro
serve``::

    python3 perfbench/traced_serve.py <spans.json> serve-args...

The wrappers are installed before the server is built, then the same
CLI entry point runs unchanged.  The spans are written once the server
has shut down (SIGTERM drains it and ``main`` returns).
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder("server")
    tracing.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
