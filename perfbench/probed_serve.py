"""Run the ``repro serve`` entry point with a host-speed probe beside it.

Used by the untraced ``served_mix`` run in place of ``python -m repro
serve``::

    python3 perfbench/probed_serve.py <probes.json> serve-args...

A daemon thread times ``probe.probe_ms`` ten times a second in the
server's own process, on the wall clock like the requests (a CPU clock
leaves out the time the host takes the vCPU away, which is part of the
slowdown the probe is there to see); the same CLI entry point runs
unchanged.  The samples, ``[monotonic instant, ms]``
pairs, are written once the server has shut down (SIGTERM drains it and
``main`` returns).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

from probe import probe_ms


def main() -> int:
    samples_path, serve_args = sys.argv[1], sys.argv[2:]
    samples: list[list[float]] = []
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.1):
            samples.append([time.monotonic(), probe_ms()])

    thread = threading.Thread(target=sample, name="host-probe", daemon=True)
    thread.start()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        done.set()
        thread.join(timeout=1.0)
        Path(samples_path).write_text(json.dumps(samples), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
