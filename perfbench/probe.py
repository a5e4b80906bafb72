"""A fixed CPU kernel that measures how fast the host runs right now.

The benchmark's VM shares its host: over a run the same code can run
1.2-1.6x slower for seconds to minutes, and every timing moves with it.
``probe_ms()`` times a small fixed kernel (a pure-Python integer loop,
~1.5 ms) between timed operations, never inside one.  Timings are then
reported at the reference speed::

    at_ref_ms = measured_ms * REFERENCE_MS / median(probe_ms samples)

so a slower host moves the probe and the operation alike and the scaled
figure stays put, while a slower program moves only the operation.  The
raw figures are reported next to the scaled ones.  Of the kernels tried
(this loop, and one mixing string, dict and numpy work), the interpreter
loop tracked the matching code best: session by session within a run,
``case_study``'s increment latency over the probe varied about half as
much as the raw latency did, or less.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The probe's typical median on the 2-vCPU Xeon VM the benchmark was
#: written on (Python 3.11); scaled timings are in milliseconds at that
#: speed.
REFERENCE_MS = 1.5

_ITERATIONS = 20_000


def probe_ms() -> float:
    """One timing of the fixed kernel, in milliseconds."""
    started = time.perf_counter()
    total = 0
    for n in range(_ITERATIONS):
        total += n * n % 7
    return (time.perf_counter() - started) * 1000.0


def speed_factor(samples: list[float]) -> float:
    """``REFERENCE_MS`` over the samples' median: multiply a timing by it."""
    return REFERENCE_MS / statistics.median(samples)


def speed_factors_at(timed: list[list[float]], instants: list[float], half_width: float) -> list[float]:
    """The speed factor around each instant.

    ``timed`` holds ``[instant, probe ms]`` samples; each instant gets the
    factor of the samples within ``half_width`` seconds of it, or of all
    samples where none are that close.
    """
    timed = sorted(timed)
    stamps = [instant for instant, _ in timed]
    overall = speed_factor([ms for _, ms in timed])
    factors = []
    for instant in instants:
        low = bisect.bisect_left(stamps, instant - half_width)
        high = bisect.bisect_right(stamps, instant + half_width)
        near = [ms for _, ms in timed[low:high]]
        factors.append(speed_factor(near) if near else overall)
    return factors
